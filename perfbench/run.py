#!/usr/bin/env python3
"""The dynalg benchmark: one closed-loop client, one workload per process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload castle_roundtrip --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each):

* ``castle_roundtrip``: build, verify, decompose and rebuild castle maps.
* ``semigroup_table``: type semigroup, almost unperforation, comparison.
* ``cli_mixed``: in-process ``dynalg.cli.main`` requests on generated files.

``--trace 0`` measures the end-to-end metrics: it times the library
calls of each op back to back until ``--seconds`` of them have run,
finishing the current pass of the workload's size ladder, and checks
every answer.  ``setup_s`` is the time from process start to the first
op (``import dynalg`` plus building and validating the inputs), taken in
fresh processes spread over the run (see below).  ``--trace 1`` runs
every op of the workload once untraced and once under the tracer of
``tracer.py``, so its
counters repeat exactly for a seed; it prints the per-layer metrics and
the tracing overhead, and writes the spans next to the result files.

Timings are reported at a reference speed.  On a shared host the speed
of a process drifts by up to a factor of two over tens of seconds, with
the load of other tenants.  After every op the client therefore runs
``reference_unit()``, a fixed slice of pure-Python work shaped like the
workload's ops and sharing no code with dynalg, and scales the
latencies of each ladder pass by ``REF_SECONDS`` over that pass's mean
reference time.  A change to dynalg moves the op times and not the
reference, so it shows in full; a slow phase of the host moves both and
cancels out.  The reference runs with the garbage collector off, so
collections that the library's garbage triggers are charged to the ops.

Set-up is scaled the same way, with a reference of its own kind: each
set-up child is paired with a *reference child*, a fresh interpreter
that imports numpy but not dynalg and runs ``REF_CHILD_UNITS`` reference
units, about as long as building the workload's inputs.  ``setup_s`` is
the median over ``SETUP_PAIRS`` pairs of the set-up time over its
reference child's time, times ``REF_CHILD_SECONDS``.  One pair runs at
the end of each ladder pass and the rest after the last one.  The result
files keep the unscaled figures as well.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run also writes a
result file, stamped with the git sha, the Python and numpy versions,
``nproc``, the BLAS thread count and the seed, to ``--out``;
``compare.py`` reads two such directories.

The benchmark pins ``PYTHONHASHSEED`` and a single BLAS thread (it
re-executes itself once with that environment), so the counters and the
float routines' timings do not depend on the shell it was started from.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
WORKLOADS = ["castle_roundtrip", "semigroup_table", "cli_mixed"]
SETUP_PAIRS = 11
MIN_OPS = 100
# reported timings are scaled to a machine on which reference_unit() takes this long
REF_SECONDS = {"castle_roundtrip": 5e-4, "semigroup_table": 5e-4, "cli_mixed": 8e-4}
# reference units a reference child runs: about as long as building the inputs
REF_CHILD_UNITS = {"castle_roundtrip": 200, "semigroup_table": 25, "cli_mixed": 250}
# reported set-up times are scaled to a machine on which the reference child takes this long
REF_CHILD_SECONDS = {"castle_roundtrip": 0.3, "semigroup_table": 0.2, "cli_mixed": 0.4}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", default=str(HERE / "results"), help="directory for result files")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--reference-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    """Import dynalg from this checkout's ``src``, never from elsewhere."""
    if not (SOURCE / "dynalg" / "__init__.py").is_file():
        sys.exit("perfbench: no library source at %s" % (SOURCE / "dynalg"))
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    import dynalg

    if Path(dynalg.__file__).resolve().parent != SOURCE / "dynalg":
        sys.exit("perfbench: imported dynalg from %s, not this checkout" % dynalg.__file__)
    return dynalg


def stamp(args):
    import numpy

    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        sha = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "machine": platform.machine(),
    }


def build_ops(args, workloads):
    """The workload's ops, with input files in a fresh directory."""
    work_root = HERE / "work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=work_root)
    return workloads.BUILDERS[args.workload](args.seed, workdir), workdir


REF_BLOB = json.dumps({"k%d" % i: [i, str(i), {"v": [i, i + 1]}] for i in range(60)})


def reference_unit(workload):
    """Seconds taken by a fixed slice of pure-Python work that shares no
    code with dynalg, shaped like the workload's ops: rational sums and
    small tuples, as in the exact layers, plus for the CLI workload a
    JSON round trip and an argument parse.  Its time tracks how fast
    this machine runs such code at the moment.  The garbage collector is
    off meanwhile, so no collection of the library's garbage lands here."""
    cli = workload == "cli_mixed"
    gc.disable()
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 60 if cli else 120):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        tuple(x for x in range(i % 9))
    if cli:
        json.dumps(json.loads(REF_BLOB), sort_keys=True)
        parser = argparse.ArgumentParser()
        parser.add_argument("--x")
        parser.parse_args(["--x", "1"])
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def time_child(args, mode):
    """Seconds from spawning a fresh interpreter in ``mode`` until it
    reports ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), mode,
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        sys.exit("perfbench: %s child failed with code %d" % (mode, code))
    return elapsed


def setup_pair(args):
    """One set-up child and one reference child, back to back."""
    return time_child(args, "--setup-only"), time_child(args, "--reference-only")


def setup_seconds(pairs, workload):
    """Set-up time at reference speed: the median over the pairs of set-up
    time over reference-child time, times REF_CHILD_SECONDS."""
    return statistics.median(s / r for s, r in pairs) * REF_CHILD_SECONDS[workload]


def run_op(op, workload):
    """Time one op, then one reference unit; returns (seconds, reference
    seconds, answer ok)."""
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a raising op is a counted failure, not a crash
        elapsed = time.perf_counter() - t0
        print("op %s raised %s: %s" % (op.kind, type(exc).__name__, exc), file=sys.stderr)
        return elapsed, reference_unit(workload), False
    elapsed = time.perf_counter() - t0
    try:
        ok = op.check(result)
    except (KeyError, IndexError, TypeError, ValueError):  # a malformed answer is a wrong one
        ok = False
    if not ok:
        print("op %s gave a wrong answer" % op.kind, file=sys.stderr)
    return elapsed, reference_unit(workload), ok


def normalized(samples, pass_len, workload):
    """Op latencies scaled to reference speed, one factor per ladder pass:
    REF_SECONDS over the mean reference time measured between the ops of
    that pass."""
    out = []
    for k in range(0, len(samples), pass_len):
        block = samples[k:k + pass_len]
        factor = REF_SECONDS[workload] / statistics.fmean(ref for _, ref, _ in block)
        out += [elapsed * factor for elapsed, _, _ in block]
    return out


def closed_loop(ops, seconds, pass_len, workload, after_pass):
    """Run ops in order, cycling, until ``seconds`` of op time have passed,
    at least MIN_OPS ops ran, and the last ladder pass is complete.  Calls
    ``after_pass()`` at the end of each pass; its time is not op time."""
    samples = []
    busy = 0.0
    started = time.perf_counter()
    while True:
        samples.append(run_op(ops[len(samples) % len(ops)], workload))
        busy += samples[-1][0]
        if time.perf_counter() - started > 2 * seconds + 60:
            break  # keeps a pathological slowdown inside the time limit
        if len(samples) % pass_len == 0:
            if busy >= seconds and len(samples) >= MIN_OPS:
                break
            after_pass()
    return samples


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by the exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(args, ops, pass_len):
    pairs = []

    def after_pass():
        if len(pairs) < SETUP_PAIRS:
            pairs.append(setup_pair(args))

    for op in ops[:pass_len]:  # warm caches and lazy imports before timing
        run_op(op, args.workload)
    samples = closed_loop(ops, args.seconds, pass_len, args.workload, after_pass)
    while len(pairs) < SETUP_PAIRS:
        pairs.append(setup_pair(args))
    latencies = normalized(samples, pass_len, args.workload)
    raw = [elapsed for elapsed, _, _ in samples]
    failed = sum(not ok for _, _, ok in samples)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_seconds(pairs, args.workload), "s"),
        "ops_per_s": (len(latencies) / math.fsum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    extra = {
        "error_rate": failed / len(samples),
        "raw": {
            "ops_per_s": len(raw) / math.fsum(raw),
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_p90_ms": percentile(raw, 90) * 1e3,
            "setup_s": statistics.median(s for s, _ in pairs),
        },
        "setup_samples_s": [s for s, _ in pairs],
        "setup_reference_s": [r for _, r in pairs],
        "latencies_s": raw,
        "reference_s": [ref for _, ref, _ in samples],
    }
    return len(samples), failed, metrics, extra


def traced(args, workloads, ops, pass_len, out_dir):
    from tracer import Tracer

    for op in ops[:pass_len]:
        run_op(op, args.workload)
    base = [run_op(op, args.workload) for op in ops]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.request = "setup"
        _, workdir = build_ops(args, workloads)
        shutil.rmtree(workdir, ignore_errors=True)
        runs = []
        for i, op in enumerate(ops):
            tracer.request = i
            runs.append(run_op(op, args.workload))
    finally:
        tracer.uninstall()
    failed = sum(not ok for _, _, ok in runs)
    untraced_rate = len(base) / math.fsum(normalized(base, pass_len, args.workload))
    traced_rate = len(runs) / math.fsum(normalized(runs, pass_len, args.workload))
    overhead = untraced_rate / traced_rate - 1
    trace_file = out_dir / ("trace-%s-seed%d.json" % (args.workload, args.seed))
    tracer.dump(trace_file, {
        "stamp": stamp(args),
        "ops": len(runs),
        "untraced_ops_per_s": untraced_rate,
        "traced_ops_per_s": traced_rate,
        "overhead": overhead,
    })
    metrics = tracer.metrics(len(runs))
    extra = {
        "untraced_ops_per_s": untraced_rate,
        "traced_ops_per_s": traced_rate,
        "tracing_overhead": overhead,
        "by_dim": tracer.dim_breakdown(),
        "trace_file": os.path.relpath(trace_file, ROOT),
        "error_rate": failed / len(runs),
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
    }
    return len(runs), failed, metrics, extra


def run_all(args):
    """Each workload in its own process, one after the other."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", args.out]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit("perfbench: workload %s failed with code %d" % (name, proc.returncode))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            "%s.%s" % (name, key): value
            for name, r in results.items()
            for key, value in r["metrics"].items()
        },
    }))


def main(argv):
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        env = dict(os.environ, **PINNED_ENV)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())] + argv, env)
    args = parse_args(argv)
    if args.reference_only:
        import numpy  # noqa: F401  (the set-up child imports it through dynalg)

        for _ in range(REF_CHILD_UNITS[args.workload]):
            reference_unit(args.workload)
        print("ready", flush=True)
        return
    import_library()
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.setup_only:
        _, workdir = build_ops(args, workloads)
        print("ready", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
        return
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ops, workdir = build_ops(args, workloads)
    try:
        pass_len = len(ops) // workloads.PASSES
        if args.trace:
            attempted, failed, metrics, extra = traced(args, workloads, ops, pass_len, out_dir)
        else:
            attempted, failed, metrics, extra = end_to_end(args, ops, pass_len)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run_stamp = stamp(args)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {"stamp": run_stamp, "attempted": attempted, "failed": failed, "metrics": metrics, **extra}
    (out_dir / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(result, indent=1)
    )
    print("workload %s seed %d trace %d: %d ops" % (args.workload, args.seed, args.trace, attempted))
    print("  stamp %s" % json.dumps(run_stamp, sort_keys=True))
    for key, m in metrics.items():
        print("  %-34s %.6g %s" % (key, m["value"], m["unit"]))
    print("  %-34s %.6g (%d of %d ops raised or gave a wrong answer)"
          % ("error_rate", extra["error_rate"], failed, attempted))
    if args.trace:
        print("  tracing overhead %.1f%% (untraced %.4g ops/s, traced %.4g ops/s)"
              % (100 * extra["tracing_overhead"], extra["untraced_ops_per_s"], extra["traced_ops_per_s"]))
        for layer, rows in extra["by_dim"].items():
            print("  %s busy by dimension: %s" % (layer, ", ".join(
                "%d: %.4fs/%d" % (r["dim"], r["busy_s"], r["calls"]) for r in rows)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))

if __name__ == "__main__":
    main(sys.argv[1:])
