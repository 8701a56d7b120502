#!/usr/bin/env python3
"""Compare two result sets of the benchmark: a parent and a change.

Usage, from the root of a checkout::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files ``run.py --out DIR`` writes.  Runs
of the two sides are paired by workload and seed.  For every workload
and end-to-end metric the command prints each side's median and
quartiles, the pairs the change won (ties count for neither side) and a
verdict, with the bounds and directions taken from ``BENCHMARK.json``:

* ``improved``: the change won at least 9 of every 10 pairs, at least
  ten pairs ran, no more ops failed than at the parent, and the medians
  differ by more than the parent's quartile distance;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: either side's quartile distance, as a share of its
  median, is wider than the bound, and the change did not read better
  than the parent on every run;
* ``within bound`` otherwise.

Per-layer metrics from traced runs are listed with both medians and no
verdict; they have no bound.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^(?P<workload>.+)-seed(?P<seed>-?\d+)-trace(?P<trace>[01])\.json$")


def load(directory, trace):
    """{workload: {seed: result}} for the runs of one trace mode."""
    out = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.json")):
        m = NAME.match(path.name)
        if m and int(m["trace"]) == trace:
            out[m["workload"]][int(m["seed"])] = json.loads(path.read_text())
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, pairs, bound, lower_is_better, failures):
    """The verdict for one metric, as described in the module docstring."""
    sign = 1 if lower_is_better else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med) if p_med and c_med else 0.0
    worse = sign * (c_med - p_med) / p_med if p_med else 0.0
    if (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and sign * (p_med - c_med) > p_q3 - p_q1
        and failures[1] <= failures[0]
    ):
        label = "improved"
    elif spread > bound and not all_better:
        label = "unresolved"
    elif worse > bound:
        label = "regressed"
    else:
        label = "within bound"
    return wins, label


def fmt(values):
    q1, q3 = quartiles(values)
    return "%.5g [%.5g, %.5g]" % (statistics.median(values), q1, q3)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    parent, change = load(args.parent, 0), load(args.change, 0)
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        seeds = sorted(set(p_runs) & set(c_runs))
        failures = (
            sum(r["failed"] for r in p_runs.values()),
            sum(r["failed"] for r in c_runs.values()),
        )
        print("%s: %d parent runs, %d change runs, %d pairs; failed ops %d -> %d"
              % (workload, len(p_runs), len(c_runs), len(seeds), *failures))
        print("  %-16s %-34s %-34s %-7s %s" % ("metric", "parent median [q1, q3]",
                                              "change median [q1, q3]", "won", "verdict"))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs.values()]
            cv = [r["metrics"][name]["value"] for r in c_runs.values()]
            pairs = [(p_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"])
                     for s in seeds]
            wins, label = verdict(pv, cv, pairs, metric["bound"], metric["better"] == "lower", failures)
            print("  %-16s %-34s %-34s %-7s %s" % (name, fmt(pv), fmt(cv), "%d/%d" % (wins, len(pairs)), label))

    parent, change = load(args.parent, 1), load(args.change, 1)
    for workload in sorted(set(parent) & set(change)):
        print("%s per layer (traced): parent median -> change median" % workload)
        for metric in bench["per_layer"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in parent[workload].values()]
            cv = [r["metrics"][name]["value"] for r in change[workload].values()]
            print("  %-34s %.6g -> %.6g %s" % (name, statistics.median(pv), statistics.median(cv), metric["unit"]))


if __name__ == "__main__":
    main()
