"""The installed ``dynalg`` console script, run as a user runs it.

Each case runs the script that ``[project.scripts]`` declares from the
root of the checkout, on the files in ``demos/data/`` and
``tests/golden/inputs/``.  A run that exits 0 prints one report on
standard output; any other run prints nothing there and one
``{"error", "message"}`` line on standard error.  The predicate of a
case reads that report or that error object.  The cases after the table
close standard output early, nest a file too deeply, and check that an
exact verb imports no numpy.

The module is skipped when no ``dynalg`` script is on ``PATH``.  The
``package`` CI job installs the package, so the script there imports
the installed ``dynalg``, not ``src/``.
"""

import json
import os
import shlex
import shutil
import subprocess

import pytest

from test_readme import ROOT, readme_commands

DYNALG = shutil.which("dynalg")

pytestmark = pytest.mark.skipif(DYNALG is None, reason="no dynalg console script on PATH")

Z2 = "demos/data/z2.json"
Z3 = "demos/data/z3.json"
DATA = "demos/data/data.json"
COMPARE = ["compare", "--system", Z3, "--a", "chi:0", "--b", "chi:1,2"]

# every command answers on these inputs well within this many seconds;
# a huge --max-n must be refused from the closed-form candidate count
TIMEOUT_S = 20

REPORT_FIELDS = {
    "command", "inputs", "params", "result", "certificates", "margins", "runtime_s",
}


def run(argv):
    """(exit code, the report or the error object) of one run."""
    proc = subprocess.run(
        [DYNALG] + argv, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S
    )
    if proc.returncode == 0:
        return 0, json.loads(proc.stdout)
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, lines
    return proc.returncode, json.loads(lines[0])


def report(command, holds=lambda r: True):
    """A report of ``command`` for which ``holds`` is true."""
    return lambda r: set(r) == REPORT_FIELDS and r["command"] == command and holds(r)


def error(name):
    return lambda e: set(e) == {"error", "message"} and e["error"] == name


CASES = [
    pytest.param(
        COMPARE + ["--witness", "--oracle"], 0,
        report("compare", lambda r: r["params"] == {"mode": "exact", "tolerance": 1e-9}),
        id="compare",
    ),
    pytest.param(["semigroup", "--system", Z2, "--max-n", "2"], 0, report("semigroup"),
                 id="semigroup"),
    pytest.param(
        ["castle", "tzs", "--system", Z3, "--instance", "demos/data/inst.json", "--identity"],
        0, report("castle-tzs"), id="castle-tzs",
    ),
    pytest.param(["castle", "build-ozm", "--system", Z2, "--data", DATA], 0,
                 report("castle-build-ozm"), id="castle-build-ozm"),
    pytest.param(
        ["castle", "decompose", "--system", Z2, "--data", DATA], 0,
        report("castle-decompose", lambda r: r["result"]["towers"] == 1),
        id="castle-decompose",
    ),
    pytest.param(
        COMPARE + ["--semigroup", "--max-n", "2"], 0,
        report("compare", lambda r: r["result"]["semigroup"]["classes"] == 7),
        id="compare-semigroup",
    ),
    pytest.param(["semigroup", "--system", Z2, "--max-n", "-1"], 1, error("ParseError"),
                 id="negative-max-n"),
    pytest.param(
        ["castle", "build-ozm", "--float", "--system", Z2, "--data", DATA], 0,
        report("castle-build-ozm", lambda r: r["result"]["built"] is True),
        id="float-build",
    ),
    pytest.param(
        ["castle", "build-ozm", "--float", "--system", Z2,
         "--data", "tests/golden/inputs/float_modulus_above_one.json"],
        1, error("InvalidCastleData"), id="float-modulus-above-one",
    ),
    pytest.param(["castle", "decompose", "--float", "--system", Z2, "--data", DATA], 1,
                 error("ExactnessError"), id="float-decompose"),
    pytest.param(["semigroup", "--system", Z2, "--max-n", "1000000000000"], 1,
                 error("ResourceBound"), id="huge-max-n"),
] + [
    # every command of the README's command-line block
    pytest.param(shlex.split(line)[1:], 0, lambda r: set(r) == REPORT_FIELDS, id=line)
    for line in readme_commands()
]


@pytest.mark.parametrize("argv, code, check", CASES)
def test_console_script(argv, code, check):
    got, obj = run(argv)
    assert got == code, obj
    assert check(obj), obj


def test_semigroup_size_enters_the_digest():
    digests = set()
    for n in ("1", "2"):
        code, report = run(COMPARE + ["--semigroup", "--max-n", n])
        assert code == 0, report
        digests.add(report["inputs"]["digest"])
    assert len(digests) == 2


def test_closed_stdout_exits_one_without_a_traceback():
    # the 77 KB report overfills the pipe, so the write after the reader
    # closes it fails whatever the timing (``dynalg ... | head -c 10``)
    with subprocess.Popen(
        [DYNALG, "semigroup", "--system", "demos/data/z2_double.json", "--max-n", "3"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        lines = proc.stderr.read().splitlines()
        assert proc.wait(timeout=TIMEOUT_S) == 1
    assert len(lines) == 1, lines
    assert error("ParseError")(json.loads(lines[0]))


def test_deep_nesting_gives_a_parse_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, obj = run(["system-check", "--system", str(deep)])
    assert code == 1 and error("ParseError")(obj) and str(deep) in obj["message"], obj


def test_exact_verb_imports_no_numpy():
    proc = subprocess.run(
        [DYNALG, "semigroup", "--system", Z2, "--max-n", "2"],
        cwd=ROOT, env=dict(os.environ, PYTHONPROFILEIMPORTTIME="1"),
        capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr
    imported = [
        line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "dynalg.cli" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]
