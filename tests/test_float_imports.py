"""numpy is loaded by the first float decision, and by nothing exact.

Only the float routines of ``algebra`` import numpy, when they run.  So
``import dynalg`` and every exact route (the type semigroup, exact
castle maps, the witness compiler and the exact CLI verbs) leave it out
of ``sys.modules``, and the float routes load it.  pytest itself has
numpy loaded, so each check runs a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PRELUDE = """
import contextlib, io, json, os, sys
from fractions import Fraction
import dynalg, dynalg.cli
from dynalg import *

z2 = DynSystem.translation(FiniteGroup.cyclic(2))
z3 = DynSystem.translation(FiniteGroup.cyclic(3))
castle = Castle(z2, ((frozenset({0}), (0, 1)),))
half = Func.from_dict(z2, {0: RadScalar(Fraction(1, 2))})
phases = ((Func.indicator(z2, {0}), Func.from_dict(z2, {0: RadScalar(0, 1)})),)
data = CastleOzmData(castle=castle, weights=(half,), phases=phases, n=2)
a = DiagTuple.indicators(z3, [{0}])
b = DiagTuple.indicators(z3, [{1, 2}])
Z3 = ["--system", "demos/data/z3.json", "--a", "chi:0", "--b", "chi:1,2"]

def temp_json(payload):
    path = os.path.join(sys.argv[1], "%d.json" % len(os.listdir(sys.argv[1])))
    with open(path, "w") as f:
        json.dump(payload, f)
    return path

def cli(*argv):
    # no assert statements here: the suite also runs under python -O
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dynalg.cli.main(list(argv))
    if code != 0:
        raise SystemExit("%s exited %d" % (" ".join(argv), code))
    return json.loads(out.getvalue())
"""

# (name, statements) in the order they run, all in one interpreter
EXACT = [
    ("import dynalg, dynalg.cli", "pass"),
    (
        "type semigroup",
        "W = type_semigroup(z3, max_n=2)\n"
        "almost_unperforation_check(W)\n"
        "dynamical_comparison_check(z3)",
    ),
    ("exact castle build and decompose", "decompose_ozm(build_castle_ozm(data))"),
    (
        "witness compile and extract",
        "eps = Fraction(1, 2)\n"
        "cert = compile_witness(a, b, eps, search_subequivalence(z3, a.cutdown(eps).supports(), b.supports()))\n"
        "extract_witness(a, b, cert.epsilon, cert.delta, cert.t)",
    ),
    ("cli semigroup", "cli('semigroup', '--system', 'demos/data/z2.json', '--max-n', '2')"),
    ("cli system-check", "cli('system-check', '--system', 'demos/data/z4.json')"),
    ("cli compare", "cli('compare', *Z3, '--witness', '--semigroup')"),
    ("cli compare --oracle, rational entries", "cli('compare', *Z3, '--oracle')"),
    (
        "cli witness compile, roundtrip and extract",
        "certificate = cli('witness', 'compile', *Z3, '--epsilon', '1/2')['certificates']['certificate']\n"
        "cli('witness', 'roundtrip', *Z3, '--epsilon', '1/2')\n"
        "cli('witness', 'extract', *Z3, '--certificate', temp_json(certificate))",
    ),
    (
        "cli castle validate and decompose",
        "cli('castle', 'validate', '--system', 'demos/data/z2.json', '--castle', 'demos/data/castle.json')\n"
        "cli('castle', 'decompose', '--system', 'demos/data/z2.json', '--data', 'demos/data/data.json')",
    ),
]

# each runs in an interpreter of its own, after the prelude
FLOAT = {
    "verify_cpc": "verify_cpc(build_castle_ozm(data))",
    "operator_norm": "operator_norm(CrossedElement.from_func(half))",
    # chi_0 does not commute with the matrix units, so the norms are not
    # exact zeros
    "cli castle tzs": "inst = {'n': 3, 'epsilon': '1/10', 'h': [['0', '1']], "
                      "'F': [{'coeffs': [['0', [['0', '1']]]]}]}\n"
                      "cli('castle', 'tzs', '--system', 'demos/data/z3.json', "
                      "'--instance', temp_json(inst), '--identity')",
    "cli castle build-ozm": "cli('castle', 'build-ozm', '--system', 'demos/data/z2.json', "
                            "'--data', 'demos/data/data.json')",
    # a float or radical entry makes the block ranks float
    "cli compare --oracle --float": "cli('compare', '--system', 'demos/data/z3.json', "
                                    "'--a', '@' + temp_json([['0', '1/2']]), '--b', 'chi:1,2', "
                                    "'--oracle', '--float')",
}


def numpy_loaded_after(steps, tmp_path):
    """{name: whether numpy is loaded after the step} from a fresh
    interpreter that writes its files in tmp_path."""
    lines = [PRELUDE]
    for name, code in steps:
        lines += [code, "print(%r, 'numpy' in sys.modules)" % name]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable] + ["-O"] * sys.flags.optimize + ["-c", "\n".join(lines), str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit(" ", 1)[0]: line.endswith("True") for line in proc.stdout.splitlines()}


def test_exact_routes_leave_numpy_unloaded(tmp_path):
    loaded = numpy_loaded_after(EXACT, tmp_path)
    assert list(loaded) == [name for name, _ in EXACT]
    assert not any(loaded.values()), [name for name, hit in loaded.items() if hit]


@pytest.mark.parametrize("name", sorted(FLOAT))
def test_float_routes_load_numpy(tmp_path, name):
    loaded = numpy_loaded_after([("prelude", "pass"), (name, FLOAT[name])], tmp_path)
    assert loaded == {"prelude": False, name: True}
