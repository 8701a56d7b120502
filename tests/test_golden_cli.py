"""CLI castle reports compared byte for byte with recorded reports.

Each case runs one ``castle`` command in process and compares its output
with ``golden/reports/<case>.txt``: standard output, with ``runtime_s``
zeroed, when the command succeeds, and the JSON error on standard error
when it fails.  The cases cover ``build-ozm``, ``decompose`` and
``tzs --data`` on exact data and with ``--float``, two float-mode data
files that pass validation but not the map verifiers (a phase of modulus
1 + 9e-10, and phase moduli 1, 1 - 9e-10, 1), and data that fails
validation.  Reports name no file paths, so the inputs are located from
this file.
"""

from pathlib import Path

import pytest

from dynalg.cli import main

from _support import strip_runtime

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

Z2 = str(ROOT / "demos" / "data" / "z2.json")
Z3 = str(ROOT / "demos" / "data" / "z3.json")
DATA = str(ROOT / "demos" / "data" / "data.json")


def _input(name):
    return str(GOLDEN / "inputs" / name)


_TZS_Z3 = ["--system", Z3, "--instance", _input("z3_inst.json"), "--data", _input("z3_data.json")]

# case name -> (argv, exit code)
CASES = {
    "build_ozm_exact": (["castle", "build-ozm", "--system", Z2, "--data", DATA], 0),
    "decompose_exact": (["castle", "decompose", "--system", Z2, "--data", DATA], 0),
    "tzs_data_exact": (["castle", "tzs"] + _TZS_Z3, 0),
    "build_ozm_float": (["castle", "build-ozm", "--float", "--system", Z2, "--data", DATA], 0),
    "decompose_float": (["castle", "decompose", "--float", "--system", Z2, "--data", DATA], 1),
    "tzs_data_float": (["castle", "tzs", "--float"] + _TZS_Z3, 0),
    "float_modulus_above_one": (
        ["castle", "build-ozm", "--float", "--system", Z2,
         "--data", _input("float_modulus_above_one.json")],
        1,
    ),
    "float_uneven_moduli": (
        ["castle", "build-ozm", "--float", "--system", Z3,
         "--data", _input("float_uneven_moduli.json")],
        1,
    ),
    "float_uneven_moduli_decompose": (
        ["castle", "decompose", "--float", "--system", Z3,
         "--data", _input("float_uneven_moduli.json")],
        1,
    ),
    "heavy_weight": (
        ["castle", "build-ozm", "--system", Z2, "--data", _input("heavy_weight.json")],
        1,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_castle_report_matches_recording(capsys, case):
    argv, expected_code = CASES[case]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expected_code
    if code == 0:
        assert captured.err == ""
        text = strip_runtime(captured.out)
    else:
        assert captured.out == ""
        text = captured.err
    assert text == (GOLDEN / "reports" / (case + ".txt")).read_text()
