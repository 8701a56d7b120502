"""CLI reports compared byte for byte with recorded reports.

Each case runs one command in process and compares its output with
``golden/reports/<case>.txt``: standard output, with ``runtime_s``
zeroed, when the command succeeds, and the JSON error on standard error
when it fails.

The castle cases cover ``build-ozm``, ``decompose`` and ``tzs --data`` on
exact data and with ``--float``, two float-mode data files that pass
validation but not the map verifiers (a phase of modulus 1 + 9e-10, and
phase moduli 1, 1 - 9e-10, 1), and data that fails validation.

The witness and comparison cases cover ``witness compile`` and
``witness roundtrip`` of a two-row tuple on the cyclic group of order 4,
``witness extract`` from the certificate that compile writes
(``golden/inputs/z4_certificate.json``), the same certificate against a
tuple of the wrong length, a certificate whose matrix is not an
r-normalizer, and ``compare --witness --oracle`` exactly and with
``--float``.  ``witness extract`` and ``witness roundtrip`` decide whether
a certificate's matrix is an r-normalizer; ``witness compile`` checks only
its input witness, since the certificate it builds is one by construction.

The semigroup cases cover ``semigroup`` on the free demo systems at
several ``--max-n``, on a non-free system (the cyclic group of order 4
acting through its quotient of order 2 on two points, plus one fixed
point, ``golden/inputs/z4_through_z2.json``), ``compare --semigroup``,
and the refusal of an enumeration over ``--budget``.

Reports name no file paths, so the inputs are located from this file.
"""

from pathlib import Path

import pytest

from dynalg.cli import main

from _support import strip_runtime

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

Z2 = str(ROOT / "demos" / "data" / "z2.json")
Z3 = str(ROOT / "demos" / "data" / "z3.json")
Z4 = str(ROOT / "demos" / "data" / "z4.json")
Z2_DOUBLE = str(ROOT / "demos" / "data" / "z2_double.json")
DATA = str(ROOT / "demos" / "data" / "data.json")


def _input(name):
    return str(GOLDEN / "inputs" / name)


_TZS_Z3 = ["--system", Z3, "--instance", _input("z3_inst.json"), "--data", _input("z3_data.json")]

# case name -> (argv, exit code)
CASTLE_CASES = {
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

_TUPLES_Z4 = ["--system", Z4, "--a", "chi:0", "--a", "chi:1", "--b", "chi:2,3", "--b", "chi:0"]
_CERT_Z4 = ["--certificate", _input("z4_certificate.json")]

WITNESS_CASES = {
    "witness_compile": (["witness", "compile"] + _TUPLES_Z4 + ["--epsilon", "1/3"], 0),
    "witness_roundtrip": (["witness", "roundtrip"] + _TUPLES_Z4 + ["--epsilon", "1/3"], 0),
    "witness_extract": (["witness", "extract"] + _TUPLES_Z4 + _CERT_Z4, 0),
    "witness_extract_wrong_length": (
        ["witness", "extract", "--system", Z4, "--a", "chi:0", "--b", "chi:2,3"] + _CERT_Z4,
        1,
    ),
    "witness_extract_not_r_normalizer": (
        ["witness", "extract", "--system", Z4, "--a", "chi:0", "--b", "chi:2,3",
         "--certificate", _input("not_r_normalizer_certificate.json")],
        1,
    ),
    "compare_witness_oracle_exact": (["compare"] + _TUPLES_Z4 + ["--witness", "--oracle"], 0),
    "compare_witness_oracle_float": (
        ["compare", "--float"] + _TUPLES_Z4 + ["--witness", "--oracle"],
        0,
    ),
}

SEMIGROUP_CASES = {
    "semigroup_z2_max_n_2": (["semigroup", "--system", Z2, "--max-n", "2"], 0),
    "semigroup_z3_max_n_3": (["semigroup", "--system", Z3, "--max-n", "3"], 0),
    "semigroup_z2_double_max_n_2": (["semigroup", "--system", Z2_DOUBLE, "--max-n", "2"], 0),
    "semigroup_z4_max_n_1": (["semigroup", "--system", Z4, "--max-n", "1"], 0),
    "semigroup_z4_through_z2_max_n_2": (
        ["semigroup", "--system", _input("z4_through_z2.json"), "--max-n", "2"],
        0,
    ),
    "compare_semigroup_z3": (
        ["compare", "--system", Z3, "--a", "chi:0", "--a", "chi:1", "--b", "chi:1,2",
         "--semigroup", "--max-n", "3"],
        0,
    ),
    "semigroup_budget_error": (
        ["semigroup", "--system", Z3, "--max-n", "3", "--budget", "5"],
        1,
    ),
}


def _check_recording(capsys, case, argv, expected_code):
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


@pytest.mark.parametrize("case", sorted(CASTLE_CASES))
def test_castle_report_matches_recording(capsys, case):
    _check_recording(capsys, case, *CASTLE_CASES[case])


@pytest.mark.parametrize("case", sorted(WITNESS_CASES))
def test_witness_and_compare_report_matches_recording(capsys, case):
    _check_recording(capsys, case, *WITNESS_CASES[case])


@pytest.mark.parametrize("case", sorted(SEMIGROUP_CASES))
def test_semigroup_report_matches_recording(capsys, case):
    _check_recording(capsys, case, *SEMIGROUP_CASES[case])
