import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import dynalg.cli
from dynalg.cli import build_parser, main, parse_scalar, format_scalar
from dynalg import ParseError, RadScalar
from fractions import Fraction

from _support import strip_runtime


def cyclic_system_payload(n):
    labels = [str(k) for k in range(n)]
    return {
        "group": {
            "elements": labels,
            "table": [[str((i + j) % n) for j in range(n)] for i in range(n)],
        },
        "points": labels,
        "action": [[str((g + x) % n) for x in range(n)] for g in range(n)],
    }


@pytest.fixture
def z3_file(tmp_path):
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(cyclic_system_payload(3)))
    return str(path)


@pytest.fixture
def z2_file(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(cyclic_system_payload(2)))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- scalar literals -----------------------------------------------------------


def test_scalar_grammar_roundtrip():
    cases = {
        "3/2": RadScalar(Fraction(3, 2)),
        "-1/2 i": RadScalar(0, Fraction(-1, 2)),
        "1/2 sqrt 2": RadScalar(Fraction(1, 2), 0, 2),
        "2 i sqrt 1/2": RadScalar(0, 2, Fraction(1, 2)),
        "4": RadScalar(4),
    }
    for text, expected in cases.items():
        assert parse_scalar(text) == expected
    for value in cases.values():
        assert parse_scalar(format_scalar(value)) == value


def test_scalar_object_form():
    v = parse_scalar({"re": "1/2", "im": "1/2", "sqrt": "2"})
    assert v == RadScalar(Fraction(1, 2), Fraction(1, 2), 2)
    assert parse_scalar(format_scalar(v)) == v


def test_scalar_bad_literal():
    with pytest.raises(ParseError):
        parse_scalar("one half")


def test_scalar_json_booleans_rejected(capsys, tmp_path, z3_file):
    """JSON true and false are not the ints 1 and 0."""
    for value in (True, False):
        with pytest.raises(ParseError):
            parse_scalar(value)
    func_path = tmp_path / "f.json"
    func_path.write_text(json.dumps([["0", True]]))
    code, out, err = run_cli(
        capsys, ["compare", "--system", z3_file, "--a", "@" + str(func_path), "--b", "chi:1"]
    )
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ParseError", "message": "bad scalar literal True"}


def test_scalar_zero_with_bad_radicand_rejected(capsys, tmp_path, z3_file):
    """The object form checks the radicand of a zero value, as the string
    form "0 sqrt -2" is rejected.  parse_scalar raises the scalar's
    ValueError; the payload parsers turn it into a ParseError."""
    for rad in ("-1", "0"):
        with pytest.raises(ValueError, match="radicand must be positive"):
            parse_scalar({"re": "0", "im": "0", "sqrt": rad})
    func_path = tmp_path / "f.json"
    func_path.write_text(json.dumps([["0", {"re": "0", "im": "0", "sqrt": "-1"}]]))
    code, out, err = run_cli(
        capsys, ["compare", "--system", z3_file, "--a", "@" + str(func_path), "--b", "chi:1"]
    )
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "ParseError",
        "message": "bad function payload: radicand must be positive, got -1",
    }


# -- system-check ----------------------------------------------------------------


def test_system_check_z3(capsys, z3_file):
    code, out, _ = run_cli(capsys, ["system-check", "--system", z3_file])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["free"] and report["result"]["minimal"]
    assert report["result"]["orbits"] == [["0", "1", "2"]]
    assert report["result"]["extreme_measures"] == [["1/3", "1/3", "1/3"]]


def test_system_check_double_swap(capsys, tmp_path):
    payload = {
        "group": {"elements": ["e", "s"], "table": [["e", "s"], ["s", "e"]]},
        "points": ["0", "1", "2", "3"],
        "action": [["0", "1", "2", "3"], ["1", "0", "3", "2"]],
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, ["system-check", "--system", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["free"] and not report["result"]["minimal"]
    assert len(report["result"]["orbits"]) == 2


def test_system_check_malformed(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"group": {"elements": ["e"], "table": [["x"]]}}))
    code, out, err = run_cli(capsys, ["system-check", "--system", str(path)])
    assert code == 1
    assert json.loads(err)["error"] == "ParseError"


# -- compare ------------------------------------------------------------------------


def test_compare_z3(capsys, z3_file):
    code, out, _ = run_cli(
        capsys,
        [
            "compare", "--system", z3_file,
            "--a", "chi:0", "--b", "chi:1,2",
            "--witness", "--oracle",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["subequivalent"] is True
    assert report["result"]["cuntz_oracle"] is True
    assert report["result"]["d_tau"] == [{"a": ["1/3"], "b": ["2/3"]}]
    assert report["certificates"]["witness"]["rows"]


def test_compare_identity(capsys, z3_file):
    code, out, _ = run_cli(
        capsys,
        ["compare", "--system", z3_file, "--a", "chi:0", "--b", "chi:0", "--witness"],
    )
    report = json.loads(out)
    assert report["result"]["subequivalent"] is True
    (row,) = report["certificates"]["witness"]["rows"]
    assert row == [[["0"], "0", 0]]


def test_compare_false_verdict_exit_zero(capsys, z3_file):
    code, out, _ = run_cli(
        capsys,
        ["compare", "--system", z3_file, "--a", "chi:0,1", "--b", "chi:2", "--oracle"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["subequivalent"] is False
    assert report["result"]["cuntz_oracle"] is False


def test_compare_semigroup_section(capsys, z3_file):
    code, out, _ = run_cli(
        capsys,
        [
            "compare", "--system", z3_file,
            "--a", "chi:0", "--b", "chi:1",
            "--semigroup", "--max-n", "2",
        ],
    )
    report = json.loads(out)
    sg = report["result"]["semigroup"]
    assert sg["class_of_a"] == sg["class_of_b"]


def test_compare_comma_labels_are_named_by_file(capsys, tmp_path):
    """chi: splits at commas, so the Klein translation's label (0,1) is an
    unknown label there, named with the whole entry; an @file entry names it."""
    from dynalg import DynSystem, FiniteGroup

    klein = DynSystem.translation(FiniteGroup.klein())
    els = klein.group.elements
    payload = {
        "group": {
            "elements": list(els),
            "table": [[els[g] for g in row] for row in klein.group.table],
        },
        "points": list(klein.points),
        "action": [[klein.points[y] for y in row] for row in klein.act],
    }
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(payload))
    code, _, _ = run_cli(capsys, ["system-check", "--system", str(path)])
    assert code == 0
    code, out, err = run_cli(
        capsys, ["compare", "--system", str(path), "--a", "chi:(0,1)", "--b", "chi:(1,0)"]
    )
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ParseError",
        "message": "unknown point label '(0' in tuple entry 'chi:(0,1)'; chi: splits its "
        "labels at commas, so name a label that contains a comma with an @file entry",
    }
    for name, label in (("a", "(0,1)"), ("b", "(1,0)")):
        (tmp_path / (name + ".json")).write_text(json.dumps([[label, "1"]]))
    code, out, _ = run_cli(
        capsys,
        [
            "compare", "--system", str(path),
            "--a", "@%s" % (tmp_path / "a.json"), "--b", "@%s" % (tmp_path / "b.json"),
        ],
    )
    assert code == 0
    assert json.loads(out)["result"]["subequivalent"] is True


# -- witness commands -----------------------------------------------------------------


def test_witness_roundtrip(capsys, z3_file):
    code, out, _ = run_cli(
        capsys,
        [
            "witness", "roundtrip", "--system", z3_file,
            "--a", "chi:0", "--b", "chi:1,2", "--epsilon", "1/2",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["compiled"] and report["result"]["roundtrip"]
    assert report["certificates"]["certificate"]["delta"] == "1/2"


def test_witness_compile_zero_case(capsys, z3_file):
    code, out, _ = run_cli(
        capsys,
        [
            "witness", "compile", "--system", z3_file,
            "--a", "chi:0", "--b", "chi:1,2", "--epsilon", "2",
        ],
    )
    report = json.loads(out)
    assert report["result"]["compiled"] is True
    assert report["certificates"]["certificate"]["t"]["entries"][0][0] == {"coeffs": []}


def test_witness_extract_roundtrip_via_files(capsys, tmp_path, z3_file):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys,
        [
            "witness", "compile", "--system", z3_file,
            "--a", "chi:0", "--b", "chi:1,2", "--epsilon", "1/2",
        ],
    )
    cert = json.loads(out)["certificates"]["certificate"]
    cert_path.write_text(json.dumps(cert))
    code, out, _ = run_cli(
        capsys,
        [
            "witness", "extract", "--system", z3_file,
            "--a", "chi:0", "--b", "chi:1,2",
            "--certificate", str(cert_path),
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["extracted"] is True
    assert report["certificates"]["witness"]["rows"]


def test_witness_extract_corrupted(capsys, tmp_path, z3_file):
    code, out, _ = run_cli(
        capsys,
        [
            "witness", "compile", "--system", z3_file,
            "--a", "chi:0", "--b", "chi:1,2", "--epsilon", "1/2",
        ],
    )
    cert = json.loads(out)["certificates"]["certificate"]
    cert["delta"] = "1/7"  # breaks the exact identity
    cert_path = tmp_path / "bad.json"
    cert_path.write_text(json.dumps(cert))
    code, out, err = run_cli(
        capsys,
        [
            "witness", "extract", "--system", z3_file,
            "--a", "chi:0", "--b", "chi:1,2",
            "--certificate", str(cert_path),
        ],
    )
    assert code == 1
    assert json.loads(err)["error"] == "PreconditionFailed"


def test_witness_extract_incomplete_certificate(capsys, tmp_path, z3_file):
    code, out, _ = run_cli(
        capsys,
        [
            "witness", "compile", "--system", z3_file,
            "--a", "chi:0", "--b", "chi:1,2", "--epsilon", "1/2",
        ],
    )
    cert = json.loads(out)["certificates"]["certificate"]
    for field in ("epsilon", "delta", "t"):
        partial = {k: v for k, v in cert.items() if k != field}
        cert_path = tmp_path / ("no_%s.json" % field)
        cert_path.write_text(json.dumps(partial))
        code, out, err = run_cli(
            capsys,
            [
                "witness", "extract", "--system", z3_file,
                "--a", "chi:0", "--b", "chi:1,2",
                "--certificate", str(cert_path),
            ],
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ParseError"


# -- castle commands -------------------------------------------------------------------


@pytest.fixture
def ozm_data_file(tmp_path):
    payload = {
        "towers": [{"base": ["0"], "shape": ["0", "1"]}],
        "n": 2,
        "weights": [[["0", "1"]]],
    }
    path = tmp_path / "data.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_castle_validate(capsys, tmp_path, z2_file):
    path = tmp_path / "castle.json"
    path.write_text(json.dumps({"towers": [{"base": ["0"], "shape": ["0", "1"]}]}))
    code, out, _ = run_cli(
        capsys, ["castle", "validate", "--system", z2_file, "--castle", str(path)]
    )
    assert code == 0 and json.loads(out)["result"]["valid"] is True
    path.write_text(json.dumps({"towers": [{"base": ["0", "1"], "shape": ["0", "1"]}]}))
    code, out, _ = run_cli(
        capsys, ["castle", "validate", "--system", z2_file, "--castle", str(path)]
    )
    assert code == 0 and json.loads(out)["result"]["valid"] is False


def test_castle_build_and_decompose(capsys, z2_file, ozm_data_file):
    code, out, _ = run_cli(
        capsys, ["castle", "build-ozm", "--system", z2_file, "--data", ozm_data_file]
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["built"] is True
    assert report["result"]["unit_image_norm"] == pytest.approx(1.0, abs=1e-9)
    code, out, _ = run_cli(
        capsys, ["castle", "decompose", "--system", z2_file, "--data", ozm_data_file]
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["decomposed"] and report["result"]["towers"] == 1
    assert report["certificates"]["data"]["towers"] == [
        {"base": ["0"], "shape": ["0", "1"]}
    ]


def test_castle_tzs_identity(capsys, tmp_path, z3_file):
    inst = {
        "n": 3,
        "epsilon": "1/10",
        "F": [{"coeffs": [["0", [["0", "1"], ["1", "1"], ["2", "1"]]]]}],
        "h": [["0", "1"]],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    code, out, _ = run_cli(
        capsys,
        ["castle", "tzs", "--system", z3_file, "--instance", str(path), "--identity"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["all_pass"] is True


def test_castle_tzs_invalid_instance(capsys, tmp_path, z3_file):
    valid = {
        "n": 3,
        "epsilon": "1/10",
        "F": [],
        "h": [["0", "1"]],
    }
    for field, value in (("epsilon", "0"), ("epsilon", "-1/2"), ("n", 0), ("h", [])):
        inst = dict(valid, **{field: value})
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst))
        code, out, err = run_cli(
            capsys,
            ["castle", "tzs", "--system", z3_file, "--instance", str(path), "--identity"],
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("phases", [5, [5]])
def test_castle_data_bad_phases_rejected(capsys, tmp_path, z2_file, phases):
    data = tmp_path / "data.json"
    data.write_text(json.dumps({
        "towers": [{"base": ["0"], "shape": ["0", "1"]}],
        "n": 2,
        "weights": [[["0", "1"]]],
        "phases": phases,
    }))
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 2, "epsilon": "1/10", "F": [], "h": [["0", "1"]]}))
    for argv in (
        ["castle", "build-ozm", "--system", z2_file, "--data", str(data)],
        ["castle", "decompose", "--system", z2_file, "--data", str(data)],
        ["castle", "tzs", "--system", z2_file, "--instance", str(inst), "--data", str(data)],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("value", [2.9, 3.0, True, float("inf")])
def test_integer_fields_reject_floats_and_booleans(capsys, tmp_path, z2_file, z3_file, value):
    """An integer payload field takes a JSON integer: int() would truncate
    a float, read true as 1 and raise OverflowError on Infinity."""
    compile_argv = [
        "witness", "compile", "--system", z2_file, "--a", "chi:0", "--b", "chi:1",
        "--epsilon", "1/2",
    ]
    code, out, _ = run_cli(capsys, compile_argv)
    cert = json.loads(out)["certificates"]["certificate"]
    cert["t"]["n"] = value
    payloads = {
        "data": {"towers": [{"base": ["0"], "shape": ["0", "1"]}], "n": value, "weights": [[["0", "1"]]]},
        "inst": {"n": value, "epsilon": "1/10", "F": [], "h": [["0", "1"]]},
        "witness": {"rows": [[[["0"], "1", value]]]},
        "cert": cert,
    }
    paths = {}
    for name, payload in payloads.items():
        paths[name] = str(tmp_path / ("%s.json" % name))
        Path(paths[name]).write_text(json.dumps(payload))
    cases = [
        (["castle", "build-ozm", "--system", z2_file, "--data", paths["data"]], "castle data n"),
        (["castle", "tzs", "--system", z3_file, "--instance", paths["inst"], "--identity"], "instance n"),
        (compile_argv + ["--witness-file", paths["witness"]], "witness target index"),
        (
            ["witness", "extract", "--system", z2_file, "--a", "chi:0", "--b", "chi:1",
             "--certificate", paths["cert"]],
            "matrix n",
        ),
    ]
    for argv, field in cases:
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert _single_error(err) == {
            "error": "ParseError",
            "message": "%s must be an integer, got %s" % (field, json.dumps(value)),
        }


# -- semigroup ---------------------------------------------------------------------------


def test_semigroup_command(capsys, z2_file):
    code, out, _ = run_cli(
        capsys, ["semigroup", "--system", z2_file, "--max-n", "1"]
    )
    assert code == 0
    report = json.loads(out)
    # classes: zero, [chi_0] = [chi_1], [chi_{0,1}]
    assert len(report["result"]["classes"]) == 3
    assert report["result"]["almost_unperforated_within_bound"] is True
    # the addition table, each cell from TypeSemigroup.add_classes
    assert report["result"]["addition"] == [[0, 1, 2], [1, None, None], [2, None, None]]


def test_semigroup_trivial_one_point(capsys, tmp_path):
    payload = cyclic_system_payload(1)
    path = tmp_path / "one.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(
        capsys, ["semigroup", "--system", str(path), "--max-n", "2"]
    )
    report = json.loads(out)
    assert len(report["result"]["classes"]) == 3


def test_semigroup_budget_error(capsys, z3_file):
    code, out, err = run_cli(
        capsys, ["semigroup", "--system", z3_file, "--max-n", "3", "--budget", "5"]
    )
    assert code == 1
    assert json.loads(err)["error"] == "ResourceBound"
    # the candidate count is a closed form, so a huge --max-n is refused at once
    code, out, err = run_cli(capsys, ["semigroup", "--system", z3_file, "--max-n", str(10**12)])
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ResourceBound",
        "message": "semigroup enumeration needs %d candidates, budget is 500000"
        % math.comb(7 + 10**12, 7),
    }


def test_castle_data_with_huge_n_and_no_phases(capsys, tmp_path, z2_file):
    # demos/data/data.json without its phases; building n trivial phases
    # per weight before validate would exhaust memory
    payload = {"towers": [{"base": ["0"], "shape": ["0", "1"]}], "n": 10**9,
               "weights": [[["0", "3/4"]]]}
    data = tmp_path / "data.json"
    data.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, ["castle", "build-ozm", "--system", z2_file, "--data", str(data)])
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "InvalidCastleData",
        "message": "tower shape size differs from n",
    }


# -- determinism ---------------------------------------------------------------------------


def test_reports_byte_identical_modulo_runtime(capsys, z3_file):
    argv = [
        "compare", "--system", z3_file,
        "--a", "chi:0", "--b", "chi:1,2",
        "--witness", "--oracle",
    ]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert strip_runtime(out1) == strip_runtime(out2)


def test_digest_identifies_the_inputs(capsys, tmp_path, z3_file):
    """Two runs whose inputs differ in castle data, epsilon, the
    ``--max-n`` of a semigroup table or the contents of an ``@file`` entry
    print different digests; two paths to the same contents print the
    same one."""

    def digest(argv):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0, argv
        return json.loads(out)["inputs"]["digest"]

    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 3, "epsilon": "1/10", "F": [], "h": [["0", "1"]]}))
    data = tmp_path / "data.json"
    data.write_text(json.dumps({
        "towers": [{"base": ["0"], "shape": ["0", "1", "2"]}], "n": 3, "weights": [[["0", "1"]]],
    }))
    tzs = ["castle", "tzs", "--system", z3_file, "--instance", str(inst)]
    assert digest(tzs + ["--data", str(data)]) != digest(tzs + ["--identity"])

    compile_ = ["witness", "compile", "--system", z3_file, "--a", "chi:0", "--b", "chi:1,2"]
    assert digest(compile_ + ["--epsilon", "1/3"]) != digest(compile_ + ["--epsilon", "1/2"])
    assert digest(compile_ + ["--epsilon", "1/2"]) == digest(compile_)

    semigroup = ["compare", "--system", z3_file, "--a", "chi:0", "--b", "chi:1,2", "--semigroup"]
    assert digest(semigroup + ["--max-n", "1"]) != digest(semigroup + ["--max-n", "2"])

    func = tmp_path / "f.json"
    copy = tmp_path / "copy.json"
    compare = ["compare", "--system", z3_file, "--b", "chi:0"]
    func.write_text(json.dumps([["0", "1/2"]]))
    first = digest(compare + ["--a", "@" + str(func)])
    copy.write_text(func.read_text())
    assert digest(compare + ["--a", "@" + str(copy)]) == first
    func.write_text(json.dumps([["0", "1/3"]]))
    assert digest(compare + ["--a", "@" + str(func)]) != first


def test_repeated_calls_share_no_state(capsys, z3_file):
    # main parses with one parser per process; flags, appended tuple
    # entries and defaults of one call must not reach the next
    plain = ["compare", "--system", z3_file, "--a", "chi:0", "--b", "chi:1,2"]
    loaded = [
        "compare", "--system", z3_file, "--a", "chi:0", "--a", "chi:1", "--b", "chi:1,2",
        "--witness", "--oracle", "--semigroup", "--max-n", "1",
        "--float", "--budget", "70",
    ]
    _, first, _ = run_cli(capsys, plain)
    code, _, _ = run_cli(capsys, loaded)
    assert code == 0
    _, again, _ = run_cli(capsys, plain)
    assert strip_runtime(again) == strip_runtime(first)
    report = json.loads(again)
    assert report["params"] == {"mode": "exact", "tolerance": 1e-9}
    assert report["certificates"] == {} and "cuntz_oracle" not in report["result"]
    assert vars(dynalg.cli._parser().parse_args(plain)) == vars(build_parser().parse_args(plain))


def test_cached_parser_help_matches_a_fresh_parser(capsys):
    for argv in (
        ["--help"], ["castle", "--help"], ["compare", "--help"],
        ["castle", "tzs", "--help"], ["witness", "extract", "--help"],
    ):
        with pytest.raises(SystemExit):
            main(argv)
        cached = capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert capsys.readouterr().out == cached


def test_json_out_file(tmp_path, capsys, z3_file):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        ["system-check", "--system", z3_file, "--json", str(out_path)],
    )
    assert code == 0
    assert json.loads(out_path.read_text()) == json.loads(out)


def test_float_mode_flag(capsys, z3_file):
    code, out, _ = run_cli(
        capsys,
        ["compare", "--system", z3_file, "--a", "chi:0", "--b", "chi:1,2", "--float"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["params"]["mode"] == "float"
    assert report["result"]["subequivalent"] is True


def test_console_entry_point(z3_file):
    proc = subprocess.run(
        [sys.executable, "-m", "dynalg.cli", "system-check", "--system", z3_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["free"] is True


def test_closed_stdout_exits_one_without_a_traceback():
    # the 77 KB report overfills the pipe, so the write after the reader
    # closes it fails whatever the timing (``... | head -c 10``)
    system = Path(__file__).resolve().parent.parent / "demos" / "data" / "z2_double.json"
    with subprocess.Popen(
        [sys.executable, "-m", "dynalg.cli", "semigroup", "--system", str(system), "--max-n", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    obj = _single_error(err)
    assert obj["error"] == "ParseError" and "standard output" in obj["message"]


def test_semigroup_max_n_zero(capsys, z2_file):
    code, out, _ = run_cli(capsys, ["semigroup", "--system", z2_file, "--max-n", "0"])
    assert code == 0
    report = json.loads(out)
    # only the zero class; no nonzero generators enter the table
    assert report["result"]["classes"] == [[[]]]


def test_negative_max_n_rejected(capsys, z2_file):
    for argv in (
        ["semigroup", "--system", z2_file, "--max-n", "-1"],
        ["compare", "--system", z2_file, "--a", "chi:0", "--b", "chi:1",
         "--semigroup", "--max-n", "-1"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ParseError"


def test_float_mode_element_file(capsys, tmp_path, z3_file):
    func_path = tmp_path / "f.json"
    func_path.write_text(json.dumps([["0", "1/2 sqrt 2"], ["1", "1/3"]]))
    code, out, _ = run_cli(
        capsys,
        [
            "compare", "--system", z3_file, "--float",
            "--a", "@" + str(func_path), "--b", "chi:0,1,2",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["subequivalent"] is True
    assert report["result"]["d_tau"][0]["a"] == ["2/3"]


def test_missing_required_file_args(capsys, z2_file):
    for argv in (
        ["witness", "extract", "--system", z2_file, "--a", "chi:0", "--b", "chi:1"],
        ["castle", "validate", "--system", z2_file],
        ["castle", "build-ozm", "--system", z2_file],
        ["castle", "decompose", "--system", z2_file],
        ["castle", "tzs", "--system", z2_file],
    ):
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert json.loads(err)["error"] == "ParseError"


def test_bad_tolerance_and_budget_rejected(capsys, z2_file):
    code, out, err = run_cli(capsys, ["semigroup", "--system", z2_file, "--budget", "-1"])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ParseError"
    # a zero budget passes the flag check and is the one applied
    code, out, err = run_cli(capsys, ["semigroup", "--system", z2_file, "--budget", "0"])
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "ResourceBound",
        "message": "semigroup enumeration needs 10 candidates, budget is 0",
    }
    # compare applies --budget and --max-n with --semigroup only
    compare = ["compare", "--system", z2_file, "--a", "chi:0", "--b", "chi:1"]
    code, out, err = run_cli(capsys, compare + ["--semigroup", "--budget", "0"])
    assert code == 1 and out == ""
    assert json.loads(err)["message"] == "semigroup enumeration needs 10 candidates, budget is 0"
    code, out, _ = run_cli(capsys, compare + ["--semigroup"])
    assert code == 0 and json.loads(out)["result"]["semigroup"]["classes"] == 5
    for flag, value in (("--budget", "0"), ("--max-n", "1"), ("--budget", "-1")):
        # refused before any file is read, the system file too
        argv = ["compare", "--system", "/nonexistent.json", "--a", "chi:0", "--b", "chi:1"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: dynalg compare")
        assert "argument %s: not allowed without argument --semigroup" % flag in captured.err
    # the tolerance is fixed: --tolerance is no longer an option; --float
    # and --budget only where scalars are parsed or a semigroup is built;
    # castle validate reads no scalars, and castle tzs takes --data or
    # --identity, not both
    for argv, message in (
        (["system-check", "--tolerance", "0"], "unrecognized arguments: --tolerance 0"),
        (["semigroup", "--float"], "unrecognized arguments: --float"),
        (["system-check", "--float", "--budget", "3"], "unrecognized arguments: --float --budget 3"),
        (["castle", "validate", "--float"], "unrecognized arguments: --float"),
        (["castle", "tzs", "--instance", z2_file, "--identity", "--data", z2_file],
         "argument --data: not allowed with argument --identity"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--system", z2_file])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def _single_error(err):
    """The one JSON error object on standard error."""
    lines = err.splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert set(obj) == {"error", "message"}
    return obj


def test_non_utf8_input_rejected(capsys, tmp_path, z3_file):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    for argv in (
        ["system-check", "--system", str(bad)],
        ["compare", "--system", z3_file, "--a", "@" + str(bad), "--b", "chi:0"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        obj = _single_error(err)
        assert obj["error"] == "ParseError"
        assert str(bad) in obj["message"]


def test_unwritable_json_out_rejected(capsys, tmp_path, z3_file):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        capsys, ["system-check", "--system", z3_file, "--json", str(target)]
    )
    assert code == 1 and out == ""
    obj = _single_error(err)
    assert obj["error"] == "ParseError"
    assert str(target) in obj["message"]
    assert not target.exists()


def test_huge_radicands_split_or_refused_at_once(capsys, tmp_path, z3_file):
    # sqrt(1 - 10**-400) has a radicand that bounded trial division cannot
    # split; it is refused instead of factored for hours
    code, out, err = run_cli(capsys, [
        "witness", "compile", "--system", z3_file, "--a", "chi:0", "--b", "chi:1,2",
        "--epsilon", "1e-400",
    ])
    assert code == 1 and out == ""
    assert _single_error(err)["error"] == "ResourceBound"
    # a prime radicand past the last trial divisor splits: it lies below
    # that divisor's cube, so it has at most two prime factors
    entry = tmp_path / "f.json"
    entry.write_text(json.dumps([["0", "1 sqrt 1000000000000000003"]]))
    code, out, err = run_cli(
        capsys, ["compare", "--system", z3_file, "--a", "@" + str(entry), "--b", "chi:1,2"]
    )
    assert code == 0 and err == ""
    assert json.loads(out)["result"]["subequivalent"] is True


HUGE = "1" + "0" * 400  # an exact literal past the largest float


def _tzs_instance_file(tmp_path, coefficient="1", epsilon="1/10"):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "n": 3,
        "epsilon": epsilon,
        "F": [{"coeffs": [["0", [["0", coefficient], ["1", "1"], ["2", "1"]]]]}],
        "h": [["0", "1"]],
    }))
    return str(path)


def test_castle_tzs_coefficient_outside_float_range(capsys, tmp_path, z3_file):
    # the commutator norms of condition (iii) convert F to floats
    inst = _tzs_instance_file(tmp_path, coefficient=HUGE)
    code, out, err = run_cli(
        capsys, ["castle", "tzs", "--system", z3_file, "--instance", inst, "--identity"]
    )
    assert code == 1 and out == ""
    assert _single_error(err) == {
        "error": "ExactnessError", "message": "exact value outside float range",
    }


def test_castle_tzs_epsilon_outside_float_range(capsys, tmp_path, z3_file):
    inst = _tzs_instance_file(tmp_path, epsilon=HUGE)
    code, out, err = run_cli(
        capsys, ["castle", "tzs", "--system", z3_file, "--instance", inst, "--identity"]
    )
    assert code == 1 and out == ""
    assert _single_error(err) == {
        "error": "ParseError",
        "message": "bad instance payload: tolerance is outside float range",
    }


def test_compare_float_literal_outside_float_range(capsys, tmp_path, z3_file):
    entry = tmp_path / "f.json"
    entry.write_text(json.dumps([["0", HUGE], ["1", "1"]]))
    code, out, err = run_cli(capsys, [
        "compare", "--system", z3_file, "--float",
        "--a", "@" + str(entry), "--b", "chi:0,1,2",
    ])
    assert code == 1 and out == ""
    assert _single_error(err) == {
        "error": "ExactnessError", "message": "exact value outside float range",
    }


# -- error precedence and input reads ----------------------------------------------------


def _expected_error(error, message):
    return json.dumps({"error": error, "message": message}) + "\n"


def test_error_precedence(capsys, tmp_path, z2_file, z3_file):
    # flag checks come before any file is read: budget first, then
    # --max-n (semigroup always, compare only with --semigroup); a missing
    # file flag is reported only after the system file has loaded and
    # validated
    missing = str(tmp_path / "missing.json")
    no_file = "cannot read %s: [Errno 2] No such file or directory: %r" % (missing, missing)
    inst = str(tmp_path / "inst.json")
    Path(inst).write_text(json.dumps({"n": 3, "epsilon": "1/10", "F": [], "h": [["0", "1"]]}))
    cases = [
        (["semigroup", "--system", missing, "--max-n", "-1"],
         ("ParseError", "--max-n must be nonnegative, got -1")),
        (["semigroup", "--system", missing, "--max-n", "-1", "--budget", "-1"],
         ("ParseError", "--budget must be nonnegative, got -1")),
        (["compare", "--system", missing, "--a", "chi:0", "--b", "chi:1",
          "--semigroup", "--max-n", "-1"],
         ("ParseError", "--max-n must be nonnegative, got -1")),
        (["castle", "validate", "--system", missing], ("ParseError", no_file)),
        (["witness", "extract", "--system", missing, "--a", "chi:0", "--b", "chi:1"],
         ("ParseError", no_file)),
        (["castle", "validate", "--system", z2_file],
         ("ParseError", "castle validate needs --castle")),
        (["castle", "build-ozm", "--system", z2_file],
         ("ParseError", "castle build-ozm needs --data")),
        (["castle", "decompose", "--system", z2_file],
         ("ParseError", "castle decompose needs --data")),
        (["castle", "tzs", "--system", z2_file],
         ("ParseError", "castle tzs needs --instance")),
        (["castle", "tzs", "--system", z3_file, "--instance", inst],
         ("ParseError", "castle tzs needs --data or --identity")),
        (["castle", "tzs", "--system", z3_file, "--instance", missing],
         ("ParseError", no_file)),
        (["witness", "extract", "--system", z2_file, "--a", "chi:0", "--b", "chi:1"],
         ("ParseError", "witness extract needs --certificate")),
    ]
    for argv, expected in cases:
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (1, "", _expected_error(*expected)), argv
    # without --semigroup, compare refuses --max-n before checking its value
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--system", z2_file, "--a", "chi:0", "--b", "chi:1", "--max-n", "-1"])
    assert exc.value.code == 2
    assert "argument --max-n: not allowed without argument --semigroup" in capsys.readouterr().err


def test_each_input_file_read_once(capsys, tmp_path, monkeypatch, z3_file):
    reads = []
    load_json = dynalg.cli._load_json

    def counting(path):
        reads.append(path)
        return load_json(path)

    monkeypatch.setattr(dynalg.cli, "_load_json", counting)
    func = tmp_path / "f.json"
    func.write_text(json.dumps([["0", "1/2"]]))
    castle = tmp_path / "castle.json"
    castle.write_text(json.dumps({"towers": [{"base": ["0"], "shape": ["0", "1", "2"]}]}))
    data = tmp_path / "data.json"
    data.write_text(json.dumps({
        "towers": [{"base": ["0"], "shape": ["0", "1", "2"]}], "n": 3, "weights": [[["0", "1"]]],
    }))
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 3, "epsilon": "1/10", "F": [], "h": [["0", "1"]]}))
    tuples = ["--system", z3_file, "--a", "chi:0", "--b", "chi:1,2"]

    def run(argv, files):
        reads.clear()
        code, out, _ = run_cli(capsys, argv)
        assert code == 0, argv
        assert sorted(reads) == sorted([z3_file] + [str(f) for f in files]), argv
        return json.loads(out)

    report = run(["compare"] + tuples + ["--witness", "--semigroup"], [])
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(report["certificates"]["witness"]))
    report = run(["witness", "compile"] + tuples + ["--witness-file", str(witness)], [witness])
    certificate = tmp_path / "certificate.json"
    certificate.write_text(json.dumps(report["certificates"]["certificate"]))
    run(["witness", "extract"] + tuples + ["--certificate", str(certificate)], [certificate])
    run(["witness", "roundtrip"] + tuples, [])
    run(["system-check", "--system", z3_file], [])
    run(["compare", "--system", z3_file, "--a", "@" + str(func), "--b", "chi:0"], [func])
    run(["semigroup", "--system", z3_file, "--max-n", "1"], [])
    run(["castle", "validate", "--system", z3_file, "--castle", str(castle)], [castle])
    for verb in ("build-ozm", "decompose"):
        run(["castle", verb, "--system", z3_file, "--data", str(data)], [data])
    run(["castle", "tzs", "--system", z3_file, "--instance", str(inst), "--identity"], [inst])
    run(["castle", "tzs", "--system", z3_file, "--instance", str(inst), "--data", str(data)],
        [inst, data])
