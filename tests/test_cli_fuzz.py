"""Malformed input files never escape the CLI as a traceback.

Each command is run in process on mutations of the payloads in
``demos/data``: keys dropped, values swapped for another type, lists
emptied, counts set to zero or below.  Whatever the mutation, ``main``
must return 0, or return 1 with exactly one JSON object
``{"error", "message"}`` on stderr.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynalg.cli import main

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

# A value put in place of a mutated one: each JSON type, empty containers,
# valid labels in the wrong place, and zero or negative counts.  Each draw
# is a fresh copy, so later mutations cannot alias it.
REPLACEMENTS = st.sampled_from(
    [None, True, 0, -1, 2, 1.5, "", "x", "0", "1", "1/0", [], {}, [[]], [0], ["0"]]
).map(copy.deepcopy)


def _load(name):
    return json.loads((DATA / name).read_text())


def _slots(value, path=()):
    """Every (path to a container, key) in a JSON tree."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path, key
        yield from _slots(child, path + (key,))


@st.composite
def mutated(draw, payload):
    """The payload with one to three random mutations."""
    payload = copy.deepcopy(payload)
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(payload))
        if not slots or draw(st.integers(0, 9)) == 0:
            return draw(REPLACEMENTS)
        path, key = draw(st.sampled_from(slots))
        parent = payload
        for step in path:
            parent = parent[step]
        action = draw(st.sampled_from(["drop", "replace", "empty"]))
        if action == "drop":
            del parent[key]
        elif action == "replace":
            parent[key] = draw(REPLACEMENTS)
        else:
            parent[key] = []
    return payload


def _witness_payload():
    return {"rows": [[[["0"], "1", 0]]]}


def _certificate_payload():
    """A valid certificate for a = chi_0, b = chi_1 on Z/2, from the CLI."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(
            [
                "witness", "compile", "--system", str(DATA / "z2.json"),
                "--a", "chi:0", "--b", "chi:1", "--epsilon", "1/2",
            ]
        )
    assert code == 0
    return json.loads(out.getvalue())["certificates"]["certificate"]


# command -> (argv with {name} placeholders for the files, {name: payload})
COMMANDS = {
    "system-check": (["system-check", "--system", "{system}"], {}),
    "compare": (["compare", "--system", "{system}", "--a", "chi:0", "--b", "chi:1"], {}),
    "semigroup": (["semigroup", "--system", "{system}", "--max-n", "1"], {}),
    "witness-compile": (
        [
            "witness", "compile", "--system", "{system}", "--a", "chi:0", "--b", "chi:1",
            "--witness-file", "{witness}",
        ],
        {"witness": _witness_payload()},
    ),
    "witness-extract": (
        [
            "witness", "extract", "--system", "{system}", "--a", "chi:0", "--b", "chi:1",
            "--certificate", "{certificate}",
        ],
        {"certificate": _certificate_payload()},
    ),
    "castle-validate": (
        ["castle", "validate", "--system", "{system}", "--castle", "{castle}"],
        {"castle": _load("castle.json")},
    ),
    "castle-build-ozm": (
        ["castle", "build-ozm", "--system", "{system}", "--data", "{data}"],
        {"data": _load("data.json")},
    ),
    "castle-decompose": (
        ["castle", "decompose", "--system", "{system}", "--data", "{data}"],
        {"data": _load("data.json")},
    ),
    "castle-tzs": (
        ["castle", "tzs", "--system", "{system}", "--instance", "{instance}", "--identity"],
        {"instance": _load("inst.json")},
    ),
}


def _run(tmp, command, system, files):
    """Write the payloads, run the command and check its exit contract."""
    argv_template, _ = COMMANDS[command]
    paths = {}
    for name, payload in dict(files, system=system).items():
        path = tmp / ("%s.json" % name)
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    argv = [arg.format(**paths) for arg in argv_template]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    if code == 1:
        error = json.loads(err.getvalue())
        assert isinstance(error, dict) and set(error) == {"error", "message"}
        assert out.getvalue() == ""
    return code, err.getvalue()


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_valid_demo_payloads_pass(tmp, command):
    system = _load("z2.json") if command != "castle-tzs" else _load("z3.json")
    assert _run(tmp, command, system, COMMANDS[command][1]) == (0, "")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_payloads_exit_cleanly(tmp, command, data):
    system = _load("z2.json") if command != "castle-tzs" else _load("z3.json")
    files = COMMANDS[command][1]
    target = data.draw(st.sampled_from(["system"] + sorted(files)))
    if target == "system":
        system = data.draw(mutated(system))
    else:
        files = dict(files, **{target: data.draw(mutated(files[target]))})
    _run(tmp, command, system, files)


# The malformed inputs that escaped as a traceback before their fix, and
# the typed error each now gives.
REPRODUCTIONS = [
    (
        "system-check",
        "system",
        dict(_load("z2.json"), group={"elements": ["0", "1"], "table": [1, 2]}),
        "ParseError",
    ),
    ("system-check", "system", dict(_load("z2.json"), action=5), "ParseError"),
    ("witness-compile", "witness", {"rows": [[[[], "1", 0]]]}, "ParseError"),
    (
        "witness-extract",
        "certificate",
        {"epsilon": "1/2", "delta": "1/4", "t": {"n": 0, "entries": []}},
        "PreconditionFailed",
    ),
    ("castle-decompose", "data", {"n": 0, "towers": [], "weights": []}, "PreconditionFailed"),
]


@pytest.mark.parametrize("command, target, payload, error", REPRODUCTIONS)
def test_reproductions_give_a_typed_error(tmp, command, target, payload, error):
    system = _load("z2.json")
    files = dict(COMMANDS[command][1])
    if target == "system":
        system = payload
    else:
        files[target] = payload
    code, err = _run(tmp, command, system, files)
    assert code == 1 and json.loads(err)["error"] == error


@pytest.mark.parametrize(
    "command, target",
    [("system-check", "system")]
    + [(command, name) for command in sorted(COMMANDS) for name in sorted(COMMANDS[command][1])],
)
def test_deep_nesting_gives_a_parse_error(tmp, command, target):
    # json.loads gives up on 100,000 open brackets with a RecursionError
    argv_template, files = COMMANDS[command]
    paths = {}
    for name, payload in dict(files, system=_load("z2.json")).items():
        path = tmp / ("deep-%s-%s.json" % (command, name))
        path.write_text("[" * 100_000 if name == target else json.dumps(payload))
        paths[name] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.format(**paths) for arg in argv_template])
    error = json.loads(err.getvalue())
    assert code == 1 and out.getvalue() == ""
    assert error["error"] == "ParseError" and paths[target] in error["message"]
