"""Every command of the README's command-line block runs and exits 0,
and the README's flag table is the set of flags each verb accepts.

The block's lines start with ``dynalg``; each runs as
``python -m dynalg.cli`` from the root of the checkout, so a renamed
flag, verb or demo data file shows here.  ``test_console_script.py``
runs them again through the installed ``dynalg`` script.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from dynalg.cli import main

ROOT = Path(__file__).resolve().parent.parent


def readme_commands():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("dynalg ")]


def test_readme_block_found():
    assert len(readme_commands()) >= 8


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_exits_zero(line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = shlex.split(line)[1:]
    proc = subprocess.run(
        [sys.executable] + ["-O"] * sys.flags.optimize + ["-m", "dynalg.cli"] + argv,
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def readme_flag_table():
    """{verb argv: flags} from the README's table, one entry per verb."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    table = section.split("| command | flags |", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        if not line.startswith("| `"):
            continue
        names, flags = line.strip("|").split("|")
        names = re.findall(r"`([^`]+)`", names)
        command = names[0].split()[:1]
        verbs = [names[0].split()[1:]] + [[name] for name in names[1:]]
        for verb in verbs:
            rows[" ".join(command + verb)] = set(re.findall(r"--[a-z][a-z-]*", flags))
    return rows


FLAG_TABLE = readme_flag_table()
# the value each flag that takes one is given; a file is one that is missing
FLAG_VALUES = {
    "--a": "chi:0", "--b": "chi:1", "--max-n": "1", "--budget": "100", "--epsilon": "1/2",
    "--castle": None, "--data": None, "--instance": None, "--certificate": None,
    "--witness-file": None,
}
SWITCHES = {"--witness", "--oracle", "--semigroup", "--exact", "--float", "--identity"}


def test_flag_table_found():
    assert len(FLAG_TABLE) == 10
    assert set().union(*FLAG_TABLE.values()) == set(FLAG_VALUES) | SWITCHES


@pytest.mark.parametrize(
    "verb, flag",
    [(verb, flag) for verb in FLAG_TABLE for flag in sorted(set(FLAG_VALUES) | SWITCHES)],
)
def test_verb_accepts_exactly_the_flags_of_its_row(capsys, tmp_path, verb, flag):
    argv = verb.split() + ["--system", str(ROOT / "demos" / "data" / "z2.json")]
    if "--a" in FLAG_TABLE[verb]:
        argv += ["--a", "chi:0", "--b", "chi:1"]
    if flag in ("--max-n", "--budget") and "--semigroup" in FLAG_TABLE[verb]:
        argv.append("--semigroup")  # compare applies them only with it
    argv.append(flag)
    if flag in FLAG_VALUES:
        argv.append(FLAG_VALUES[flag] or str(tmp_path / "missing.json"))
    if flag in FLAG_TABLE[verb]:
        # accepted: the run computes a report or stops on a JSON error
        assert main(argv) in (0, 1)
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: %s" % flag in captured.err


@pytest.mark.parametrize(
    "argv, refused",
    [
        ("castle build-ozm --system demos/data/z2.json --data demos/data/data.json "
         "--castle /nonexistent.json --identity --instance /nonexistent.json",
         "--castle /nonexistent.json --identity --instance /nonexistent.json"),
        ("witness compile --system demos/data/z3.json --a chi:0 --b chi:1,2 "
         "--certificate /nonexistent.json", "--certificate /nonexistent.json"),
        ("witness extract --system demos/data/z3.json --a chi:0 --b chi:1,2 "
         "--epsilon 1/3 --witness-file x", "--epsilon 1/3 --witness-file x"),
        ("witness extract --system demos/data/z3.json --a chi:0 --b chi:1,2 "
         "--certificate /nonexistent.json --epsilon 1/3", "--epsilon 1/3"),
    ],
)
def test_flags_a_verb_does_not_read_are_refused(capsys, monkeypatch, argv, refused):
    monkeypatch.chdir(ROOT)
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.endswith("unrecognized arguments: %s\n" % refused)
