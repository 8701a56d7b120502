"""Every command of the README's command-line block runs and exits 0.

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
