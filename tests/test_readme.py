"""The README's examples run as written: its library tour and every command line.

A README that names a deleted function or flag fails here.  CI's "README
examples run as written" step runs this module.
"""

import re
import shlex
import subprocess
import sys

import pytest
from conftest import ROOT, child_env

README = ROOT / "README.md"
BLOCKS = re.findall(r"```(\w+)\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
COMMAND_LINES = [
    line
    for lang, body in BLOCKS
    if lang == "sh"
    for line in body.splitlines()
    if line.startswith("vilenkin ")
]


def test_library_tour_runs():
    tour = [body for lang, body in BLOCKS if lang == "python"][0]
    exec(compile(tour, str(README), "exec"), {})


def test_readme_has_command_lines():
    assert COMMAND_LINES, "the README has no vilenkin command lines"


@pytest.mark.parametrize("line", COMMAND_LINES, ids=[line.split()[1] for line in COMMAND_LINES])
def test_command_line_exits_zero(line, tmp_path):
    # each line runs as `python -m vilenkin ...`, its CSV written under tmp_path
    out = str(tmp_path / "out.csv")
    args = [sys.executable, "-m", "vilenkin", *shlex.split(line)[1:], "--out", out]
    proc = subprocess.run(args, capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
