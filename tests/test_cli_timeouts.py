"""Command-line runs that must finish within a wall-clock bound and exit 0.

Each test runs one ``python -m vilenkin`` child under its bound; a run that
outlives it fails with ``subprocess.TimeoutExpired``.  CI's timed workflow
steps run these tests, so each bound is stated here once.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vilenkin

RUNS = {
    # 1023 orders, so the abel-mean oracle builds its M_N-cell character rows
    # 4 at a time; about 0.7 s on a 2-core machine
    "identity_2_10": (30, "identity-check --group 2 --levels 10 --weights riesz"),
    # the weight-sum and abel-kernel sides grow with Q_n and n, so their
    # tolerances scale with them; with an absolute 1e-12 this correct run
    # failed (abel-kernel 1.3e-12).  About 4-6.5 s on a 2-core machine
    "identity_2_12": (30, "identity-check --group 2 --levels 12 --weights riesz"),
    # 2000 kernels of band at most 2048 are reduced on their own cells, under
    # a second on a 2-core machine; tiled out to 2^20 cells they took about 30 s
    "fejer_profile_2_20": (
        10,
        "kernel-profile --group 2 --levels 20 --family fejer --weights riesz --n-max 2000",
    ),
}


@pytest.mark.parametrize("name", RUNS)
def test_run_finishes_within_its_bound(name, tmp_path):
    seconds, line = RUNS[name]
    path = [str(Path(vilenkin.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    args = [sys.executable, "-m", "vilenkin", *line.split(), "--out", str(tmp_path / "out.csv")]
    proc = subprocess.run(args, capture_output=True, text=True, env=env, timeout=seconds)
    assert proc.returncode == 0, proc.stderr
