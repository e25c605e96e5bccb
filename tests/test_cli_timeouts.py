"""Command-line runs that must finish within a wall-clock bound, with their exit status.

Each test runs one ``python -m vilenkin`` child under its bound; a run that
outlives it fails with ``subprocess.TimeoutExpired``.  Most runs must exit
0; a run priced above the CLI's work budget must exit 2 with one config
error line, before any transform.  CI's timeout workflow step runs this
module, so each bound and status is stated here once.
"""

import subprocess
import sys

import pytest
from conftest import child_env

# name -> (bound in seconds, exit status, argv)
RUNS = {
    # a 2^20-cell converge to order 6: the 20-stage forward transform and the
    # L_1 errors on the whole grid; about 0.3 s on a 2-core machine
    "converge_2_20": (
        120,
        0,
        "converge --group 2 --levels 20 --weights riesz --form t --p 1 --n-max 6",
    ),
    # block kernels reach M_9 = 3888; about 1 s on a 2-core machine
    "identity_2_3_9": (
        120, 0, "identity-check --group 2,3 --levels 9 --weights riesz --n-max 20"
    ),
    # 1023 orders, so the abel-mean oracle builds its M_N-cell character rows
    # 4 at a time; about 0.7 s on a 2-core machine
    "identity_2_10": (30, 0, "identity-check --group 2 --levels 10 --weights riesz"),
    # the weight-sum and abel-kernel sides grow with Q_n and n, so their
    # tolerances scale with them; with an absolute 1e-12 this correct run
    # failed (abel-kernel 1.3e-12).  About 4-6.5 s on a 2-core machine, and
    # priced at 8.1e7 cells, under the work budget
    "identity_2_12": (30, 0, "identity-check --group 2 --levels 12 --weights riesz"),
    # constant weights start at n0 = 1, so the Abel oracles' order 1, read at
    # step 0, runs end to end; cesaro:0.5 starts at n0 = 2.  About 0.2 s each
    "identity_constant": (30, 0, "identity-check --group 2,3 --levels 6 --weights constant"),
    "identity_cesaro": (30, 0, "identity-check --group 2,3 --levels 6 --weights cesaro:0.5"),
    # 2000 kernels of band at most 2048 are reduced on their own cells, under
    # a second on a 2-core machine; tiled out to 2^20 cells they took about 30 s
    "fejer_profile_2_20": (
        10,
        0,
        "kernel-profile --group 2 --levels 20 --family fejer --weights riesz --n-max 2000",
    ),
    # every order of a 2^22 grid: priced at 1e13 cells or more, days of work,
    # and refused before f is drawn; each ran until a timeout killed it
    "converge_2_22": (10, 2, "converge --group 2 --levels 22 --weights riesz"),
    "kernel_profile_t_2_22": (
        10, 2, "kernel-profile --group 2 --levels 22 --family t --weights riesz"
    ),
    "identity_2_22": (10, 2, "identity-check --group 2 --levels 22 --weights riesz"),
}


@pytest.mark.parametrize("name", RUNS)
def test_run_finishes_within_its_bound(name, tmp_path):
    seconds, status, line = RUNS[name]
    args = [sys.executable, "-m", "vilenkin", *line.split(), "--out", str(tmp_path / "out.csv")]
    proc = subprocess.run(args, capture_output=True, text=True, env=child_env(), timeout=seconds)
    assert proc.returncode == status, proc.stderr
    if status == 2:
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: "), proc.stderr
