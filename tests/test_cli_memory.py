"""Peak memory of command-line runs on large grids.

Each run is one ``python -m vilenkin`` child, and os.wait4 reads its peak
resident set (ru_maxrss, KiB on Linux).  The bounds are stated above a bare
import of what the CLI loads, measured the same way, so they hold whatever
the interpreter and numpy take by themselves.  A run that draws no function
must also end without numpy.random loaded.  CI's memory workflow step runs
this module against the installed package, so each bound is stated here once.
"""

import os
import subprocess
import sys

import pytest
from conftest import child_env

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")

ENV = child_env(OPENBLAS_NUM_THREADS="1")


def _run(*argv: str) -> tuple[int, str, float]:
    """(exit code, stderr, peak RSS in MiB) of one child process."""
    pipes = {"stdout": subprocess.DEVNULL, "stderr": subprocess.PIPE}
    with subprocess.Popen(argv, env=ENV, **pipes) as child:
        err = child.stderr.read().decode()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return child.returncode, err, usage.ru_maxrss / 1024


@pytest.fixture(scope="module")
def bare_import() -> float:
    """Peak MiB of a child that only imports what the CLI loads."""
    code, err, peak = _run(sys.executable, "-c", "import vilenkin.cli, numpy.random")
    assert code == 0, err
    return peak


# f is a converge job's only grid-sized array (16 MiB): its L_p errors and its
# seeded draws stream through small buffers.  At p = 1, 2.5, inf and 1000 (the
# plain, power and max leaves, and the peak-rescaled ones, whose sums
# overflow) a 2^20-cell converge is about 18 MiB above the bare import on a
# 2-core Linux box, where M_N-float draw and |g - f|^p buffers made it 26 MiB.
# classify-weights at n-max 2^20 is about 60 MiB above it there, and was
# 107 MiB while the weight sums were built from a weight array of twice their
# length.
LARGE_RUNS = {
    **{
        f"converge_p_{p}": (
            21,
            "converge --group 2 --levels 20 --weights riesz --form t"
            f" --p {p} --n-max 6 --function random:1",
        )
        for p in ("1", "2.5", "inf", "1000")
    },
    "classify_2_20": (80, "classify-weights --weights logpow:0.5 --n-max 1048576"),
}


@pytest.mark.parametrize("name", LARGE_RUNS)
def test_large_run_stays_within_its_memory_bound(name, bare_import, tmp_path):
    excess_mib, line = LARGE_RUNS[name]
    out = str(tmp_path / "out.csv")
    code, err, peak = _run(sys.executable, "-m", "vilenkin", *line.split(), "--out", out)
    assert code == 0, err
    assert peak - bare_import < excess_mib, f"{peak:.1f} MiB against a {bare_import:.1f} MiB import"


# A bad --p, --form, --point, --family or --tail-rank was checked only after
# the 4M-entry order list (and for converge the 64 MiB f) was built, and a bad
# --function only after that list: 0.3-0.6 s and 190-260 MiB peak RSS on a
# 2-core Linux box.  Each must exit 2 with one config error line and peak
# below the bare import plus 8 MiB (about 29 MiB against a 34 MiB import
# there).  Only refused argv belong here: a valid 2^22 converge runs for days,
# so each child runs under `timeout 10`.
REFUSED = [
    "converge --p nan",
    "converge --form bogus",
    "converge --point 9",
    "kernel-profile --family bogus",
    "kernel-profile --family t --tail-rank 99",
    "converge --function mystery",
    "identity-check --function mystery",
]


@pytest.mark.parametrize("line", REFUSED)
def test_refusal_on_a_huge_grid_comes_before_any_work(line, bare_import, tmp_path):
    grid = ["--group", "2", "--levels", "22", "--weights", "riesz"]
    grid += ["--out", str(tmp_path / "out.csv")]
    code, err, peak = _run("timeout", "10", sys.executable, "-m", "vilenkin", *line.split(), *grid)
    assert code == 2, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), err
    assert peak < bare_import + 8, f"{peak:.1f} MiB against a {bare_import:.1f} MiB import"


# A run that draws no function must not load numpy.random: on a 2-core Linux
# box `import vilenkin.cli, numpy.random` peaks at 34.3 MiB against 28.9
# without numpy.random, 3.4 MiB of that OpenSSL, which numpy.random loads
# through secrets.  Each child runs main() in process and then reads
# sys.modules.
NO_DRAW = {
    "kernel-profile": "kernel-profile --group 2,3 --levels 6 --family t --weights riesz",
    "classify-weights": "classify-weights --weights logpow:0.5",
    "bench-transform-constant": "bench-transform --group 2,3 --levels 6 --function constant",
}
_MAIN_THEN_MODULES = (
    "import sys\n"
    "from vilenkin.cli import main\n"
    "status = main(sys.argv[1:])\n"
    "assert 'numpy.random' not in sys.modules, 'the run loaded numpy.random'\n"
    "raise SystemExit(status)\n"
)


@pytest.mark.parametrize("name", NO_DRAW)
def test_a_run_that_draws_no_function_never_loads_numpy_random(name, tmp_path):
    out = str(tmp_path / "out.csv")
    code, err, _ = _run(sys.executable, "-c", _MAIN_THEN_MODULES, *NO_DRAW[name].split(), "--out", out)
    assert code == 0, err
