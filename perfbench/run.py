"""End-to-end and per-layer benchmark of the vilenkin command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Every job is a fresh ``python -m vilenkin <subcommand> ...`` child, the way
users run the CLI, so every job starts with cold caches.  Jobs run in rounds
of ``CLIENTS`` (at most ``nproc``) started together, round after round, for
``--seconds`` seconds and at least ``MIN_JOBS`` jobs, so that ``job_tail_rel``
exists.  A round of ``perfbench/reference.py`` children, a fixed job that does
not use vilenkin, and a round of bare ``import vilenkin`` interpreters run
before the first round and after every round.  Each job's time is reported as
a multiple of the mean reference time of the rounds around it, which cancels
most of the host's speed drift; the import times, scaled the same way, give
``setup_s``.  Job inputs
(``--function random:<s>``) and the CSV rows chosen for checking come from
``--seed`` and the job index only.  Every job's CSV is checked after the timed
window; a non-zero exit, a timeout or a mismatch counts the job as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced jobs with jobs run through ``perfbench/tracing.py``, which wraps the
public functions of every layer module, and reports per-layer metrics per
traced job plus the tracing overhead.  ``--selftest`` runs every workload at a
tiny size in both modes and requires two traced runs on one seed to give
identical counts.  The last line of stdout is one JSON object.  See
``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.py"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

NPROC = len(os.sched_getaffinity(0))
CLIENTS = min(2, NPROC)
BLAS_THREADS = max(1, NPROC // CLIENTS)

TAIL_BEYOND = 10  # job_tail_rel is the highest percentile with this many jobs beyond it
# TAIL_BEYOND + 1 jobs make job_tail_rel exist; 14 make it the fourth fastest
# job at least, so it is not decided by the one or two fastest jobs of a run,
# and keep an `identity` run of 14 jobs near 50 s.
MIN_JOBS = 14
TRACE_MIN_JOBS = 4  # two traced and two untraced
HOST_TIMEOUT_S = 10.0  # for a reference or bare-import child
# setup_s is the import time scaled to a host on which the reference job takes
# this long, about its median wall time on the recorded machine, so that it
# stays in seconds while the host's drift cancels as it does for the jobs.
REF_NOMINAL_S = 0.6
JOB_TIMEOUT_S = 45.0
LAUNCH_CUTOFF_S = 90.0  # no job starts later than this after the window opens
CHECK_TOL = 1e-12

# Riesz logarithmic weights have q_0 = 0, so Q_n > 0 and the means exist from
# order 2 on; both subcommands start their order sweeps there.
FIRST_ORDER = 2


@dataclass(frozen=True)
class Job:
    """One CLI invocation shape; the function seed and output vary per job."""

    command: str
    pattern: tuple[int, ...]
    levels: int
    n_max: int | None = None
    extra: tuple[str, ...] = ()

    @property
    def places(self) -> list[int]:
        M = [1]
        for k in range(self.levels):
            M.append(M[-1] * self.pattern[k % len(self.pattern)])
        return M

    @property
    def top_order(self) -> int:
        return self.n_max if self.n_max is not None else self.places[-1]

    def argv(self, fn_seed: int, out: Path) -> list[str]:
        args = [
            self.command,
            "--group", ",".join(map(str, self.pattern)),
            "--levels", str(self.levels),
            "--weights", "riesz",
            *self.extra,
        ]
        if self.n_max is not None:
            args += ["--n-max", str(self.n_max)]
        return args + ["--function", f"random:{fn_seed}", "--out", str(out)]


_CONVERGE_T = ("--form", "t", "--p", "1")

# name -> (full-size job, tiny job for --selftest)
WORKLOADS = {
    "sweep": (
        Job("converge", (2, 3), 7, extra=_CONVERGE_T),
        Job("converge", (2, 3), 3, extra=_CONVERGE_T),
    ),
    "identity": (
        Job("identity-check", (2, 3), 6),
        Job("identity-check", (2, 3), 3),
    ),
    "large-grid": (
        Job("converge", (2,), 20, n_max=6, extra=_CONVERGE_T),
        Job("converge", (2,), 8, n_max=6, extra=_CONVERGE_T),
    ),
}

# Functions whose calls and self time are reported, by layer.
REPORTED = {
    "transform": ("forward", "inverse", "character_row", "norm"),
    "group": ("digit_table",),
    "kernels": ("fejer", "dirichlet", "identity_residual", "l1_profile"),
    "means": ("t_mean", "norlund_mean"),
    "points": ("convergence_profile",),
}


@dataclass
class JobRun:
    index: int
    fn_seed: int
    pick: int  # which CSV row the check recomputes
    traced: bool
    out: Path
    spans: Path
    stderr: Path
    wall_s: float = 0.0
    ref_s: float = 0.0  # mean reference wall time of the rounds before and after
    rss_kb: int = 0
    code: int | None = None  # None when the job timed out
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def make_run(workdir: Path, seed: int, index: int, traced: bool) -> JobRun:
    rng = random.Random(seed * 1_000_003 + index)
    return JobRun(
        index=index,
        fn_seed=rng.randrange(2**31),
        pick=rng.randrange(2**31),
        traced=traced,
        out=workdir / f"job{index}.csv",
        spans=workdir / f"job{index}.spans.json",
        stderr=workdir / f"job{index}.err",
    )


def _kill(proc: subprocess.Popen) -> None:
    # Popen.kill() polls first, and polling would reap the child before
    # os.wait4 can read its resource usage.
    os.kill(proc.pid, signal.SIGKILL)


class Runner:
    """Spawns children, enforces timeouts and can kill every live child."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.live: set[subprocess.Popen] = set()
        self.lock = threading.Lock()

    def spawn_and_wait(
        self, cmd: list[str], stderr: Path, timeout: float
    ) -> tuple[float, int, int | None]:
        """(wall seconds from spawn to exit, peak RSS in KiB, exit code or None)."""
        timed_out = threading.Event()
        with open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.workdir, env=self.env, stdout=subprocess.DEVNULL, stderr=err
            )
        with self.lock:
            self.live.add(proc)

        def expire() -> None:
            with self.lock:
                if proc in self.live:  # not yet reaped, so the pid is still ours
                    timed_out.set()
                    _kill(proc)

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            # Wait without reaping, so a late kill can only hit our zombie.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            _kill(proc)
            raise
        finally:
            timer.cancel()
            with self.lock:
                self.live.discard(proc)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss, None if timed_out.is_set() else proc.returncode

    def kill_all(self) -> None:
        with self.lock:
            for proc in self.live:
                _kill(proc)

    def together(self, tasks: list) -> None:
        """Start every task in its own thread at once and wait for all of them."""
        threads = [threading.Thread(target=task) for task in tasks]
        for t in threads:
            t.start()
        try:
            for t in threads:
                while t.is_alive():
                    t.join(0.5)
        finally:
            self.kill_all()  # only does anything if the join was interrupted
            for t in threads:
                t.join()

    def execute(self, job: Job, run: JobRun) -> None:
        if run.traced:
            head = [sys.executable, str(Path(tracing.__file__)), str(run.spans), str(run.index)]
        else:
            head = [sys.executable, "-m", "vilenkin"]
        run.wall_s, run.rss_kb, run.code = self.spawn_and_wait(
            head + job.argv(run.fn_seed, run.out), run.stderr, JOB_TIMEOUT_S
        )


def host_round(runner: Runner, what: str, cmd: list[str], timeout: float) -> list[float]:
    """Wall times of CLIENTS copies of a fixed child started together.

    ``what`` names the child in files and errors; any failure ends the run.
    """
    walls: list[float] = []
    errors: list[str] = []

    def one(i: int) -> None:
        err = runner.workdir / f"{what}{i}.err"
        try:
            wall, _, code = runner.spawn_and_wait(cmd, err, timeout)
        except Exception as exc:
            errors.append(repr(exc))
            return
        if code != 0:
            errors.append(f"exit {code}: {err.read_text()[-500:].strip()}")
        walls.append(wall)

    runner.together([lambda i=i: one(i) for i in range(CLIENTS)])
    if errors:
        raise RuntimeError(f"the {what} child failed: {errors[0]}")
    return walls


def measure_jobs(
    runner: Runner, job: Job, seed: int, seconds: float, trace: bool
) -> tuple[list[JobRun], list[tuple[float, float]]]:
    """Rounds of CLIENTS jobs started together; a round starts when the last ends.

    Starting every job of a round together keeps the contention each job
    sees the same, so no job runs alone just because its neighbour ended.
    Untraced, a reference round and a round of bare ``import vilenkin``
    interpreters run before the first round and after every round; each job
    keeps the mean of the two reference rounds around it.  The import times,
    spread over the whole run, are returned for ``setup_s``, each paired with
    the mean time of the reference round just before it.
    With tracing, each round holds traced and untraced jobs side by side.
    """
    runs: list[JobRun] = []
    setups: list[tuple[float, float]] = []  # (import wall, reference wall)
    min_jobs = TRACE_MIN_JOBS if trace else MIN_JOBS
    start = time.perf_counter()

    def host() -> float:
        ref = statistics.fmean(
            host_round(runner, "reference", [sys.executable, str(REFERENCE)], HOST_TIMEOUT_S)
        )
        setup = host_round(runner, "setup", [sys.executable, "-c", "import vilenkin"], HOST_TIMEOUT_S)
        setups.extend((wall, ref) for wall in setup)
        return ref

    ref_before = 0.0 if trace else host()

    def execute(run: JobRun) -> None:
        try:
            runner.execute(job, run)
        except Exception as exc:  # the job counts as failed; the round goes on
            run.error = f"could not run: {exc!r}"

    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= LAUNCH_CUTOFF_S or (elapsed >= seconds and len(runs) >= min_jobs):
            return runs, setups
        batch = [
            make_run(runner.workdir, seed, i, traced=trace and i % 2 == 0)
            for i in range(len(runs), len(runs) + CLIENTS)
        ]
        runs += batch
        runner.together([lambda run=run: execute(run) for run in batch])
        if not trace:
            ref_after = host()
            for run in batch:
                run.ref_s = (ref_before + ref_after) / 2
            ref_before = ref_after


# --- correctness checks, run after the timed window -------------------------


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_converge(job: Job, run: JobRun) -> str | None:
    """Recompute one seed-chosen row through the convolution route and norm."""
    from vilenkin import GridFunction, make_group, norm, parse_weights, t_mean

    header, rows = _read_csv(run.out)
    if header[:2] != ["n", "err"]:
        return f"unexpected header {header}"
    orders = [int(row[0]) for row in rows]
    if orders != list(range(FIRST_ORDER, job.top_order + 1)):
        return f"orders {orders[:3]}...{orders[-3:]} (count {len(orders)}) are not {FIRST_ORDER}..{job.top_order}"
    row = rows[run.pick % len(rows)]
    n, got = int(row[0]), float(row[1])
    f = GridFunction.random(make_group(job.pattern, job.levels), run.fn_seed)
    want = norm(t_mean(f, parse_weights("riesz"), n, method="convolution") - f, 1)
    if not abs(got - want) <= CHECK_TOL * max(1.0, abs(want)):
        return f"row n={n}: err {got!r} but the convolution route gives {want!r}"
    return None


def check_identity(job: Job, run: JobRun) -> str | None:
    """Row counts per check against their closed forms, residuals within 1e-12."""
    header, rows = _read_csv(run.out)
    if header != ["check", "n", "j", "residual"]:
        return f"unexpected header {header}"
    M = job.places
    orders = job.top_order - FIRST_ORDER + 1
    want = {
        "reflection": sum(M),
        "weight-sum": orders,
        "abel-kernel": orders,
        "abel-mean": orders,
        "block": sum(1 for m in M if m >= FIRST_ORDER),  # ranks with Q(M_r) > 0
    }
    got: dict[str, int] = {}
    for row in rows:
        got[row[0]] = got.get(row[0], 0) + 1
        if not float(row[3]) <= CHECK_TOL:
            return f"{row[0]} residual {row[3]} above {CHECK_TOL}"
    if got != want:
        return f"row counts {got}, closed form {want}"
    return None


def check_runs(job: Job, runs: list[JobRun]) -> None:
    for run in runs:
        if run.error is not None:
            continue
        if run.code is None:
            run.error = f"timed out after {JOB_TIMEOUT_S:g} s"
        elif run.code != 0:
            run.error = f"exit {run.code}: {run.stderr.read_text()[-500:].strip()}"
        elif not run.out.exists():
            run.error = "no CSV written"
        else:
            try:
                check = check_identity if job.command == "identity-check" else check_converge
                run.error = check(job, run)
            except (ValueError, IndexError) as exc:
                run.error = f"unreadable CSV: {exc!r}"
        if run.error is not None:
            print(f"job {run.index} (random:{run.fn_seed}) FAILED: {run.error}", file=sys.stderr)


# --- metrics ----------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runs: list[JobRun], setups: list[tuple[float, float]]) -> dict:
    walls = sorted(r.wall_s for r in runs)
    rels = sorted(r.wall_s / r.ref_s for r in runs)
    n = len(walls)
    k = max(1, n - TAIL_BEYOND)  # 1-based rank with TAIL_BEYOND jobs above it
    tail = f"p{100 * k / n:.0f} of {n} jobs, {n - k} jobs beyond it"
    failed = sum(r.failed for r in runs)
    metrics = {
        "setup_s": _metric(REF_NOMINAL_S * statistics.median(w / r for w, r in setups), "s"),
        "job_p50_rel": _metric(statistics.median(rels), "ref"),
        "job_tail_rel": _metric(rels[k - 1], "ref"),
        "peak_rss_mb": _metric(max(r.rss_kb for r in runs) / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh `import vilenkin` interpreters, "
        f"at a reference time of {REF_NOMINAL_S:g} s",
        "job_p50_rel": f"median of {n} jobs, spawn to exit, in reference-job times",
        "job_tail_rel": f"{tail}, in reference-job times",
        "peak_rss_mb": "largest child peak RSS from os.wait4",
    }
    for name, m in metrics.items():
        print(f"  {name:<12} {m['value']:<12.6g} {m['unit']:<3} {notes[name]}")
    # The raw wall times are printed too, but drift with the host's speed.
    print(f"  {'setup_wall_s':<12} {statistics.median(w for w, _ in setups):<12.6g} {'s':<3} median import")
    print(f"  {'job_p50_s':<12} {statistics.median(walls):<12.6g} {'s':<3} median of {n} jobs")
    print(f"  {'job_tail_s':<12} {walls[k - 1]:<12.6g} {'s':<3} {tail}")
    ref_p50 = statistics.median(r.ref_s for r in runs)
    print(f"  {'ref_p50_s':<12} {ref_p50:<12.6g} {'s':<3} median reference-job wall time")
    # failed_frac is also carried by the result's attempted/failed counts; it
    # is printed here but kept out of the compared metrics because it is 0.
    print(f"  {'failed_frac':<12} {failed / n:<12.6g} {'':<3} {failed} of {n} jobs failed")
    return metrics


def per_layer(runs: list[JobRun]) -> dict:
    traced = [r for r in runs if r.traced and not r.failed]
    untraced = [r for r in runs if not r.traced and not r.failed]
    if not traced or not untraced:
        raise RuntimeError("the traced run needs at least one good traced and untraced job")
    per_job: list[dict[str, float]] = []
    absent: set[str] = set()
    for run in traced:
        dump = json.loads(run.spans.read_text())
        summary = tracing.summarize(dump)
        values: dict[str, float] = {}
        for layer in tracing.LAYERS:
            values[f"{layer}.self_s"] = sum(
                row["self_s"] for name, row in summary.items() if name.startswith(layer + ".")
            )
        bytes_computed = 0
        for layer, fns in REPORTED.items():
            for fn in fns:
                name = f"{layer}.{fn}"
                if name not in dump["wrapped"]:
                    absent.add(name)
                row = summary.get(name, {"calls": 0, "self_s": 0.0, "cells": 0, "bytes": 0})
                values[f"{name}.calls"] = row["calls"]
                values[f"{name}.self_s"] = row["self_s"]
                if name in tracing.SIZED:
                    values[f"{name}.cells"] = row["cells"]
                    bytes_computed += row["bytes"]
        values["transform.bytes_computed"] = bytes_computed
        per_job.append(values)
    counts = [{k: v for k, v in job.items() if not k.endswith("self_s")} for job in per_job]
    if any(c != counts[0] for c in counts):
        print("warning: traced jobs of one workload disagree on counts", file=sys.stderr)
    if absent:
        print(f"  absent (reported as 0): {', '.join(sorted(absent))}")
    overhead = (
        statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in untraced)
        - 1.0
    )
    metrics = {}
    for name in per_job[0]:
        unit = "s" if name.endswith("self_s") else "B" if name.endswith("bytes_computed") else "count"
        metrics[name] = _metric(statistics.median(job[name] for job in per_job), unit)
    metrics["trace.overhead_frac"] = _metric(overhead, "ratio")
    print(f"  per traced job, median of {len(traced)} traced jobs ({len(untraced)} untraced):")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:<14.6g} {m['unit']}")
    return metrics


def machine_info() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"python {sys.version.split()[0]}, numpy {np.__version__}, "
        f"BLAS {blas.get('name')} {blas.get('version', '')}, nproc {NPROC}, "
        f"{CLIENTS} clients x {BLAS_THREADS} BLAS thread(s)"
    )


def run_workload(
    name: str, job: Job, seed: int, seconds: float, trace: bool, workdir: Path
) -> tuple[dict, int, int]:
    """Measure, check and summarize one workload; returns (metrics, attempted, failed)."""
    runner = Runner(workdir)
    runs, setups = measure_jobs(runner, job, seed, seconds, trace)
    check_runs(job, runs)
    failed = sum(r.failed for r in runs)
    print(f"workload {name} ({job.command}, seed {seed}, trace {int(trace)}): {len(runs)} jobs")
    metrics = per_layer(runs) if trace else end_to_end(runs, setups)
    return metrics, len(runs), failed


def selftest(workdir: Path) -> int:
    """Every workload at a tiny size, untraced and traced; traced counts must repeat."""
    ok = True
    for name, (_, tiny) in WORKLOADS.items():
        _, attempted, failed = run_workload(name, tiny, 1, 1, False, workdir)
        counts = []
        for _ in range(2):
            metrics, att, fail = run_workload(name, tiny, 7, 1, True, workdir)
            attempted, failed = attempted + att, failed + fail
            counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "B")})
        same = counts[0] == counts[1]
        ok &= failed == 0 and same
        print(
            f"selftest {name}: {attempted} jobs, {failed} failed, "
            f"traced counts {'identical' if same else 'DIFFER'} across two runs on one seed"
        )
    print("selftest", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="tiny smoke run of every workload")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required unless --selftest is given")

    if not (SRC / "vilenkin" / "__init__.py").is_file():
        print(f"error: no vilenkin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vilenkin

    if Path(vilenkin.__file__).resolve().parent != SRC / "vilenkin":
        print(f"error: imported vilenkin from {vilenkin.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        print(f"machine: {machine_info()}")
        if args.selftest:
            return selftest(workdir)
        job = WORKLOADS[args.workload][0]
        metrics, attempted, failed = run_workload(
            args.workload, job, args.seed, args.seconds, bool(args.trace), workdir
        )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
