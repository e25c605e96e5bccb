"""Command-line experiment drivers.

Five subcommands: kernel-profile, identity-check, converge, classify-weights
and bench-transform.  Options come from an optional JSON config file plus
flags (flags win).  Each subcommand returns a Report and run() alone writes
it: first the CSV, with 15 significant digits and rows sorted by order n, so
reruns are byte-identical; then one summary line per check on stdout.  Exit
status: 0 success, 1 a numerical check failed its tolerance, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, get_args, get_type_hints

import numpy as np

from .group import GroupSpec, parse_element, parse_group
from .kernels import _FAMILIES, _UNWEIGHTED, _order_cells, l1_profile
from .points import _FORM_FAMILY, convergence_profile
from .transform import GridFunction, _check_exponent, forward
from .weights import _KINDS, Classification, classify, parse_weights

CHECK_TOL = 1e-12
AGREE_TOL = 1e-10
# Keep CLI-driven grids well inside addressable/allocatable range.
MAX_CLI_SIZE = 1 << 22
# Each radix m gets an m x m complex stage matrix, built from an m x m index
# table: on a 2-core Linux box a `converge --levels 1 --n-max 3` job peaks
# at 35.7 MiB of RSS at m = 7, 47.9 at 512 and 196 at 2048, and np.outer asks
# for 32 GiB at 65536.  Larger radices are refused.
MAX_CLI_RADIX = 512
# bench-transform reports the fast route as the median of this many runs (an
# odd count); the O(M_N^2) naive route is timed once.
FAST_REPEATS = 5
# The work a run may take, in cells, priced before f is drawn or any
# transform runs: an order sweep by kernels._order_cells, from the plan the
# sweep runs, identity-check's oracle sums in vilenkin.oracles, next to them,
# and the naive transform at its M_N rows of M_N cells.  On a 2-core Linux box the
# sweeps and the oracles run at 1.0e7 to 2.4e7 cells/s (the weight sums at
# 1.3e8, the naive transform at 2e7 to 3e7); `converge --group 2 --levels 14`
# prices 2.7e8 cells and takes 16 s, 1.6e7 cells/s.  So this budget is about
# a minute of work; above it a run is refused, the naive one above M_N = 31622.
MAX_WORK = 10**9
# classify-weights holds a few float arrays of n_max entries: at 2^20 it takes
# about 0.2 s and 94 MB peak RSS, at 2^22 0.4 s and 289 MB, and 10^12 cannot
# be allocated, so larger scans are refused.
MAX_CLASSIFY_N = 1 << 20


class ConfigError(ValueError):
    """Bad configuration: reported on stderr with exit status 2."""


class ExperimentConfig(NamedTuple):
    group: str = "2,3,2,3"
    levels: int | None = None
    weights: str = "constant"
    family: str = "fejer"
    n_max: int | None = None
    tail_rank: int = 1
    function: str = "random"
    point: str | None = None
    p: float = 1.0
    form: str = "t"
    mode: str = "all"
    out: str | None = None


_CONFIG_KEYS = frozenset(ExperimentConfig._fields)
_MODES = ("all", "block")


def load_config(path: str | Path | None, overrides: dict) -> ExperimentConfig:
    """Defaults, then JSON file values, then explicitly passed flags."""
    cfg = ExperimentConfig()
    if path is not None:
        import json  # only a config file needs it

        try:
            raw = json.loads(Path(path).read_text())
        # ValueError: bad JSON or UTF-8, or a NUL in the path; RecursionError: deep nesting
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        cfg = cfg._replace(**raw)
    flags = {k: v for k, v in overrides.items() if v is not None}
    cfg = cfg._replace(**flags)
    hints = get_type_hints(ExperimentConfig)
    for name, value in zip(ExperimentConfig._fields, cfg):
        if not _has_type(value, hints[name]):
            raise ConfigError(
                f"config field {name!r} must be {_type_text(hints[name])}, "
                f"got {type(value).__name__} {value!r}"
            )
    if cfg.mode not in _MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r}; expected one of {_MODES}")
    return cfg


def _type_text(hint) -> str:
    """A field annotation as written in ExperimentConfig, e.g. 'int | None'."""
    return " | ".join("None" if t is type(None) else t.__name__ for t in get_args(hint) or (hint,))


def _has_type(value, hint) -> bool:
    """isinstance against a field annotation; bools are not ints, ints are floats."""
    allowed = get_args(hint) or (hint,)
    if isinstance(value, bool):
        return bool in allowed
    if float in allowed:
        allowed += (int,)
    return isinstance(value, allowed)


def _say(line: str) -> None:
    """Print one summary line; once the reader of stdout has gone, discard the rest.

    A closed pipe (``vilenkin ... | head -1``) must not abort the run: the CSV
    is already written and the exit status still reports the checks.
    """
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    """Write the CSV; a path that refuses it (a full device, /proc) is bad configuration."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _checked(call, *args):
    """call(*args), with a ValueError it raises reported as bad configuration."""
    try:
        return call(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _build_spec(cfg: ExperimentConfig) -> GroupSpec:
    spec = _checked(parse_group, cfg.group, cfg.levels)
    if spec.size > MAX_CLI_SIZE:
        raise ConfigError(
            f"resolution overflow: M_N = {spec.size} exceeds the CLI cap {MAX_CLI_SIZE}"
        )
    if max(spec.m) > MAX_CLI_RADIX:
        raise ConfigError(f"radix {max(spec.m)} exceeds the CLI cap {MAX_CLI_RADIX}")
    return spec


def _parse_function(cfg: ExperimentConfig, spec: GroupSpec) -> Callable[[], GridFunction]:
    """cfg.function parsed, as a call that draws it: a run is priced between the two."""
    text = cfg.function
    name, _, rest = text.partition(":")
    try:
        if name == "constant":
            return partial(_drawn, text, GridFunction.constant, spec, 1.0)
        if name == "character":
            return partial(_drawn, text, GridFunction.character, spec, int(rest))
        if name == "indicator":
            rank_s, _, cell_s = rest.partition(",")
            return partial(_drawn, text, GridFunction.indicator, spec, int(rank_s), int(cell_s or 0))
        if name == "random":
            seed_s, _, rank_s = rest.partition(",")
            rank = int(rank_s) if rank_s else None
            return partial(_drawn, text, GridFunction.random, spec, int(seed_s) if rest else 0, rank)
    except ValueError as exc:
        raise ConfigError(f"bad function spec {text!r}: {exc}") from None
    raise ConfigError(
        f"unknown function spec {text!r}; expected constant, character:K, "
        f"indicator:RANK,CELL or random:SEED[,RANK]"
    )


def _drawn(text: str, make, *args) -> GridFunction:
    """make(*args), with a ValueError it raises reported against the function spec."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"bad function spec {text!r}: {exc}") from None


def _orders(cfg: ExperimentConfig, spec: GroupSpec, start: int) -> Sequence[int]:
    """The orders start .. n-max (default M_N), or the block sizes M_r among them."""
    n_max = cfg.n_max if cfg.n_max is not None else spec.size
    if not 1 <= n_max <= spec.size:
        raise ConfigError(f"n-max {n_max} outside [1, M_N = {spec.size}]")
    if cfg.mode == "block":
        ns: Sequence[int] = [b for b in spec.M if start <= b <= n_max]
    else:  # a range, so a job refused later (a bad --function) has not listed M_N orders
        ns = range(start, n_max + 1)
    if not ns:
        what = "block sizes M_r" if cfg.mode == "block" else "orders"
        raise ConfigError(f"no {what} in [{start}, {n_max}]; raise --n-max")
    return ns


def _check_work(command: str, cells: int) -> None:
    """Refuse a run priced above MAX_WORK cells, before any transform."""
    if cells > MAX_WORK:
        raise ConfigError(
            f"{command}: the run needs about {cells:.3g} cells of work; "
            f"the limit is {MAX_WORK:.3g}, about a minute"
        )


# --- subcommands -------------------------------------------------------------


class Report(NamedTuple):
    """What a subcommand found: its CSV, its stdout summary and whether a check failed."""

    header: list[str]
    rows: list[list[str]]
    summary: list[str]
    failed: bool = False


def _run_kernel_profile(cfg: ExperimentConfig) -> Report:
    spec = _build_spec(cfg)
    w = _checked(parse_weights, cfg.weights)
    if cfg.family not in _FAMILIES:
        raise ConfigError(f"unknown kernel family {cfg.family!r}")
    if not 0 <= cfg.tail_rank <= spec.levels:
        raise ConfigError(f"tail-rank {cfg.tail_rank} outside [0, {spec.levels}]")
    ns = _orders(cfg, spec, 1 if cfg.family in _UNWEIGHTED else w.n0)
    _check_work("kernel-profile", _order_cells(spec, ns, spec.M[cfg.tail_rank]))
    rows = l1_profile(cfg.family, ns, spec, weights=w, tail_rank=cfg.tail_rank)
    csv_rows = [
        [str(r.n), _fmt(r.l1), _fmt(r.integral.real), _fmt(r.integral.imag), _fmt(r.tail)]
        for r in rows
    ]
    sup_l1 = max(r.l1 for r in rows)
    summary = (
        f"kernel-profile {cfg.family}[{w.label()}] on {spec}: {len(rows)} rows, "
        f"sup l1 = {sup_l1:.6g}, final tail(rank {cfg.tail_rank}) = {rows[-1].tail:.6g}"
    )
    return Report(["n", "l1", "integral_re", "integral_im", "tail"], csv_rows, [summary])


def _run_identity_check(cfg: ExperimentConfig) -> Report:
    from . import oracles

    spec = _build_spec(cfg)
    w = _checked(parse_weights, cfg.weights)
    ns = _orders(cfg, spec, w.n0)
    draw = _parse_function(cfg, spec)
    _check_work("identity-check", oracles._identity_cells(spec, ns))
    f = draw()
    blocks = [rank for rank in range(spec.levels + 1) if w.Q(spec.M[rank]) > 0]
    # (check, scale of case n, rows of (n, j, residual)): a case passes when
    # its residual is at most CHECK_TOL * scale, and the scale is the size of
    # what the case sums, since rounding grows with it.  The reflection and
    # block kernels reach sup |D_{M_r}| = M_r; the weight-sum sides are Q_n,
    # whose ulp alone exceeds 1e-12 from Q_n = 2^13 on; the abel-kernel
    # sides reach sup |T_n| = n at x = 0 and sum n kernels.  The abel-mean
    # residuals stay below 2e-14 and keep the absolute tolerance.
    checks = [
        ("reflection", lambda r: spec.M[r], oracles.reflection_residuals(spec)),
        (
            "weight-sum",
            lambda n: max(1.0, w.Q(n)),
            ((n, None, oracles.abel_weight_residual(w, n)) for n in ns),
        ),
        (
            "abel-kernel",
            lambda n: max(1, n),
            ((n, None, r) for n, r in oracles.abel_kernel_residuals(spec, w, ns)),
        ),
        (
            "abel-mean",
            lambda n: 1,
            (
                (n, None, float(np.abs(np.subtract(direct, abel, out=abel)).max()))
                for n, direct, abel in oracles.t_mean_oracles(f, w, ns)
            ),
        ),
        (
            "block",
            lambda r: spec.M[r],
            (
                (r, None, oracles.identity_residual("block", spec, weights=w, rank=r))
                for r in blocks
            ),
        ),
    ]
    rows: list[list[str]] = []
    summary: list[str] = []
    failed = False
    for check, scale, cases in checks:
        got: list[float] = []
        bad = False
        for n, j, residual in cases:
            bad |= residual > CHECK_TOL * scale(n)
            rows.append([check, str(n), "" if j is None else str(j), _fmt(residual)])
            got.append(residual)
        failed |= bad
        summary.append(
            f"identity-check {check}: max residual {max(got, default=0.0):.3e} "
            f"over {len(got)} cases -> {'FAIL' if bad else 'ok'}"
        )

    rows.sort(key=lambda row: (row[0], int(row[1]), int(row[2] or -1)))
    return Report(["check", "n", "j", "residual"], rows, summary, failed)


def _run_converge(cfg: ExperimentConfig) -> Report:
    spec = _build_spec(cfg)
    w = _checked(parse_weights, cfg.weights)
    point = None if cfg.point is None else _checked(parse_element, cfg.point, spec)
    if cfg.form not in _FORM_FAMILY:
        raise ConfigError(f"unknown mean form {cfg.form!r}")
    if point is None:
        _checked(_check_exponent, "p", cfg.p)
    ns = _orders(cfg, spec, 1 if _FORM_FAMILY[cfg.form] in _UNWEIGHTED else w.n0)
    draw = _parse_function(cfg, spec)
    _check_work("converge", _order_cells(spec, ns, spec.size if point is None else 0))
    f = draw()
    rows = convergence_profile(
        f, w, ns, form=cfg.form, point=point, p=cfg.p if point is None else None
    )
    csv_rows = [[str(r.n), _fmt(r.err), r.mean_id, cfg.mode] for r in rows]
    where = f"point {cfg.point}" if point is not None else f"L{cfg.p:g} norm"
    summary = (
        f"converge {rows[0].mean_id} ({cfg.mode}, {where}) on {spec}: "
        f"{len(rows)} rows, final err = {rows[-1].err:.6e}"
    )
    return Report(["n", "err", "mean_id", "mode"], csv_rows, [summary])


def _run_classify_weights(cfg: ExperimentConfig) -> Report:
    w = _checked(parse_weights, cfg.weights)
    n_max = cfg.n_max if cfg.n_max is not None else 10_000
    if n_max > MAX_CLASSIFY_N:
        raise ConfigError(
            f"classify-weights: n-max {n_max} exceeds the limit {MAX_CLASSIFY_N}"
        )
    c = _checked(classify, w, n_max)
    row = [
        str(int(v)) if isinstance(v, bool) else _fmt(v) if isinstance(v, float) else str(v)
        for v in c
    ]
    summary = (
        f"classify-weights {c.label}: monotonicity={c.monotonicity}, "
        f"fn01_sup={c.fn01_sup:.6g}, fn011_sup={c.fn011_sup:.6g}, "
        f"regular={c.regular}, gate={c.gate}"
    )
    return Report(["family", *Classification._fields[1:]], [row], [summary])


def _run_bench_transform(cfg: ExperimentConfig) -> Report:
    spec = _build_spec(cfg)
    _check_work("bench-transform", spec.size**2)  # the naive route: M_N rows of M_N cells
    f = _parse_function(cfg, spec)()
    from . import oracles  # before the naive run, so its time excludes the import

    forward(f)  # fills the per-spec root and stage-matrix caches
    t0 = time.perf_counter()
    naive = oracles.forward_naive(f)
    naive_s = time.perf_counter() - t0
    fast_times = []
    for _ in range(FAST_REPEATS):
        t0 = time.perf_counter()
        fast = forward(f)
        fast_times.append(time.perf_counter() - t0)
    fast_s = sorted(fast_times)[FAST_REPEATS // 2]
    diff = float(np.max(np.abs(naive - fast)))
    failed = not diff <= AGREE_TOL
    speed = naive_s / fast_s if fast_s > 0 else float("inf")
    summary = (
        f"bench-transform on {spec} (M_N = {spec.size}): naive {naive_s:.4g}s, "
        f"fast {fast_s:.4g}s (x{speed:.1f}), agreement {diff:.3e} -> {'FAIL' if failed else 'ok'}"
    )
    rows = [["naive", f"{naive_s:.6g}", _fmt(diff)], ["fast", f"{fast_s:.6g}", _fmt(diff)]]
    return Report(["method", "seconds", "max_abs_diff"], rows, [summary], failed)


# name -> (runner, --help text, whether --block selects its orders)
_COMMANDS = {
    "kernel-profile": (_run_kernel_profile, "L1 norms, integrals and tails of a kernel family", True),
    "identity-check": (
        _run_identity_check,
        "run the algebraic identity suite at tolerance 1e-12 x the size of each sum",
        False,
    ),
    "converge": (_run_converge, "pointwise or L_p error profile of a summability mean", True),
    "classify-weights": (_run_classify_weights, "monotonicity and sup statistics of a weight family", False),
    "bench-transform": (_run_bench_transform, "time the naive vs fast transform and check agreement", False),
}


def run(command: str, cfg: ExperimentConfig) -> int:
    """Run one subcommand against a fully merged config; returns exit status.

    The one writer: the CSV, then the summary lines, then ``wrote <out>``.
    """
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    runner, _, takes_block = _COMMANDS[command]
    if cfg.mode == "block" and not takes_block:
        blocks = sorted(name for name, (_, _, block) in _COMMANDS.items() if block)
        raise ConfigError(f"--block applies only to {' and '.join(blocks)}, not to {command}")
    out = Path(cfg.out) if cfg.out is not None else Path(f"{command.replace('-', '_')}.csv")
    # checked before any work, so that a long run cannot end in an unwritable
    # CSV; is_dir() would take a NUL for a missing file, and open() refuse it
    if "\0" in str(out):
        raise ConfigError(f"output path {str(out)!r} holds a NUL character")
    if out.is_dir():
        raise ConfigError(f"output path {out} is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"output directory {out.parent} does not exist")
    report = runner(cfg)
    _write_csv(out, report.header, report.rows)
    for line in report.summary:
        _say(line)
    _say(f"wrote {out}")
    return 1 if report.failed else 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--group", help="radix pattern, e.g. 2,3,2")
    common.add_argument("--levels", type=int, help="resolution N (pattern cycles)")
    weights = (f"{alias}:A" if alpha else alias for alias, alpha in _KINDS.values())
    common.add_argument("--weights", help=" | ".join(weights))
    common.add_argument("--family", help="kernel family: " + " | ".join(_FAMILIES))
    common.add_argument("--n-max", dest="n_max", type=int, help="largest order n")
    common.add_argument("--tail-rank", dest="tail_rank", type=int, help="interval rank for kernel tails")
    common.add_argument("--function", help="constant | character:K | indicator:RANK,CELL | random[:SEED[,RANK]] (seed 0 if omitted)")
    common.add_argument("--point", help="digit vector, e.g. 0,1,0")
    common.add_argument("--p", type=float, help="L_p exponent for norm errors")
    common.add_argument("--form", help="mean form: " + " | ".join(_FORM_FAMILY))
    common.add_argument(
        "--block",
        action="store_const",
        const="block",
        dest="mode",
        help="restrict orders to the block subsequence M_0, M_1, ...",
    )
    common.add_argument("--out", help="output CSV path (default <command>.csv)")

    parser = argparse.ArgumentParser(
        prog="vilenkin",
        description="Harmonic analysis diagnostics on bounded Vilenkin groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own message
        return int(exc.code) if exc.code else 0
    flag_values = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        cfg = load_config(args.config, flag_values)
        return run(args.command, cfg)
    except ConfigError as exc:  # one line, though a path it names may hold a newline
        print(f"config error: {exc}".replace("\n", "\\n"), file=sys.stderr)
        return 2


def entry(argv: list[str] | None = None) -> int:
    """The process entry of the command line: ``main(argv)``, then freeze the heap.

    ``python -m vilenkin``, ``python -m vilenkin.cli`` and the ``vilenkin``
    console script all start here and hand the returned status to
    ``SystemExit``.  The interpreter ends right after, and its shutdown
    collections would traverse the ~22k tracked objects that the imports
    made, about a tenth of a short job's wall time.  ``gc.freeze()`` moves
    them to the permanent generation, which those collections skip.  Nothing
    that ``main`` promises depends on them: the CSV is closed by ``with``,
    and the interpreter still flushes stdout and runs atexit handlers.
    ``main`` itself freezes nothing, so an in-process caller keeps a heap
    that the collector still sees.
    """
    status = main(argv)
    gc.freeze()
    return status


if __name__ == "__main__":
    raise SystemExit(entry())
