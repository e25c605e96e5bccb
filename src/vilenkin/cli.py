"""Command-line experiment drivers.

Five subcommands: kernel-profile, identity-check, converge, classify-weights
and bench-transform.  Options come from an optional JSON config file plus
flags (flags win).  Numeric artifacts are written as CSV with 15 significant
digits and rows sorted by order n, so reruns are byte-identical; one summary
line per check goes to stdout.  Exit status: 0 success, 1 a numerical check
failed its tolerance, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .group import GroupSpec, parse_element, parse_group
from .kernels import (
    _FAMILIES,
    abel_kernel_residuals,
    identity_residual,
    l1_profile,
    reflection_residuals,
)
from .means import (
    WeightSequence,
    abel_weight_residual,
    classify,
    parse_weights,
    t_mean_oracles,
)
from .points import convergence_profile
from .transform import GridFunction, forward

CHECK_TOL = 1e-12
AGREE_TOL = 1e-10
# Keep CLI-driven grids well inside addressable/allocatable range.
MAX_CLI_SIZE = 1 << 22
# bench-transform reports the fast route as the median of this many runs (an
# odd count); the O(M_N^2) naive route is timed once.
FAST_REPEATS = 5
# The naive route takes about 2.3 s at 2^13 points and grows as M_N^2 (about
# 10 h at 2^20), so bench-transform refuses grids above this size.
MAX_NAIVE_SIZE = 1 << 15
# classify-weights holds a few float arrays of n_max entries: at 2^20 it takes
# 0.2-0.35 s and 141 MB peak RSS, at 2^22 0.6 s and 477 MB, and 10^12 cannot
# be allocated, so larger scans are refused.
MAX_CLASSIFY_N = 1 << 20


class ConfigError(ValueError):
    """Bad configuration: reported on stderr with exit status 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    group: str = "2,3,2,3"
    levels: int | None = None
    weights: str = "constant"
    family: str = "fejer"
    n_max: int | None = None
    tail_rank: int = 1
    function: str = "random"
    point: str | None = None
    p: float = 1.0
    seed: int = 0
    form: str = "t"
    mode: str = "all"
    out: str | None = None


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}
_MODES = ("all", "block")


def load_config(path: str | Path | None, overrides: dict) -> ExperimentConfig:
    """Defaults, then JSON file values, then explicitly passed flags."""
    cfg = ExperimentConfig()
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        cfg = replace(cfg, **raw)
    flags = {k: v for k, v in overrides.items() if v is not None}
    cfg = replace(cfg, **flags)
    hints = get_type_hints(ExperimentConfig)
    for field in fields(ExperimentConfig):
        value = getattr(cfg, field.name)
        if not _has_type(value, hints[field.name]):
            raise ConfigError(
                f"config field {field.name!r} must be {field.type}, "
                f"got {type(value).__name__} {value!r}"
            )
    if cfg.mode not in _MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r}; expected one of {_MODES}")
    return cfg


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
    is still written and the exit status still reports the checks.
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
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _build_spec(cfg: ExperimentConfig) -> GroupSpec:
    try:
        spec = parse_group(cfg.group, cfg.levels)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if spec.size > MAX_CLI_SIZE:
        raise ConfigError(
            f"resolution overflow: M_N = {spec.size} exceeds the CLI cap {MAX_CLI_SIZE}"
        )
    return spec


def _build_weights(cfg: ExperimentConfig) -> WeightSequence:
    try:
        return parse_weights(cfg.weights)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _build_function(cfg: ExperimentConfig, spec: GroupSpec) -> GridFunction:
    text = cfg.function
    name, _, rest = text.partition(":")
    try:
        if name == "constant":
            return GridFunction.constant(spec, 1.0)
        if name == "character":
            return GridFunction.character(spec, int(rest))
        if name == "indicator":
            rank_s, _, cell_s = rest.partition(",")
            return GridFunction.indicator(spec, int(rank_s), int(cell_s or 0))
        if name == "random":
            if not rest:
                return GridFunction.random(spec, cfg.seed)
            seed_s, _, rank_s = rest.partition(",")
            rank = int(rank_s) if rank_s else None
            return GridFunction.random(spec, int(seed_s), rank)
    except ValueError as exc:
        raise ConfigError(f"bad function spec {text!r}: {exc}") from None
    raise ConfigError(
        f"unknown function spec {text!r}; expected constant, character:K, "
        f"indicator:RANK,CELL or random:SEED[,RANK]"
    )


def _resolve_n_max(cfg: ExperimentConfig, spec: GroupSpec) -> int:
    n_max = cfg.n_max if cfg.n_max is not None else spec.size
    if not 1 <= n_max <= spec.size:
        raise ConfigError(f"n-max {n_max} outside [1, M_N = {spec.size}]")
    return n_max


def _orders(start: int, n_max: int, spec: GroupSpec, mode: str) -> list[int]:
    if mode == "block":
        ns = [b for b in spec.M if start <= b <= n_max]
    else:
        ns = list(range(start, n_max + 1))
    if not ns:
        what = "block sizes M_r" if mode == "block" else "orders"
        raise ConfigError(f"no {what} in [{start}, {n_max}]; raise --n-max")
    return ns


# --- subcommands -------------------------------------------------------------


def _run_kernel_profile(cfg: ExperimentConfig, out: Path) -> int:
    spec = _build_spec(cfg)
    w = _build_weights(cfg)
    n_max = _resolve_n_max(cfg, spec)
    if cfg.family not in _FAMILIES:
        raise ConfigError(f"unknown kernel family {cfg.family!r}")
    if not 0 <= cfg.tail_rank <= spec.levels:
        raise ConfigError(f"tail-rank {cfg.tail_rank} outside [0, {spec.levels}]")
    start = 1 if cfg.family in ("dirichlet", "fejer") else w.n0
    ns = _orders(start, n_max, spec, cfg.mode)
    rows = l1_profile(cfg.family, ns, spec, weights=w, tail_rank=cfg.tail_rank)
    csv_rows = [
        [str(r.n), _fmt(r.l1), _fmt(r.integral.real), _fmt(r.integral.imag), _fmt(r.tail)]
        for r in rows
    ]
    _write_csv(out, ["n", "l1", "integral_re", "integral_im", "tail"], csv_rows)
    sup_l1 = max(r.l1 for r in rows)
    _say(
        f"kernel-profile {cfg.family}[{w.label()}] on {spec}: {len(rows)} rows, "
        f"sup l1 = {sup_l1:.6g}, final tail(rank {cfg.tail_rank}) = {rows[-1].tail:.6g}"
    )
    _say(f"wrote {out}")
    return 0


def _run_identity_check(cfg: ExperimentConfig, out: Path) -> int:
    spec = _build_spec(cfg)
    w = _build_weights(cfg)
    n_max = _resolve_n_max(cfg, spec)
    ns = _orders(w.n0, n_max, spec, "all")
    f = _build_function(cfg, spec)
    blocks = [rank for rank in range(spec.levels + 1) if w.Q(spec.M[rank]) > 0]
    # (check, tolerance scaled by M_n, rows of (n, j, residual)): the
    # reflection and block kernels reach sup |D_{M_r}| = M_r, so their
    # rounding grows with M_r and their tolerance is CHECK_TOL * M_r
    checks = [
        ("reflection", True, reflection_residuals(spec)),
        ("weight-sum", False, ((n, None, abel_weight_residual(w, n)) for n in ns)),
        (
            "abel-kernel",
            False,
            ((n, None, r) for n, r in abel_kernel_residuals(spec, w, ns)),
        ),
        (
            "abel-mean",
            False,
            (
                (n, None, r)
                for orders, direct, abel in t_mean_oracles(f, w, ns)
                for n, r in zip(orders, _row_gaps(direct, abel))
            ),
        ),
        (
            "block",
            True,
            ((r, None, identity_residual("block", spec, weights=w, rank=r)) for r in blocks),
        ),
    ]
    rows: list[list[str]] = []
    failed: set[str] = set()
    for check, scaled, cases in checks:
        got: list[float] = []
        for n, j, residual in cases:
            if residual > CHECK_TOL * (spec.M[n] if scaled else 1):
                failed.add(check)
            rows.append([check, str(n), "" if j is None else str(j), _fmt(residual)])
            got.append(residual)
        status = "FAIL" if check in failed else "ok"
        _say(
            f"identity-check {check}: max residual {max(got, default=0.0):.3e} "
            f"over {len(got)} cases -> {status}"
        )

    rows.sort(key=lambda row: (row[0], int(row[1]), int(row[2] or -1)))
    _write_csv(out, ["check", "n", "j", "residual"], rows)
    _say(f"wrote {out}")
    return 1 if failed else 0


def _row_gaps(direct: np.ndarray, abel: np.ndarray) -> list[float]:
    """max |direct - abel| of each row of two stacks; abel is overwritten."""
    return np.max(np.abs(np.subtract(direct, abel, out=abel)), axis=1).tolist()


def _run_converge(cfg: ExperimentConfig, out: Path) -> int:
    spec = _build_spec(cfg)
    w = _build_weights(cfg)
    n_max = _resolve_n_max(cfg, spec)
    f = _build_function(cfg, spec)
    point = None
    if cfg.point is not None:
        try:
            point = parse_element(cfg.point, spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if cfg.form not in ("t", "norlund", "partial"):
        raise ConfigError(f"unknown mean form {cfg.form!r}")
    if point is None and not cfg.p >= 1:  # also refuses NaN
        raise ConfigError(f"p must be >= 1, got {cfg.p}")
    start = 1 if cfg.form == "partial" else w.n0
    ns = _orders(start, n_max, spec, cfg.mode)
    rows = convergence_profile(
        f,
        w,
        ns,
        form=cfg.form,
        point=point,
        p=None if point is not None else cfg.p,
    )
    csv_rows = [[str(r.n), _fmt(r.err), r.mean_id, cfg.mode] for r in rows]
    _write_csv(out, ["n", "err", "mean_id", "mode"], csv_rows)
    where = f"point {cfg.point}" if point is not None else f"L{cfg.p:g} norm"
    _say(
        f"converge {rows[0].mean_id} ({cfg.mode}, {where}) on {spec}: "
        f"{len(rows)} rows, final err = {rows[-1].err:.6e}"
    )
    _say(f"wrote {out}")
    return 0


def _run_classify_weights(cfg: ExperimentConfig, out: Path) -> int:
    w = _build_weights(cfg)
    n_max = cfg.n_max if cfg.n_max is not None else 10_000
    if n_max > MAX_CLASSIFY_N:
        raise ConfigError(
            f"classify-weights: n-max {n_max} exceeds the limit {MAX_CLASSIFY_N}"
        )
    try:
        c = classify(w, n_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    header = [
        "family",
        "n_max",
        "q0",
        "monotonicity",
        "fn01_sup",
        "fn011_sup",
        "regular",
        "growth_ratio",
        "gate",
    ]
    row = [
        c.label,
        str(c.n_max),
        _fmt(c.q0),
        c.monotonicity,
        _fmt(c.fn01_sup),
        _fmt(c.fn011_sup),
        str(int(c.regular)),
        _fmt(c.growth_ratio),
        c.gate,
    ]
    _write_csv(out, header, [row])
    _say(
        f"classify-weights {c.label}: monotonicity={c.monotonicity}, "
        f"fn01_sup={c.fn01_sup:.6g}, fn011_sup={c.fn011_sup:.6g}, "
        f"regular={c.regular}, gate={c.gate}"
    )
    _say(f"wrote {out}")
    return 0


def _run_bench_transform(cfg: ExperimentConfig, out: Path) -> int:
    spec = _build_spec(cfg)
    if spec.size > MAX_NAIVE_SIZE:
        raise ConfigError(
            f"bench-transform: the naive transform at M_N = {spec.size} needs "
            f"M_N^2 = {spec.size**2:.3g} cell products; the limit is "
            f"M_N <= {MAX_NAIVE_SIZE}"
        )
    f = _build_function(cfg, spec)

    forward(f, method="fast")  # fills the per-spec root and stage-matrix caches
    t0 = time.perf_counter()
    naive = forward(f, method="naive")
    naive_s = time.perf_counter() - t0
    fast_times = []
    for _ in range(FAST_REPEATS):
        t0 = time.perf_counter()
        fast = forward(f, method="fast")
        fast_times.append(time.perf_counter() - t0)
    fast_s = sorted(fast_times)[FAST_REPEATS // 2]
    diff = float(np.max(np.abs(naive.coeffs - fast.coeffs)))
    ok = diff <= AGREE_TOL
    _write_csv(
        out,
        ["method", "seconds", "max_abs_diff"],
        [
            ["naive", f"{naive_s:.6g}", _fmt(diff)],
            ["fast", f"{fast_s:.6g}", _fmt(diff)],
        ],
    )
    status = "ok" if ok else "FAIL"
    speed = naive_s / fast_s if fast_s > 0 else float("inf")
    _say(
        f"bench-transform on {spec} (M_N = {spec.size}): naive {naive_s:.4g}s, "
        f"fast {fast_s:.4g}s (x{speed:.1f}), agreement {diff:.3e} -> {status}"
    )
    _say(f"wrote {out}")
    return 0 if ok else 1


_COMMANDS = {
    "kernel-profile": _run_kernel_profile,
    "identity-check": _run_identity_check,
    "converge": _run_converge,
    "classify-weights": _run_classify_weights,
    "bench-transform": _run_bench_transform,
}


def run(command: str, cfg: ExperimentConfig) -> int:
    """Run one subcommand against a fully merged config; returns exit status."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    out = Path(cfg.out) if cfg.out is not None else Path(f"{command.replace('-', '_')}.csv")
    # checked before any work, so that a long run cannot end in an unwritable CSV
    if out.is_dir():
        raise ConfigError(f"output path {out} is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"output directory {out.parent} does not exist")
    return _COMMANDS[command](cfg, out)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--group", help="radix pattern, e.g. 2,3,2")
    common.add_argument("--levels", type=int, help="resolution N (pattern cycles)")
    common.add_argument("--weights", help="constant | cesaro:A | icesaro:A | power:A | riesz | nlog | logpow:A")
    common.add_argument("--family", help="kernel family: dirichlet | fejer | t | norlund")
    common.add_argument("--n-max", dest="n_max", type=int, help="largest order n")
    common.add_argument("--tail-rank", dest="tail_rank", type=int, help="interval rank for kernel tails")
    common.add_argument("--function", help="constant | character:K | indicator:RANK,CELL | random:SEED[,RANK]")
    common.add_argument("--point", help="digit vector, e.g. 0,1,0")
    common.add_argument("--p", type=float, help="L_p exponent for norm errors")
    common.add_argument("--seed", type=int, help="seed for random functions")
    common.add_argument("--form", help="mean form: t | norlund | partial")
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
    for name, help_text in [
        ("kernel-profile", "L1 norms, integrals and tails of a kernel family"),
        (
            "identity-check",
            "run the algebraic identity suite at tolerance 1e-12 (x M_r on blocks)",
        ),
        ("converge", "pointwise or L_p error profile of a summability mean"),
        ("classify-weights", "monotonicity and sup statistics of a weight family"),
        ("bench-transform", "time the naive vs fast transform and check agreement"),
    ]:
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
