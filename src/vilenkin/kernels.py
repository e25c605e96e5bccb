"""Summability kernels and the identities that control their L1 size.

All kernels are finite character sums, synthesized from their coefficient
vectors:

    dirichlet  D_n = sum_{k<n} psi_k                      (D_0 = 0)
    fejer      K_n = (1/n) sum_{k=1}^{n} D_k              (K_0 = 0)
    t_kernel   (1/Q_n) sum_{k=0}^{n-1} q_k D_k            forward frame
    norlund    (1/Q_n) sum_{k=1}^{n} q_{n-k} D_k          reversed frame

Collecting the coefficient of psi_j gives closed forms (e.g. (n-j)/n for the
Fejer kernel), returned by multiplier(), so each kernel is one synthesis pass
and each matching mean is the same pass over the multiplied spectrum of f.
The identity checks in identity_residual() deliberately rebuild their
right-hand sides from other kernels so that the two sides travel different
numerical paths; reflection_residuals() and abel_kernel_residuals() run the
same checks over every case in one pass, synthesizing each kernel once.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .group import GroupSpec
from .transform import (
    _SYNTH_CHUNK_CELLS,
    GridFunction,
    _band,
    _synthesize_bands,
    _synthesize_rows,
    character_row,
)

if TYPE_CHECKING:  # circular at runtime: means imports the multiplier core
    from .means import WeightSequence

__all__ = [
    "KernelProfileRow",
    "multiplier",
    "synthesize",
    "dirichlet",
    "fejer",
    "t_kernel",
    "norlund_kernel",
    "identity_residual",
    "reflection_residuals",
    "abel_kernel_residuals",
    "l1_profile",
    "domination_constant",
]


_FAMILIES = ("dirichlet", "fejer", "t", "norlund")


def multiplier(
    family: str, n: int, spec: GroupSpec, weights: "WeightSequence | None" = None
) -> np.ndarray:
    """Coefficients lambda_n(j), j < n, of the order-n kernel of one family.

        dirichlet  1                   (n = 0 gives the zero kernel)
        fejer      (n - j)/n           (n = 0 gives the zero kernel)
        t          (Q_n - Q_{j+1})/Q_n
        norlund    Q_{n-j}/Q_n

    The kernel is synthesize(spec, lambda_n) and the matching mean of f is
    synthesize(spec, fhat[:n] * lambda_n).  The weighted families need
    1 <= n and Q_n > 0.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}; expected {_FAMILIES}")
    lowest = 0 if family in ("dirichlet", "fejer") else 1
    if not lowest <= n <= spec.size:
        raise ValueError(f"order {n} outside [{lowest}, {spec.size}]")
    if family == "dirichlet":
        return np.ones(n)
    if family == "fejer":
        return (n - np.arange(n)) / n
    if weights is None:
        raise ValueError(f"kernel family {family!r} needs weights")
    if weights.Q(n) <= 0:
        raise ValueError(f"Q({n}) not positive for {weights.label()}")
    if family == "t":
        q = weights.q_array(n)
        suffix = np.zeros(n + 1)
        suffix[:n] = np.cumsum(q[::-1])[::-1]
        return suffix[1:] / weights.Q(n)
    Q = weights.Q_array(n)
    return Q[n:0:-1] / Q[n]


def synthesize(spec: GroupSpec, coeffs: np.ndarray) -> GridFunction:
    """sum_{j < len(coeffs)} coeffs[j] * psi_j: one inverse transform.

    The one-row case of the batched synthesis the sweeps below use, so a
    swept kernel equals its single call exactly.
    """
    return next(_synthesize_rows(spec, [coeffs]))


def _kernels(
    family: str,
    ns: Iterable[int],
    spec: GroupSpec,
    weights: "WeightSequence | None" = None,
) -> Iterator[np.ndarray]:
    """The order-n kernel on the M_s cells of its band, for each n in ns, batched.

    A kernel of band M_s is a function of x mod M_s, so the sweeps below
    reduce it on those M_s cells (or on a larger band that nests it).
    """
    return _synthesize_bands(spec, (multiplier(family, n, spec, weights) for n in ns))


def dirichlet(n: int, spec: GroupSpec) -> GridFunction:
    """Dirichlet kernel D_n; D_0 is the zero function."""
    return synthesize(spec, multiplier("dirichlet", n, spec))


def fejer(n: int, spec: GroupSpec) -> GridFunction:
    """Fejer kernel K_n = (1/n) sum_{k=1}^n D_k; K_0 is the zero function."""
    return synthesize(spec, multiplier("fejer", n, spec))


def t_kernel(w: "WeightSequence", n: int, spec: GroupSpec) -> GridFunction:
    """Forward-frame kernel (1/Q_n) sum_{k<n} q_k D_k.

    The psi_j coefficient is (Q_n - Q_{j+1})/Q_n, so the kernel integrates
    to (Q_n - q_0)/Q_n rather than 1 whenever q_0 > 0: the k = 0 term D_0
    vanishes and takes the weight q_0 with it.
    """
    return synthesize(spec, multiplier("t", n, spec, w))


def norlund_kernel(w: "WeightSequence", n: int, spec: GroupSpec) -> GridFunction:
    """Reversed-frame kernel (1/Q_n) sum_{k=1}^n q_{n-k} D_k.

    The psi_j coefficient is Q_{n-j}/Q_n; the kernel always integrates to 1.
    """
    return synthesize(spec, multiplier("norlund", n, spec, w))


def identity_residual(
    kind: str,
    spec: GroupSpec,
    *,
    rank: int | None = None,
    j: int | None = None,
    n: int | None = None,
    weights: "WeightSequence | None" = None,
) -> float:
    """Max-abs residual of one algebraic kernel identity over the grid.

    kind='reflection' (takes rank and j < M_rank):
        D_{M_r - j} = D_{M_r} - psi_{M_r - 1} * conj(D_j)
    kind='abel-kernel' (takes weights and n):
        Q_n * t_kernel_n = sum_{j=1}^{n-2} (q_j - q_{j+1}) j K_j
                           + q_{n-1} (n-1) K_{n-1}
    kind='block' (takes weights and rank, with Q(M_rank) > 0):
        t_kernel_{M_r} = D_{M_r} - psi_{M_r - 1} * conj(norlund_kernel_{M_r})

    The sweeps reflection_residuals() and abel_kernel_residuals() evaluate
    the first two identities with these same formulas, in the same
    floating-point order, over every case at once.
    """
    if kind == "reflection":
        if rank is None or j is None:
            raise ValueError("reflection residual needs rank and j")
        if not 0 <= rank <= spec.levels:
            raise ValueError(f"rank {rank} outside [0, {spec.levels}]")
        block = spec.M[rank]
        if not 0 <= j < block:
            raise ValueError(f"offset {j} outside [0, {block})")
        full = dirichlet(block, spec).values
        if not j:
            return _reflection_gap(full, full)
        row = character_row(spec, block - 1)
        return _reflection_gap(
            dirichlet(block - j, spec).values, full, row, dirichlet(j, spec).values
        )
    if kind == "abel-kernel":
        if weights is None or n is None:
            raise ValueError("abel-kernel residual needs weights and n")
        return next(abel_kernel_residuals(spec, weights, [n]))[1]
    if kind == "block":
        if weights is None or rank is None:
            raise ValueError("block residual needs weights and rank")
        if not 0 <= rank <= spec.levels:
            raise ValueError(f"rank {rank} outside [0, {spec.levels}]")
        # every term is a function of x mod M_r, so the residual is taken
        # on the M_r cells x < M_r, with the reflection identity's formula
        block = spec.M[rank]
        lhs, full, low = (
            _on_cells(next(_kernels(family, [block], spec, weights)), block)
            for family in ("t", "dirichlet", "norlund")
        )
        return _reflection_gap(lhs, full, character_row(spec, block - 1)[:block], low)
    raise ValueError(f"unknown identity kind {kind!r}")


def _on_cells(values: np.ndarray, cells: int) -> np.ndarray:
    """A kernel given on its band, repeated out to a nesting band of cells cells."""
    return values if len(values) == cells else np.tile(values, cells // len(values))


def _reflection_gap(
    lhs: np.ndarray,
    full: np.ndarray,
    row: np.ndarray | None = None,
    low: np.ndarray | None = None,
) -> float:
    """max |D_{M-j} - (D_M - psi_{M-1} conj(D_j))|; row and low are absent at j = 0.

    The terms after the first are computed in place, in the order of that
    formula, so one array of lhs's size is allocated besides the magnitudes.
    """
    if low is None:
        return float(np.max(np.abs(lhs - full)))
    gap = np.conjugate(low)
    np.multiply(row, gap, out=gap)
    np.subtract(full, gap, out=gap)
    np.subtract(lhs, gap, out=gap)
    return float(np.max(np.abs(gap)))


def reflection_residuals(spec: GroupSpec) -> Iterator[tuple[int, int, float]]:
    """(rank, j, residual) of the reflection identity for every rank and j < M_rank.

    Offsets j and M_r - j need the same two Dirichlet kernels, so each rank
    synthesizes D_1, ..., D_{M_r} once and psi_{M_r - 1} once: sum_r M_r
    syntheses in all.  Every term is a function of x mod M_r, so the
    residuals are taken on the M_r cells x < M_r, kernels of a lower band
    broadcast over them.  The kernels run in chunks of pairs
    (D_j, D_{M_r - j}) that together fill at most _SYNTH_CHUNK_CELLS cells.
    """
    for rank in range(spec.levels + 1):
        block = spec.M[rank]
        full = next(_kernels("dirichlet", [block], spec))
        yield rank, 0, _reflection_gap(full, full)
        if block == 1:
            continue
        row = character_row(spec, block - 1)[:block]
        pairs = max(1, _SYNTH_CHUNK_CELLS // (2 * block))
        half = block // 2
        for start in range(1, half + 1, pairs):
            js = range(start, min(start + pairs, half + 1))
            # D_j, then D_{M_r - j}, each in ascending order, so that rows of
            # one band stay adjacent
            orders = [*js, *(block - j for j in reversed(js) if 2 * j != block)]
            kernel = {
                n: _on_cells(values, block)
                for n, values in zip(orders, _kernels("dirichlet", orders, spec))
            }
            for j in js:
                low, high = kernel[j], kernel[block - j]
                yield rank, j, _reflection_gap(high, full, row, low)
                if 2 * j != block:
                    yield rank, block - j, _reflection_gap(low, full, row, high)


def abel_kernel_residuals(
    spec: GroupSpec, weights: "WeightSequence", ns: Sequence[int]
) -> Iterator[tuple[int, float]]:
    """(n, residual) of the abel-kernel identity for each order of ascending ns.

    The right-hand side is kept as a running sum over i of
    (q_i - q_{i+1}) i K_i, added in increasing i, so every K_i with
    i < max(ns) is synthesized once and each order costs one t kernel on
    top; the K_i and the t kernels run as two batched sweeps.  Every kernel
    involved lives on a band nested in that of max(ns), and the running sum
    is kept on that band's cells.
    """
    ns = list(ns)
    for previous, n in zip(ns, ns[1:]):
        if n < previous:
            raise ValueError(f"orders must ascend, got {n} after {previous}")
    lhs_kernels = _kernels("t", ns, spec, weights)  # also validates n and Q_n
    fejer_kernels = _kernels("fejer", range(1, max(ns, default=0)), spec)
    cells = _band(spec, min(max(ns, default=0), spec.size))
    partial = np.zeros(cells, dtype=np.complex128)  # the terms i = 1..done
    done = 0
    kernel = None  # K_{done + 1} on its band, once synthesized
    for n, lhs in zip(ns, lhs_kernels):
        q = weights.q_array(n)
        while done < n - 2:
            done += 1
            values = next(fejer_kernels) if kernel is None else kernel
            fibres = partial.reshape(-1, len(values))
            fibres += (q[done] - q[done + 1]) * done * values
            kernel = None
        rhs = partial
        if n >= 2:
            kernel = next(fejer_kernels) if kernel is None else kernel
            rhs = partial.reshape(-1, len(kernel)) + q[n - 1] * (n - 1) * kernel
            rhs = rhs.reshape(-1)
        gap = lhs - (rhs / weights.Q(n)).reshape(-1, len(lhs))
        yield n, float(np.max(np.abs(gap)))


@dataclass(frozen=True)
class KernelProfileRow:
    """L1 size, Haar integral and off-interval tail of one kernel order."""

    n: int
    l1: float
    integral: complex
    tail: float


def l1_profile(
    family: str,
    ns: Sequence[int],
    spec: GroupSpec,
    *,
    weights: "WeightSequence | None" = None,
    tail_rank: int = 1,
) -> list[KernelProfileRow]:
    """Profile ||k_n||_1, integral and the mass outside I_tail_rank(0).

    The tail is (1/M_N) * sum over x outside the rank-tail_rank interval at 0
    of |k_n(x)|, the quantity the localization estimates bound.
    """
    if not 0 <= tail_rank <= spec.levels:
        raise ValueError(f"tail rank {tail_rank} outside [0, {spec.levels}]")
    tail_block = spec.M[tail_rank]
    rows = []
    ns = sorted(ns)
    for n, values in zip(ns, _kernels(family, ns, spec, weights)):
        # |k_n| and the outside of I_tail_rank(0) both have period
        # max(M_s, M_tail_rank), so the averages over M_N cells are
        # averages over that many
        cells = max(len(values), tail_block)
        mags = np.tile(np.abs(values), cells // len(values))
        rows.append(
            KernelProfileRow(
                n=n,
                l1=float(mags.mean()),
                integral=complex(values.mean()),
                tail=float(mags.reshape(-1, tail_block)[:, 1:].sum() / cells),
            )
        )
    return rows


def _leading_position(n: int, spec: GroupSpec) -> int:
    """Position of the leading nonzero digit of n (|n| in digit terms)."""
    if not 1 <= n <= spec.size:
        raise ValueError(f"index {n} outside [1, {spec.size}]")
    return bisect_right(spec.M, n) - 1


def domination_constant(ns: Sequence[int], spec: GroupSpec) -> float:
    """Smallest c with n|K_n| <= c * sum_{l<=|n|} M_l |K_{M_l}| over given n.

    Returns the max over the grid and over n of the pointwise ratio; the
    denominator never vanishes because K_{M_0} = K_1 = 1 everywhere, but a
    0/0 guard is kept for safety.
    """
    if len(ns) == 0:
        raise ValueError("need at least one n")
    top = max(_leading_position(n, spec) for n in ns)
    blocks = spec.M[: top + 1]
    # the denominators live on the band M_top of K_{M_top}, which nests the
    # bands of the others; each ratio is taken on the larger of that band
    # and its numerator's
    denoms = np.cumsum(
        [
            M * np.tile(np.abs(values), blocks[-1] // len(values))
            for M, values in zip(blocks, _kernels("fejer", blocks, spec))
        ],
        axis=0,
    )
    best = 0.0
    ns = sorted(ns)
    for n, values in zip(ns, _kernels("fejer", ns, spec)):
        cells = max(len(values), blocks[-1])
        num = np.tile(n * np.abs(values), cells // len(values))
        den = np.tile(denoms[_leading_position(n, spec)], cells // blocks[-1])
        ratio = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        best = max(best, float(ratio.max()))
    return best
