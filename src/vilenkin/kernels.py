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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .group import GroupSpec
from .transform import (
    GridFunction,
    _band,
    _characters,
    _chunk_rows,
    _on_cells,
    _order_chunks,
    _synthesize_bands,
    synthesize,
)

if TYPE_CHECKING:  # circular at runtime: means imports the multiplier core
    from .means import WeightSequence

__all__ = [
    "KernelProfileRow",
    "multiplier",
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
    1 <= n and Q_n > 0.  This is the one-order case of _multipliers().
    """
    return _multipliers(family, [n], spec, weights)[0]


def _check_orders(
    family: str, ns: np.ndarray, spec: GroupSpec, weights: "WeightSequence | None"
) -> None:
    """Raise ValueError unless every order of ns has a kernel of this family."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}; expected {_FAMILIES}")
    lowest = 0 if family in ("dirichlet", "fejer") else 1
    outside = ns[(ns < lowest) | (ns > spec.size)]
    if outside.size:
        raise ValueError(f"order {outside[0]} outside [{lowest}, {spec.size}]")
    if family in ("dirichlet", "fejer"):
        return
    if weights is None:
        raise ValueError(f"kernel family {family!r} needs weights")
    flat = ns[weights.Q_array(int(ns.max(initial=0)))[ns] <= 0]
    if flat.size:
        raise ValueError(f"Q({flat[0]}) not positive for {weights.label()}")


def _multipliers(
    family: str,
    ns: Sequence[int],
    spec: GroupSpec,
    weights: "WeightSequence | None" = None,
) -> np.ndarray:
    """The (len(ns) x max(ns)) stack of the order-n multipliers, zero-padded.

    Row i is lambda_{ns[i]} followed by zeros.  Each entry is the one-order
    formula, elementwise, or for t a sequential cumulative sum along its row
    starting at q_{n-1}, so every row is bitwise the one-order result.
    """
    ns = np.asarray(ns, dtype=np.int64)
    _check_orders(family, ns, spec, weights)
    j = np.arange(ns.max(initial=0))
    n = ns[:, None]
    inside = j < n
    out = np.zeros(inside.shape)
    if family == "dirichlet":
        out[inside] = 1.0
    elif family == "fejer":
        np.divide(n - j, n, out=out, where=inside)
    elif family == "t":
        # lambda_n(j) is the suffix sum q_{j+1} + ... + q_{n-1}, summed from
        # q_{n-1} down: entry n-2-j of the running sum of q_{n-1}, q_{n-2}, ...
        q = weights.q_array(len(j))
        down = np.cumsum(np.where(inside, q[np.maximum(n - 1 - j, 0)], 0.0), axis=1)
        suffix = np.take_along_axis(down, np.maximum(n - 2 - j, 0), axis=1)
        np.divide(suffix, weights.Q_array(len(j))[n], out=out, where=j < n - 1)
    else:
        Q = weights.Q_array(len(j))
        np.divide(Q[np.where(inside, n - j, 0)], Q[n], out=out, where=inside)
    return out


def _order_stacks(
    family: str,
    coeffs: np.ndarray,
    ns: Iterable[int],
    spec: GroupSpec,
    weights: "WeightSequence | None" = None,
) -> Iterator[np.ndarray]:
    """synthesize(coeffs[:n] * lambda_n) on the M_s cells of its band, for each n in ns.

    With coeffs = fhat this is the order-n mean of f.  A kernel is the mean
    of the unit impulse, whose coefficients are all 1, so the kernel sweeps
    pass np.broadcast_to(1.0, M_N): no array, and x * 1.0 = x bitwise.  A
    row of band M_s is a function of x mod M_s, so the sweeps reduce it on
    those M_s cells (or on a larger band that nests it).  The multiplied
    coefficients are built, and synthesized in stacked butterflies, a chunk
    of orders at a time; the rows come as the butterflies' (rows x M_s)
    stacks, in the order of ns.
    """
    blocks = (
        coeffs[: max(chunk)] * _multipliers(family, chunk, spec, weights)
        for chunk in _order_chunks(ns)
    )
    return _synthesize_bands(spec, blocks)


def _order_sweep(
    family: str,
    coeffs: np.ndarray,
    ns: Iterable[int],
    spec: GroupSpec,
    weights: "WeightSequence | None" = None,
) -> Iterator[np.ndarray]:
    """The rows of _order_stacks(), one per order of ns."""
    for stack in _order_stacks(family, coeffs, ns, spec, weights):
        yield from stack


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
    floating-point order, over every case at once.  Every term of the
    reflection and block identities is a function of x mod M_r, so their
    residuals are taken on the M_r cells x < M_r, the three kernels of one
    case synthesized as one block.
    """
    if kind == "abel-kernel":
        if weights is None or n is None:
            raise ValueError("abel-kernel residual needs weights and n")
        return next(abel_kernel_residuals(spec, weights, [n]))[1]
    if kind == "reflection":
        if rank is None or j is None:
            raise ValueError("reflection residual needs rank and j")
    elif kind == "block":
        if weights is None or rank is None:
            raise ValueError("block residual needs weights and rank")
    else:
        raise ValueError(f"unknown identity kind {kind!r}")
    if not 0 <= rank <= spec.levels:
        raise ValueError(f"rank {rank} outside [0, {spec.levels}]")
    block = spec.M[rank]
    if kind == "reflection":
        if not 0 <= j < block:
            raise ValueError(f"offset {j} outside [0, {block})")
        # D_0 = 0 makes the gap at j = 0 the plain |D_{M_r} - D_{M_r}| = 0
        coeffs = _multipliers("dirichlet", [block - j, block, j], spec)
    else:
        families = ("t", "dirichlet", "norlund")
        coeffs = np.concatenate([_multipliers(family, [block], spec, weights) for family in families])
    lhs, full, low = _on_cells(spec, coeffs, block)
    return float(_reflection_gap(lhs, full, _characters(spec, [block - 1], block)[0], low))


def _reflection_gap(
    lhs: np.ndarray,
    full: np.ndarray,
    row: np.ndarray | None = None,
    low: np.ndarray | None = None,
) -> np.ndarray:
    """max |D_{M-j} - (D_M - psi_{M-1} conj(D_j))| along the last axis.

    lhs and low may be stacks of rows, one case per row; row and low are
    absent at j = 0.  The terms after the first are computed in place, in
    the order of that formula, so one array of lhs's size is allocated
    besides the magnitudes.
    """
    if low is None:
        return np.max(np.abs(lhs - full), axis=-1)
    gap = np.conjugate(low)
    np.multiply(row, gap, out=gap)
    np.subtract(full, gap, out=gap)
    np.subtract(lhs, gap, out=gap)
    return np.max(np.abs(gap), axis=-1)


def reflection_residuals(spec: GroupSpec) -> Iterator[tuple[int, int, float]]:
    """(rank, j, residual) of the reflection identity for every rank and j < M_rank.

    Offsets j and M_r - j need the same two Dirichlet kernels, so each rank
    synthesizes D_1, ..., D_{M_r} once and psi_{M_r - 1} once: sum_r M_r
    syntheses in all.  Every term is a function of x mod M_r, so the
    residuals are taken on the M_r cells x < M_r, kernels of a lower band
    repeated over them.  The kernels run in chunks of pairs
    (D_j, D_{M_r - j}) that together fill at most _SYNTH_CHUNK_CELLS cells,
    and the gaps of a chunk are taken as one stack.
    """
    for rank in range(spec.levels + 1):
        block = spec.M[rank]
        full = _on_cells(spec, _multipliers("dirichlet", [block], spec), block)[0]
        yield rank, 0, float(_reflection_gap(full, full))
        if block == 1:
            continue
        row = _characters(spec, [block - 1], block)[0]
        half = block // 2
        for start in range(1, half + 1, _chunk_rows(2 * block)):
            js = range(start, min(start + _chunk_rows(2 * block), half + 1))
            pairs = [j for j in js if 2 * j != block]  # j = M_r / 2 is its own pair
            # D_j, then D_{M_r - j}, each in ascending order, so that rows of
            # one band stay adjacent
            orders = [*js, *(block - j for j in reversed(pairs))]
            kernel = _on_cells(spec, _multipliers("dirichlet", orders, spec), block)
            low, high = kernel[: len(pairs)], kernel[len(js) :][::-1]
            gaps = zip(
                _reflection_gap(high, full, row, low).tolist(),
                _reflection_gap(low, full, row, high).tolist(),
            )
            for j, (gap, mirrored) in zip(pairs, gaps):
                yield rank, j, gap
                yield rank, block - j, mirrored
            if len(pairs) < len(js):
                middle = kernel[len(pairs)]
                yield rank, half, float(_reflection_gap(middle, full, row, middle))


def _abel_walk(
    spec: GroupSpec, weights: "WeightSequence", ns: Sequence[int], rows: int
) -> tuple[list[int], Iterator[tuple[np.ndarray, np.ndarray, slice | np.ndarray]]]:
    """The orders n <= 1 of ascending t orders ns, and the chunks of their Abel sweep.

    The orders are checked at this call.  A chunk (k, n, at) holds rows of
    the steps k = 1, ..., max(ns) - 1, the orders n with n - 1 among them,
    and the rows n - 1 - k[0] those orders read (a slice when they read
    every row).  abel_kernel_residuals() and means.t_mean_oracles() walk
    these chunks, carrying their running sums from one to the next.
    """
    ns = list(ns)
    for previous, n in zip(ns, ns[1:]):
        if n < previous:
            raise ValueError(f"orders must ascend, got {n} after {previous}")
    _check_orders("t", np.asarray(ns, dtype=np.int64), spec, weights)
    top = max(ns, default=0)

    def chunks() -> Iterator[tuple[np.ndarray, np.ndarray, slice | np.ndarray]]:
        for a in range(1, top, rows):
            k = np.arange(a, min(a + rows, top))
            orders = ns[bisect_left(ns, a + 1) : bisect_left(ns, k[-1] + 2)]
            n = np.asarray(orders, dtype=np.int64)
            at = n - 1 - a
            yield k, n, slice(len(k)) if np.array_equal(at, np.arange(len(k))) else at

    return ns[: bisect_left(ns, 2)], chunks()


def abel_kernel_residuals(
    spec: GroupSpec, weights: "WeightSequence", ns: Sequence[int]
) -> Iterator[tuple[int, float]]:
    """(n, residual) of the abel-kernel identity for each order of ascending ns.

    The right-hand side is kept as a running sum over i of
    (q_i - q_{i+1}) i K_i, added in increasing i, so every K_i with
    i < max(ns) is synthesized once and each order costs one t kernel on
    top.  Every kernel involved lives on a band nested in that of max(ns),
    and the running sum is kept on that band's cells.  The K_i run a chunk
    at a time: the chunk's running sums are one cumulative sum down the
    stack of its terms, the very additions of a loop over i, and the orders
    n whose K_{n-1} it holds take their t kernels and gaps as one stack.
    """
    top = max(ns, default=0)
    cells = _band(spec, min(top, spec.size))
    low, chunks = _abel_walk(spec, weights, ns, _chunk_rows(cells))
    q, Q = weights.q_array(top + 1), weights.Q_array(top)  # q_top weighs a term no order reads
    if low:  # an order n <= 1 has no K_i on its right-hand side, which is zero
        lhs = _on_cells(spec, _multipliers("t", low, spec, weights), cells)
        yield from zip(low, np.max(np.abs(lhs), axis=-1).tolist())
    partial = np.zeros(cells, dtype=np.complex128)  # the terms i < k[0]
    for k, n, at in chunks:
        kernel = _on_cells(spec, _multipliers("fejer", k, spec), cells)  # K_i, i in k
        sums = np.empty((len(k) + 1, cells), dtype=np.complex128)
        sums[0] = partial
        np.multiply(((q[k] - q[k + 1]) * k)[:, None], kernel, out=sums[1:])
        np.cumsum(sums, axis=0, out=sums)  # row r: the terms i < k[r]
        partial = sums[-1].copy()
        if not n.size:
            continue
        rhs = kernel[at]
        np.multiply((q[n - 1] * (n - 1))[:, None], rhs, out=rhs)
        np.add(sums[at], rhs, out=rhs)
        np.divide(rhs, Q[n][:, None], out=rhs)
        del kernel, sums
        lhs = _on_cells(spec, _multipliers("t", n, spec, weights), cells)
        gap = np.subtract(lhs, rhs, out=rhs)
        yield from zip(n.tolist(), np.max(np.abs(gap), axis=-1).tolist())


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
    unit = np.broadcast_to(1.0, spec.size)  # the unit impulse's coefficients
    for n, values in zip(ns, _order_sweep(family, unit, ns, spec, weights)):
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
    unit = np.broadcast_to(1.0, spec.size)  # the unit impulse's coefficients
    # the denominators live on the band M_top of K_{M_top}, which nests the
    # bands of the others; each ratio is taken on the larger of that band
    # and its numerator's
    denoms = np.cumsum(
        [
            M * np.tile(np.abs(values), blocks[-1] // len(values))
            for M, values in zip(blocks, _order_sweep("fejer", unit, blocks, spec))
        ],
        axis=0,
    )
    best = 0.0
    ns = sorted(ns)
    for n, values in zip(ns, _order_sweep("fejer", unit, ns, spec)):
        cells = max(len(values), blocks[-1])
        num = np.tile(n * np.abs(values), cells // len(values))
        den = np.tile(denoms[_leading_position(n, spec)], cells // blocks[-1])
        ratio = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        best = max(best, float(ratio.max()))
    return best
