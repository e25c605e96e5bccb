"""Oracle routes: the slow, independent computations that cross-check the fast ones.

Each oracle reaches a known result by another numerical path than the
library's fast route, so that the two can be compared:

    _forward_naive          forward(method="naive"): the defining sums,
                            one conjugated character row per coefficient
    identity_residual       one case of the reflection, abel-kernel or
                            block kernel identity
    reflection_residuals    every reflection case, each kernel synthesized once
    abel_kernel_residuals   every abel-kernel order, each K_i synthesized once
    t_mean_oracles          t_mean(method="direct"|"abel") for many orders
    abel_weight_residual    summation by parts on the weights alone

They live apart from the fast routes so that a job which needs none of them
never loads or compiles them.  Only the identity check, bench-transform,
forward(method="naive"), t_mean(method="direct"|"abel") and the package's
lazy attributes import this module, each when first called.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Sequence

import numpy as np

from .group import GroupSpec
from .kernels import _check_orders, _multipliers
from .means import WeightSequence
from .transform import (
    GridFunction,
    _band,
    _characters,
    _chunk_rows,
    _on_cells,
    forward,
)

__all__ = [
    "identity_residual",
    "reflection_residuals",
    "abel_kernel_residuals",
    "t_mean_oracles",
    "abel_weight_residual",
]

# Cells (rows x M_N) per chunk of the naive transform: about 10 MB of
# working memory at any M_N.
_NAIVE_CHUNK_CELLS = 2**18


def _forward_naive(f: GridFunction) -> np.ndarray:
    """Direct quadratic-cost analysis: one conjugated character row per n.

    Each chunk holds its phases, rows and their conjugate, about 40 bytes
    per row and cell, so the rows per chunk shrink as M_N grows to keep a
    chunk near _NAIVE_CHUNK_CELLS cells.
    """
    spec = f.spec
    out = np.empty(spec.size, dtype=np.complex128)
    chunk = max(1, _NAIVE_CHUNK_CELLS // spec.size)
    for start in range(0, spec.size, chunk):
        ns = np.arange(start, min(start + chunk, spec.size), dtype=np.int64)
        rows = _characters(spec, ns)
        out[ns] = rows.conj() @ f.values
    return out / spec.size


def identity_residual(
    kind: str,
    spec: GroupSpec,
    *,
    rank: int | None = None,
    j: int | None = None,
    n: int | None = None,
    weights: WeightSequence | None = None,
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
    block = spec._place(rank)
    if kind == "reflection":
        if not 0 <= j < block:
            raise ValueError(f"offset {j} outside [0, {block})")
        # D_0 = 0 makes the gap at j = 0 the plain |D_{M_r} - D_{M_r}| = 0
        coeffs = _multipliers("dirichlet", [block - j, block, j], spec)
    else:
        families = ("t", "dirichlet", "norlund")
        coeffs = np.concatenate([_multipliers(family, [block], spec, weights) for family in families])
    lhs, full, low = _on_cells(spec, coeffs, block)
    return float(_reflection_gap(lhs, full, _last_character(spec, block), low))


def _last_character(spec: GroupSpec, block: int) -> np.ndarray:
    """psi_{M_r - 1} on the M_r cells x < M_r, the character of the reflection and block identities."""
    return _characters(spec, [block - 1], block)[0]


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
        row = _last_character(spec, block)
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
    spec: GroupSpec, weights: WeightSequence, ns: Sequence[int], rows: int
) -> tuple[list[int], Iterator[tuple[np.ndarray, np.ndarray, slice | np.ndarray]]]:
    """The orders n <= 1 of ascending t orders ns, and the chunks of their Abel sweep.

    The orders are checked at this call.  A chunk (k, n, at) holds rows of
    the steps k = 1, ..., max(ns) - 1, the orders n with n - 1 among them,
    and the rows n - 1 - k[0] those orders read (a slice when they read
    every row).  abel_kernel_residuals() and t_mean_oracles() walk
    these chunks, carrying their running sums from one to the next.
    """
    ns = list(ns)
    for previous, n in zip(ns, ns[1:]):
        if n < previous:
            raise ValueError(f"orders must ascend, got {n} after {previous}")
    _check_orders("t", ns, spec, weights)
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
    spec: GroupSpec, weights: WeightSequence, ns: Sequence[int]
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


def t_mean_oracles(
    f: GridFunction, w: WeightSequence, ns: Sequence[int]
) -> Iterator[tuple[list[int], np.ndarray, np.ndarray]]:
    """(orders, direct T_n f, abel T_n f) for ascending ns, in one pass, a chunk at a time.

    With S_k = sum_{i<k} fhat(i) psi_i and R_k = S_1 + ... + S_k (so that
    R_k = k sigma_k f), the two oracle routes are

        direct  Q_n T_n f = sum_{k<n} q_k S_k
        abel    Q_n T_n f = sum_{j=1}^{n-2} (q_j - q_{j+1}) R_j + q_{n-1} R_{n-1}

    Both are running sums in k, so one forward(f) and one character row per
    k < max(ns) - 1 serve every order.  The full forward(f), not an
    analysis up to max(ns), keeps every order's value independent of the
    other orders in ns.  The steps k run in chunks of _chunk_rows(M_N): one
    stack of character rows psi_{k-1}, and each running sum (S_k, R_k, the
    direct and the Abel sums) one cumulative sum down the stack of its
    terms, started from the previous chunk's last row, so every value is a
    loop's additions in the loop's order.  A chunk yields the orders n with
    n - 1 among its steps, both routes as fresh (orders x M_N) stacks, in
    O(_SYNTH_CHUNK_CELLS + M_N) working memory.
    """
    spec = f.spec
    top = max(ns, default=0)
    low, chunks = _abel_walk(spec, w, ns, _chunk_rows(spec.size))
    if not top:  # no orders, and no transform
        return
    fh = forward(f).coeffs
    q, Q = w.q_array(top + 1), w.Q_array(top)  # q_top weighs a term no order reads
    if low:  # order 1 reads step 0, where every sum is still zero
        zero = np.zeros((len(low), spec.size), dtype=np.complex128)
        yield low, zero, zero.copy()
    # S_{k-1}, R_{k-1}, the direct sum and the Abel terms j < k, k = k[0]
    S, R, direct, abel = (np.zeros(spec.size, dtype=np.complex128) for _ in range(4))
    for k, n, at in chunks:
        Ss = _characters(spec, k - 1)
        np.multiply(fh[k - 1][:, None], Ss, out=Ss)
        _accumulate(S, Ss)
        Rs = Ss.copy()
        _accumulate(R, Rs)
        As = np.empty((len(k) + 1, spec.size), dtype=np.complex128)
        As[0] = abel
        np.multiply((q[k] - q[k + 1])[:, None], Rs, out=As[1:])
        np.cumsum(As, axis=0, out=As)  # row r: the terms j < k[r]
        S, R, abel = Ss[-1].copy(), Rs[-1].copy(), As[-1].copy()
        np.multiply(q[k][:, None], Ss, out=Ss)
        _accumulate(direct, Ss)
        direct = Ss[-1].copy()
        if not n.size:
            continue
        Ds, Rs, As = Ss[at], Rs[at], As[at]
        np.multiply(q[n - 1][:, None], Rs, out=Rs)  # R_{n-1} is q_{n-1}'s term
        np.add(As, Rs, out=Rs)
        del As
        np.divide(Ds, Q[n][:, None], out=Ds)
        np.divide(Rs, Q[n][:, None], out=Rs)
        yield n.tolist(), Ds, Rs


def _accumulate(start: np.ndarray, terms: np.ndarray) -> None:
    """Running sums start + terms[0], ... + terms[i] down a stack, in place, in loop order."""
    np.add(start, terms[0], out=terms[0])
    np.cumsum(terms, axis=0, out=terms)


def abel_weight_residual(w: WeightSequence, n: int) -> float:
    """|Q_n - (q_0 + sum_{j=1}^{n-2} (q_j - q_{j+1}) j + q_{n-1} (n-1))|.

    Summation by parts rewrites Q_n in the form the kernel estimates use;
    the residual should be at machine-noise level for every family.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    q = w.q_array(n)
    rhs = q[0]
    if n >= 2:
        j = np.arange(1, n - 1)
        rhs += float(np.sum((q[j] - q[j + 1]) * j)) + q[n - 1] * (n - 1)
    return abs(w.Q(n) - rhs)
