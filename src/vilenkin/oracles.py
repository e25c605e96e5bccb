"""Oracle routes: the slow, independent computations that cross-check the fast ones.

Each oracle reaches a known result by another numerical path than the
library's fast route, so that the two can be compared:

    forward_naive           the defining sums of the analysis, one
                            conjugated character row per coefficient
    identity_residual       one case of the reflection or block kernel identity
    reflection_residuals    every reflection case, each kernel synthesized once
    abel_kernel_residuals   the abel-kernel identity for many orders,
                            each K_i synthesized once
    t_mean_oracles          T_n f by direct and by Abel accumulation for many orders
    abel_weight_residual    summation by parts on the weights alone

They live apart from the fast routes so that a job which needs none of them
never loads or compiles them.  No module of the package imports this one
but the CLI, inside the identity check and bench-transform; the tests
import it directly.  _identity_cells prices the identity check's routes for
the CLI's work budget.
"""

from __future__ import annotations

import operator
from numbers import Integral
from typing import Iterator, Sequence

import numpy as np

from .group import GroupSpec, _check_type
from .kernels import _check_orders, _multipliers, _order_cells, _order_stacks
from .transform import GridFunction, _band, _characters, _runs, _synthesize_bands, _tiled, forward
from .weights import WeightSequence

__all__ = [
    "forward_naive",
    "identity_residual",
    "reflection_residuals",
    "abel_kernel_residuals",
    "t_mean_oracles",
    "abel_weight_residual",
]

# Cells (rows x M_N) per chunk of the naive transform: about 10 MB of
# working memory at any M_N.
_NAIVE_CHUNK_CELLS = 2**18


def forward_naive(f: GridFunction) -> np.ndarray:
    """forward(f) by its defining sums: a fresh read-only vector, one conjugated character row per n.

    fhat(n) = (1/M_N) * sum_x f(x) * conj(psi_n(x)) at quadratic cost.  Each
    chunk holds its phases, rows and their conjugate, about 40 bytes per row
    and cell, so the rows per chunk shrink as M_N grows to keep a chunk near
    _NAIVE_CHUNK_CELLS cells.
    """
    _check_type("forward_naive: f", f, GridFunction)
    spec = f.spec
    out = np.empty(spec.size, dtype=np.complex128)
    chunk = max(1, _NAIVE_CHUNK_CELLS // spec.size)
    for start in range(0, spec.size, chunk):
        ns = range(spec.size)[start : start + chunk]
        out[ns] = _characters(spec, ns).conj() @ f.values
    out /= spec.size
    out.setflags(write=False)
    return out


def identity_residual(
    kind: str,
    spec: GroupSpec,
    *,
    rank: int | None = None,
    j: int | None = None,
    weights: WeightSequence | None = None,
) -> float:
    """Max-abs residual of one algebraic kernel identity over the grid.

    kind='reflection' (takes rank and j < M_rank):
        D_{M_r - j} = D_{M_r} - psi_{M_r - 1} * conj(D_j)
    kind='block' (takes weights and rank, with Q(M_rank) > 0):
        t_kernel_{M_r} = D_{M_r} - psi_{M_r - 1} * conj(norlund_kernel_{M_r})

    The sweep reflection_residuals() evaluates the first identity with this
    same formula, in the same floating-point order, over every case at once.
    Every term of both identities is a function of x mod M_r, so their
    residuals are taken on the M_r cells x < M_r, the three kernels of one
    case synthesized as one block.  The abel-kernel identity of one order n
    is next(abel_kernel_residuals(spec, weights, [n]))[1].
    """
    _check_type("identity_residual: spec", spec, GroupSpec)
    if kind == "reflection":
        if rank is None or j is None:
            raise ValueError("reflection residual needs rank and j")
    elif kind == "block":
        if weights is None or rank is None:
            raise ValueError("block residual needs weights and rank")
    else:
        raise ValueError(f"unknown identity kind {kind!r}")
    _check_type("identity_residual: rank", rank, Integral)
    block = spec._place(rank)
    if kind == "reflection":
        _check_type("identity_residual: j", j, Integral)
        if not 0 <= j < block:
            raise ValueError(f"offset {j} outside [0, {block})")
        # D_0 = 0 makes the gap at j = 0 the plain |D_{M_r} - D_{M_r}| = 0
        coeffs = _multipliers("dirichlet", [block - j, block, j], spec)
    else:
        _check_orders("t", [block], spec, weights)  # M_r has t and norlund kernels
        families = ("t", "dirichlet", "norlund")
        coeffs = np.concatenate([_multipliers(family, [block], spec, weights) for family in families])
    lhs, full, low = _on_block(spec, coeffs, block)
    return float(_reflection_gap(lhs, full, _last_character(spec, block), low))


def _on_block(spec: GroupSpec, coeffs: np.ndarray, block: int) -> np.ndarray:
    """Coefficient rows synthesized and tiled to block, an M_r nesting their bands (one stack: no copy)."""
    stacks = [_tiled(stack, block) for stack in _synthesize_bands(spec, [coeffs])]
    return stacks[0] if len(stacks) == 1 else np.vstack(stacks)


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
    _check_type("reflection_residuals: spec", spec, GroupSpec)
    for rank in range(spec.levels + 1):
        block = spec.M[rank]
        full = _on_block(spec, _multipliers("dirichlet", [block], spec), block)[0]
        yield rank, 0, float(_reflection_gap(full, full))
        if block == 1:
            continue
        row = _last_character(spec, block)
        half = block // 2
        for js in _runs(range(1, half + 1), 2 * block):
            pairs = [j for j in js if 2 * j != block]  # j = M_r / 2 is its own pair
            # D_j, then D_{M_r - j}, each in ascending order, so that rows of
            # one band stay adjacent
            orders = [*js, *(block - j for j in reversed(pairs))]
            kernel = _on_block(spec, _multipliers("dirichlet", orders, spec), block)
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


def abel_kernel_residuals(
    spec: GroupSpec, weights: WeightSequence, ns: Sequence[int]
) -> Iterator[tuple[int, float]]:
    """(n, residual) of the abel-kernel identity for each order of ascending ns.

    The right-hand side is kept as a running sum over i of
    (q_i - q_{i+1}) i K_i, added in increasing i, so every K_i with
    i < max(ns) is synthesized once and each order costs one t kernel on
    top.  Step k adds the term of K_k after the orders n = k + 1 have read
    the sum; order 1 reads step 0, where the sum and K_0 are zero.  Every
    kernel involved lives on a band nested in that of max(ns), and the
    running sum is kept on that band's cells, a kernel of a lower band
    added over each of its periods.
    """
    ns = _check_orders("t", ns, spec, weights)
    top = max(ns, default=0)
    q, Q = weights.q_array(top), weights.Q_array(top)
    total = np.zeros(_band(spec, top), dtype=np.complex128)  # the terms i < k
    fejer = (
        (i, kernel)
        for orders, stack in _order_stacks("fejer", None, range(1, top), spec)
        for i, kernel in zip(orders, stack)
    )
    k, kernel = 0, np.zeros(1)  # K_0 = 0 on M_0 = 1 cell
    for orders, stack in _order_stacks("t", None, ns, spec, weights):
        for n, lhs in zip(orders, stack):
            while k < n - 1:  # step k adds the term of K_k, then K_{k+1} comes
                periods = total.reshape(-1, len(kernel))
                periods += ((q[k] - q[k + 1]) * k) * kernel
                k, kernel = next(fejer)
            rhs = total.reshape(-1, len(kernel)) + (q[k] * k) * kernel
            rhs /= Q[k + 1]
            yield n, float(np.abs(lhs - rhs.reshape(-1, len(lhs))).max())


def t_mean_oracles(
    f: GridFunction, w: WeightSequence, ns: Sequence[int]
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(n, direct T_n f, abel T_n f) for each order of ascending ns, in one pass.

    With S_k = sum_{i<k} fhat(i) psi_i and R_k = S_1 + ... + S_k (so that
    R_k = k sigma_k f), the two oracle routes are

        direct  Q_n T_n f = sum_{k<n} q_k S_k
        abel    Q_n T_n f = sum_{j=1}^{n-2} (q_j - q_{j+1}) R_j + q_{n-1} R_{n-1}

    Both are running sums in k, so one forward(f) and one character row per
    k < max(ns) - 1 serve every order.  The full forward(f), not an
    analysis up to max(ns), keeps every order's value independent of the
    other orders in ns.  Step k adds q_k S_k to the direct sum, yields the
    orders n = k + 1, then adds (q_k - q_{k+1}) R_k to the Abel sum and
    fhat(k) psi_k to S; order 1 reads step 0, where every sum is zero.
    Each order comes as two fresh length-M_N vectors, in
    O(_SYNTH_CHUNK_CELLS + M_N) working memory.
    """
    _check_type("t_mean_oracles: f", f, GridFunction)
    ns = _check_orders("t", ns, f.spec, w)
    top = max(ns, default=0)
    q, Q = w.q_array(top), w.Q_array(top)
    terms = _partial_sum_terms(f, top - 1)
    # S_k, R_k, the direct sum of the terms k' <= k and the Abel sum of j < k
    S, R, direct, abel = (np.zeros(f.spec.size, dtype=np.complex128) for _ in range(4))
    at = 0
    for k in range(top):
        direct += q[k] * S
        while ns[at] == k + 1:
            mean = np.multiply(R, q[k])  # R_{n-1} is q_{n-1}'s term
            mean += abel
            mean /= Q[k + 1]
            yield k + 1, direct / Q[k + 1], mean
            at += 1
            if at == len(ns):
                return
        abel += (q[k] - q[k + 1]) * R
        S += next(terms)
        R += S


def _partial_sum_terms(f: GridFunction, count: int) -> Iterator[np.ndarray]:
    """fhat(k) psi_k for k < count; forward(f) runs when the first is read.

    The character rows are built, and scaled by fhat, _chunk_rows(M_N) at a
    time.
    """
    spec = f.spec
    fh = forward(f)
    for ks in _runs(range(count), spec.size):
        rows = _characters(spec, ks)
        np.multiply(fh[ks, None], rows, out=rows)
        yield from rows


def _identity_cells(spec: GroupSpec, ns: Sequence[int]) -> int:
    """Cells of identity-check's checks over ascending ns, up to top = max(ns).

    Reflection: M_r kernels on M_r cells for each rank r.  Abel-kernel:
    K_1 .. K_{top-1} and the t kernels, each met on a running sum of top's
    band.  Abel-mean: top steps of M_N cells.  Weight-sum: n terms for order
    n.  The block check, three kernels per rank, is linear in M_N.
    """
    top = ns[-1]
    running = _band(spec, top)
    return (
        sum(block * block for block in spec.M)
        + _order_cells(spec, range(1, top), running)
        + _order_cells(spec, ns, running)
        + top * spec.size
        + sum(ns)
    )


def abel_weight_residual(w: WeightSequence, n: int) -> float:
    """|Q_n - (q_0 + sum_{j=1}^{n-2} (q_j - q_{j+1}) j + q_{n-1} (n-1))|.

    Summation by parts rewrites Q_n in the form the kernel estimates use;
    the residual should be at machine-noise level for every family.
    """
    _check_type("abel_weight_residual: w", w, WeightSequence)
    _check_type("abel_weight_residual: n", n, Integral)
    n = operator.index(n)  # a bool or numpy integer as a plain int
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    q = w.q_array(n)
    rhs = q[0]
    if n >= 2:
        j = np.arange(1, n - 1)
        rhs += float(np.sum((q[j] - q[j + 1]) * j)) + q[n - 1] * (n - 1)
    return abs(w.Q(n) - rhs)
