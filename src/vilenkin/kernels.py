"""Summability kernels, their multipliers and their L1 profiles.

All kernels are finite character sums, synthesized from their coefficient
vectors:

    dirichlet  D_n = sum_{k<n} psi_k                      (D_0 = 0)
    fejer      K_n = (1/n) sum_{k=1}^{n} D_k              (K_0 = 0)
    t_kernel   (1/Q_n) sum_{k=0}^{n-1} q_k D_k            forward frame
    norlund    (1/Q_n) sum_{k=1}^{n} q_{n-k} D_k          reversed frame

A weight sequence (q_k) from vilenkin.weights, with cumulative sums
Q_n = q_0 + ... + q_{n-1}, drives the two weighted kernels and the two
matrix means of the Fourier partial sums S_k f (with S_0 f = 0) that match them:

    forward frame    t_mean        T_n f = (1/Q_n) * sum_{k=0}^{n-1} q_k S_k f
    reversed frame   norlund_mean  t_n f = (1/Q_n) * sum_{k=1}^{n}   q_{n-k} S_k f

Collecting the coefficient of psi_j gives closed forms (e.g. (n-j)/n for the
Fejer kernel), returned by multiplier(), so each kernel is one synthesis pass
and each matching mean is the same pass over the multiplied spectrum of f.
The identity checks that rebuild kernels from other kernels, so that the
two sides travel different numerical paths, live in vilenkin.oracles.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .group import GroupSpec, _check_type
from .transform import GridFunction, _analyse, _runs, _synthesize_bands, _tiled, convolve, synthesize
from .weights import WeightSequence

__all__ = [
    "KernelProfileRow",
    "multiplier",
    "dirichlet",
    "fejer",
    "t_kernel",
    "norlund_kernel",
    "t_mean",
    "norlund_mean",
    "l1_profile",
    "domination_constant",
]


_FAMILIES = ("dirichlet", "fejer", "t", "norlund")
# the families without weights, whose order 0 is the zero kernel
_UNWEIGHTED = ("dirichlet", "fejer")


def multiplier(
    family: str, n: int, spec: GroupSpec, weights: WeightSequence | None = None
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
    return _multipliers(family, _check_orders(family, [n], spec, weights), spec, weights)[0]


def _check_orders(
    family: str, ns: Iterable[int], spec: GroupSpec, weights: WeightSequence | None
) -> list[int]:
    """ns as a list of ints, once they ascend and every order has a kernel of this family.

    numpy integers pass; a float order raises TypeError instead of being
    truncated, and a huge one ValueError before numpy could overflow on it.
    """
    ns = [operator.index(n) for n in ns]
    if family not in _FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}; expected {_FAMILIES}")
    _check_type(f"{family} kernel: spec", spec, GroupSpec)
    lowest = 0 if family in _UNWEIGHTED else 1
    outside = next((n for n in ns if not lowest <= n <= spec.size), None)
    if outside is not None:
        raise ValueError(f"order {outside} outside [{lowest}, {spec.size}]")
    for previous, n in zip(ns, ns[1:]):
        if n < previous:
            raise ValueError(f"orders must ascend, got {n} after {previous}")
    if lowest:  # the weighted families
        if weights is None:
            raise ValueError(f"kernel family {family!r} needs weights")
        _check_type(f"{family} kernel: weights", weights, WeightSequence)
        flat = np.array(ns, dtype=np.int64)[weights.Q_array(max(ns, default=0))[ns] <= 0]
        if flat.size:
            raise ValueError(f"Q({flat[0]}) not positive for {weights.label()}")
    return ns


def _multipliers(
    family: str,
    ns: Sequence[int],
    spec: GroupSpec,
    weights: WeightSequence | None = None,
) -> np.ndarray:
    """The (len(ns) x max(ns)) stack of the multipliers of checked orders ns, zero-padded.

    Row i is lambda_{ns[i]} followed by zeros.  Each entry is the one-order
    formula, elementwise, or for t a sequential cumulative sum along its row
    starting at q_{n-1}, so every row is bitwise the one-order result.
    """
    ns = np.asarray(ns, dtype=np.int64)
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


def _bands(spec: GroupSpec, ns: Sequence[int]) -> list[tuple[int, Sequence[int]]]:
    """The plan of a sweep over ascending ns: (M_s, the slice of ns on band M_s), per nonempty band.

    The orders n with _band(n) = M_s, cut by one bisect per place value, so
    a range of M_N orders is cut without being listed.
    """
    below = [bisect_right(ns, band) for band in spec.M]  # the orders n <= M_s
    return [(band, ns[lo:hi]) for lo, hi, band in zip([0, *below], below, spec.M) if lo < hi]


def _order_cells(spec: GroupSpec, ns: Sequence[int], reduced: int) -> int:
    """Cells of the sweep _order_stacks runs over ascending ns: the plan _bands(), priced.

    Each order's row is synthesized on its band M_s and reduced on max(M_s, reduced) cells.
    """
    return sum(len(orders) * max(band, reduced) for band, orders in _bands(spec, ns))


def _order_stacks(
    family: str,
    f: GridFunction | None,
    ns: Iterable[int],
    spec: GroupSpec,
    weights: WeightSequence | None = None,
) -> Iterator[tuple[list[int], np.ndarray]]:
    """synthesize(fhat[:n] * lambda_n) on the M_s cells of its band, for each n in ascending ns.

    The orders are checked once, before any work.  This is the order-n mean
    of f, analysed once up to the largest order, since the mean reads only
    fhat[:n]; with f None it is the order-n kernel, the mean of the unit
    impulse, read as np.broadcast_to(1.0, M_N): no array, and x * 1.0 = x
    bitwise.  A row of band M_s is a function of x mod M_s, so the sweeps
    reduce it on those M_s cells (or on a larger band that nests it).  The
    multiplied coefficients are built a block at a time, each block a run
    of at most _chunk_rows(M_s) consecutive orders of one band M_s of the
    plan _bands(), and synthesized in stacked butterflies; the rows come as
    the butterflies' (rows x M_s) stacks, in the order of ns, as (orders, stack)
    pairs whose list of orders names the stack's rows.
    """
    ns = _check_orders(family, ns, spec, weights)
    coeffs = np.broadcast_to(1.0, spec.size) if f is None else _analyse(f, max(ns, default=0))
    blocks = (
        coeffs[: max(run)] * _multipliers(family, run, spec, weights)
        for band, orders in _bands(spec, ns)
        for run in _runs(orders, band)
    )
    rest = iter(ns)
    stacks = _synthesize_bands(spec, blocks)
    return ((list(islice(rest, len(stack))), stack) for stack in stacks)


def dirichlet(n: int, spec: GroupSpec) -> GridFunction:
    """Dirichlet kernel D_n; D_0 is the zero function."""
    return synthesize(spec, multiplier("dirichlet", n, spec))


def fejer(n: int, spec: GroupSpec) -> GridFunction:
    """Fejer kernel K_n = (1/n) sum_{k=1}^n D_k; K_0 is the zero function."""
    return synthesize(spec, multiplier("fejer", n, spec))


def t_kernel(w: WeightSequence, n: int, spec: GroupSpec) -> GridFunction:
    """Forward-frame kernel (1/Q_n) sum_{k<n} q_k D_k.

    The psi_j coefficient is (Q_n - Q_{j+1})/Q_n, so the kernel integrates
    to (Q_n - q_0)/Q_n rather than 1 whenever q_0 > 0: the k = 0 term D_0
    vanishes and takes the weight q_0 with it.
    """
    return synthesize(spec, multiplier("t", n, spec, w))


def norlund_kernel(w: WeightSequence, n: int, spec: GroupSpec) -> GridFunction:
    """Reversed-frame kernel (1/Q_n) sum_{k=1}^n q_{n-k} D_k.

    The psi_j coefficient is Q_{n-j}/Q_n; the kernel always integrates to 1.
    """
    return synthesize(spec, multiplier("norlund", n, spec, w))


def t_mean(
    f: GridFunction, w: WeightSequence, n: int, method: str = "multiplier"
) -> GridFunction:
    """Forward-frame mean T_n f = (1/Q_n) sum_{k<n} q_k S_k f.

    The default 'multiplier' route is synthesize(fhat[:n] * lambda_n), as in
    norlund_mean().  The oracle routes reach T_n another way: 'direct'
    accumulates partial sums term by term, and 'abel' rebuilds T_n from
    Fejer means via summation by parts, both computed by one order of the
    vilenkin.oracles.t_mean_oracles() pass.  'convolution' convolves f with
    the forward-frame kernel; it runs the multiplier route's butterfly and
    multipliers, so it is no independent check, and it stays only for the
    benchmark's row check.
    """
    _check_type("t_mean: f", f, GridFunction)
    if method == "multiplier":
        lam = multiplier("t", n, f.spec, w)  # checks n before the analysis reads it
        return synthesize(f.spec, _analyse(f, n) * lam)
    if method == "convolution":
        return convolve(f, synthesize(f.spec, multiplier("t", n, f.spec, w)))
    if method not in ("direct", "abel"):
        raise ValueError(f"unknown method {method!r}")
    from . import oracles

    _, direct, abel = next(oracles.t_mean_oracles(f, w, [n]))
    return GridFunction._own(f.spec, direct if method == "direct" else abel)


def norlund_mean(f: GridFunction, w: WeightSequence, n: int) -> GridFunction:
    """Reversed-frame mean t_n f = (1/Q_n) sum_{k=1}^{n} q_{n-k} S_k f."""
    _check_type("norlund_mean: f", f, GridFunction)
    lam = multiplier("norlund", n, f.spec, w)
    return synthesize(f.spec, _analyse(f, n) * lam)


class KernelProfileRow(NamedTuple):
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
    weights: WeightSequence | None = None,
    tail_rank: int = 1,
) -> list[KernelProfileRow]:
    """Profile ||k_n||_1, integral and the mass outside I_tail_rank(0).

    The tail is (1/M_N) * sum over x outside the rank-tail_rank interval at 0
    of |k_n(x)|, the quantity the localization estimates bound.
    """
    _check_type("l1_profile: spec", spec, GroupSpec)
    tail_block = spec._place(tail_rank)
    rows = []
    for orders, stack in _order_stacks(family, None, sorted(ns), spec, weights):
        # |k_n| and the outside of I_tail_rank(0) both have period
        # max(M_s, M_tail_rank), so the averages over M_N cells are
        # averages over that many
        cells = max(stack.shape[1], tail_block)
        for run_orders, run in zip(_runs(orders, cells), _runs(stack, cells)):
            mags = _tiled(np.abs(run), cells)
            l1, integral = mags.mean(axis=1).tolist(), run.mean(axis=1).tolist()
            tail = mags.reshape(len(run), -1, tail_block)[:, :, 1:].sum(axis=(1, 2)) / cells
            rows += map(KernelProfileRow, run_orders, l1, integral, tail.tolist())
    return rows


def _leading_position(n: int, spec: GroupSpec) -> int:
    """Position of the leading nonzero digit of n (|n| in digit terms)."""
    if not 1 <= n <= spec.size:
        raise ValueError(f"index {n} outside [1, {spec.size}]")
    return bisect_right(spec.M, n) - 1


def domination_constant(ns: Sequence[int], spec: GroupSpec) -> float:
    """Smallest c with n|K_n| <= c * sum_{l<=|n|} M_l |K_{M_l}| over given n.

    Returns the max over the grid and over n of the pointwise ratio.  The
    denominator is at least M_0 |K_1| = 1 everywhere, since K_1 = 1.
    """
    _check_type("domination_constant: spec", spec, GroupSpec)
    if len(ns) == 0:
        raise ValueError("need at least one n")
    ns = sorted(ns)
    blocks = spec.M[: max(_leading_position(n, spec) for n in ns) + 1]
    top = blocks[-1]
    kernels = _order_stacks("fejer", None, ns, spec)  # checks ns before any butterfly
    # the denominators live on the band M_top of K_{M_top}, which nests the
    # bands of the others; each ratio is taken on the larger of that band
    # and its numerator's
    stacks = _order_stacks("fejer", None, blocks, spec)
    terms = np.vstack([_tiled(np.abs(stack), top) for _, stack in stacks])
    denoms = np.cumsum(np.array(blocks)[:, None] * terms, axis=0)
    best = 0.0
    for orders, stack in kernels:
        cells = max(stack.shape[1], top)
        for run_orders, run in zip(_runs(orders, cells), _runs(stack, cells)):
            order = np.array(run_orders)[:, None]
            num = _tiled(order * np.abs(run), cells)
            leads = [_leading_position(n, spec) for n in run_orders]
            den = _tiled(denoms[leads], cells)
            best = max(best, float((num / den).max()))
    return best
