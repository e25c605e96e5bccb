"""Summability kernels, their multipliers and their L1 profiles.

All kernels are finite character sums, synthesized from their coefficient
vectors:

    dirichlet  D_n = sum_{k<n} psi_k                      (D_0 = 0)
    fejer      K_n = (1/n) sum_{k=1}^{n} D_k              (K_0 = 0)
    t_kernel   (1/Q_n) sum_{k=0}^{n-1} q_k D_k            forward frame
    norlund    (1/Q_n) sum_{k=1}^{n} q_{n-k} D_k          reversed frame

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
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .group import GroupSpec
from .transform import GridFunction, _order_chunks, _runs, _synthesize_bands, synthesize

if TYPE_CHECKING:  # circular at runtime: means imports the multiplier core
    from .means import WeightSequence

__all__ = [
    "KernelProfileRow",
    "multiplier",
    "dirichlet",
    "fejer",
    "t_kernel",
    "norlund_kernel",
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
    family: str, ns: Iterable[int], spec: GroupSpec, weights: "WeightSequence | None"
) -> np.ndarray:
    """ns as an int64 array, once every order has a kernel of this family.

    numpy integers pass; a float order raises TypeError instead of being truncated.
    """
    ns = np.array([operator.index(n) for n in ns], dtype=np.int64)
    if family not in _FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}; expected {_FAMILIES}")
    lowest = 0 if family in ("dirichlet", "fejer") else 1
    outside = ns[(ns < lowest) | (ns > spec.size)]
    if outside.size:
        raise ValueError(f"order {outside[0]} outside [{lowest}, {spec.size}]")
    if family in ("dirichlet", "fejer"):
        return ns
    if weights is None:
        raise ValueError(f"kernel family {family!r} needs weights")
    flat = ns[weights.Q_array(int(ns.max(initial=0)))[ns] <= 0]
    if flat.size:
        raise ValueError(f"Q({flat[0]}) not positive for {weights.label()}")
    return ns


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
    ns = _check_orders(family, ns, spec, weights)
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
    weights: "WeightSequence | None" = None,
    tail_rank: int = 1,
) -> list[KernelProfileRow]:
    """Profile ||k_n||_1, integral and the mass outside I_tail_rank(0).

    The tail is (1/M_N) * sum over x outside the rank-tail_rank interval at 0
    of |k_n(x)|, the quantity the localization estimates bound.
    """
    tail_block = spec._place(tail_rank)
    rows = []
    ns = sorted(ns)
    orders = iter(ns)
    unit = np.broadcast_to(1.0, spec.size)  # the unit impulse's coefficients
    for stack in _order_stacks(family, unit, ns, spec, weights):
        # |k_n| and the outside of I_tail_rank(0) both have period
        # max(M_s, M_tail_rank), so the averages over M_N cells are
        # averages over that many
        cells = max(stack.shape[1], tail_block)
        for run in _runs(stack, cells):
            mags = np.tile(np.abs(run), (1, cells // stack.shape[1]))
            l1, integral = mags.mean(axis=1).tolist(), run.mean(axis=1).tolist()
            tail = mags.reshape(len(run), -1, tail_block)[:, :, 1:].sum(axis=(1, 2)) / cells
            rows += map(KernelProfileRow, islice(orders, len(run)), l1, integral, tail.tolist())
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
    ns = sorted(ns)
    leads = [_leading_position(n, spec) for n in ns]
    blocks = spec.M[: max(leads) + 1]
    top = blocks[-1]
    unit = np.broadcast_to(1.0, spec.size)  # the unit impulse's coefficients
    # the denominators live on the band M_top of K_{M_top}, which nests the
    # bands of the others; each ratio is taken on the larger of that band
    # and its numerator's
    stacks = _order_stacks("fejer", unit, blocks, spec)
    terms = np.vstack([np.tile(np.abs(stack), (1, top // stack.shape[1])) for stack in stacks])
    denoms = np.cumsum(np.array(blocks)[:, None] * terms, axis=0)
    best = 0.0
    at = 0
    for stack in _order_stacks("fejer", unit, ns, spec):
        cells = max(stack.shape[1], top)
        for run in _runs(stack, cells):
            order = np.array(ns[at : at + len(run)])[:, None]
            num = np.tile(order * np.abs(run), (1, cells // stack.shape[1]))
            den = np.tile(denoms[leads[at : at + len(run)]], (1, cells // top))
            ratio = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
            best = max(best, float(ratio.max()))
            at += len(run)
    return best
