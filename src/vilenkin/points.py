"""Pointwise convergence diagnostics: oscillation moduli and error profiles.

The rank-n Lebesgue modulus of f at x averages |f - f(x)| over the interval
I_n(x); a point where it tends to 0 is a Lebesgue point at desk resolution.
The windowed modulus W_n additionally looks at the intervals reached by
shifting one digit below rank n, weighted by their place values, which is the
quantity controlling a.e. convergence of the reversed-frame means.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple, Sequence

import numpy as np

from .group import Element, generator, interval_members
from .kernels import _order_stacks
from .means import WeightSequence
from .transform import GridFunction, _lp_norms

__all__ = [
    "ConvergenceRow",
    "lebesgue_modulus",
    "w_modulus",
    "convergence_profile",
    "maximal_profile",
]


def lebesgue_modulus(f: GridFunction, x: Element, rank: int) -> float:
    """Average of |f(t) - f(x)| over the rank-n interval around x."""
    spec = f.spec
    if x.spec != spec:
        raise ValueError("point belongs to a different group")
    members = interval_members(x, rank)
    return float(np.abs(f.values[members] - f.values[x.index]).mean())


def w_modulus(f: GridFunction, x: Element, rank: int) -> float:
    """Windowed modulus W_n f(x), summing digit-shifted interval oscillations.

    W_n f(x) = sum_{s<n} M_s sum_{r=1}^{m_s-1}
               (1/M_N) sum_{t in I_n(x - r e_s)} |f(t) - f(x)|
    where e_s is the unit digit vector in coordinate s.
    """
    spec = f.spec
    if x.spec != spec:
        raise ValueError("point belongs to a different group")
    spec._place(rank)  # refuses a rank outside [0, N], for which the loop would not run
    fx = f.values[x.index]
    total = 0.0
    for s in range(rank):
        e_s = generator(s, spec)
        shifted = x
        for _ in range(1, spec.m[s]):
            shifted = shifted - e_s
            members = interval_members(shifted, rank)
            total += spec.M[s] * float(np.abs(f.values[members] - fx).sum()) / spec.size
    return total


class ConvergenceRow(NamedTuple):
    """Error of one mean order, either at a point or in an L_p norm."""

    n: int
    err: float
    mean_id: str


_FORM_FAMILY = {"t": "t", "norlund": "norlund", "partial": "dirichlet"}


def _family(form: str, w: WeightSequence | None) -> str:
    """The kernel family whose multipliers give the means of this form; t and norlund need w."""
    if form not in _FORM_FAMILY:
        raise ValueError(f"unknown mean form {form!r}; expected t, norlund or partial")
    if form != "partial" and w is None:
        raise ValueError(f"form {form!r} needs a weight sequence")
    return _FORM_FAMILY[form]


def convergence_profile(
    f: GridFunction,
    w: WeightSequence | None,
    ns: Sequence[int],
    *,
    form: str = "t",
    point: Element | None = None,
    p: float | None = None,
) -> list[ConvergenceRow]:
    """Errors of the chosen mean against f over a list of orders.

    Exactly one of ``point`` (pointwise error) and ``p`` (L_p error) must be
    given.  ``form='partial'`` profiles the raw partial sums and ignores the
    weights.
    """
    if (point is None) == (p is None):
        raise ValueError("give exactly one of point= and p=")
    if p is not None and not p >= 1:  # also refuses NaN
        raise ValueError(f"L_p error needs p >= 1, got {p}")
    family = _family(form, w)
    spec = f.spec
    if point is not None and point.spec != spec:
        raise ValueError("point belongs to a different group")
    mean_id = "partial" if form == "partial" else f"{w.label()}|{form}"
    ns = sorted(ns)
    orders = iter(ns)
    rows = []
    for stack in _order_stacks(family, f, ns, spec, w):
        if point is not None:
            fx = f.values[point.index]
            errs = [abs(values[point.index % len(values)] - fx) for values in stack]
        else:
            errs = _lp_norms(f, p, stack)  # one pass over f per stack
        for n, err in zip(islice(orders, len(stack)), errs):
            rows.append(ConvergenceRow(n=n, err=float(err), mean_id=mean_id))
    return rows


def maximal_profile(
    f: GridFunction,
    w: WeightSequence | None,
    n_max: int,
    form: str = "norlund",
) -> GridFunction:
    """Pointwise maximal function max over valid n <= n_max of |mean_n f|."""
    spec = f.spec
    if not 1 <= n_max <= spec.size:
        raise ValueError(f"n_max {n_max} outside [1, {spec.size}]")
    family = _family(form, w)
    start = 1 if form == "partial" else w.n0
    if n_max < start:
        raise ValueError(f"no orders in [{start}, {n_max}] for form {form!r}")
    best = np.zeros(1)  # on the largest band so far; the bands M_s nest
    for stack in _order_stacks(family, f, range(start, n_max + 1), spec, w):
        band = stack.shape[1]
        if band > len(best):
            best = np.tile(best, band // len(best))
        fibres = best.reshape(-1, band)
        np.maximum(fibres, np.abs(stack).max(axis=0), out=fibres)
    return GridFunction._own(spec, np.tile(best, spec.size // len(best)))
