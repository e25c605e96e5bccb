"""Pointwise convergence diagnostics: oscillation moduli and error profiles.

The rank-n Lebesgue modulus of f at x averages |f - f(x)| over the interval
I_n(x); a point where it tends to 0 is a Lebesgue point at desk resolution.
The windowed modulus W_n additionally looks at the intervals reached by
shifting one digit below rank n, weighted by their place values, which is the
quantity controlling a.e. convergence of the reversed-frame means.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .group import Element, _check_type, generator, interval_members
from .kernels import _order_stacks
from .transform import GridFunction, _check_exponent, _lp_norms
from .weights import WeightSequence

__all__ = [
    "ConvergenceRow",
    "lebesgue_modulus",
    "w_modulus",
    "convergence_profile",
]


def _point_index(caller: str, f: GridFunction, x: Element, name: str = "x") -> int:
    """x.index, once f is a GridFunction and x (the argument name) an Element of its group."""
    _check_type(f"{caller}: f", f, GridFunction)
    _check_type(f"{caller}: {name}", x, Element)
    if x.spec != f.spec:
        raise ValueError("point belongs to a different group")
    return x.index


def lebesgue_modulus(f: GridFunction, x: Element, rank: int) -> float:
    """Average of |f(t) - f(x)| over the rank-n interval around x."""
    at = _point_index("lebesgue_modulus", f, x)  # before f.values is read
    return float(np.abs(f.values[interval_members(x, rank)] - f.values[at]).mean())


def w_modulus(f: GridFunction, x: Element, rank: int) -> float:
    """Windowed modulus W_n f(x), summing digit-shifted interval oscillations.

    W_n f(x) = sum_{s<n} M_s sum_{r=1}^{m_s-1}
               (1/M_N) sum_{t in I_n(x - r e_s)} |f(t) - f(x)|
    where e_s is the unit digit vector in coordinate s.
    """
    at = _point_index("w_modulus", f, x)  # before f.values is read
    spec, fx = f.spec, f.values[at]
    spec._place(rank)  # refuses a rank outside [0, N], for which the loop would not run
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


# the kernel family whose multipliers give the means of each form
_FORM_FAMILY = {"t": "t", "norlund": "norlund", "partial": "dirichlet"}


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
    _check_type("convergence_profile: f", f, GridFunction)
    if (point is None) == (p is None):
        raise ValueError("give exactly one of point= and p=")
    if p is not None:
        p = _check_exponent("convergence_profile: p", p)
    if form not in _FORM_FAMILY:
        raise ValueError(f"unknown mean form {form!r}; expected t, norlund or partial")
    if form != "partial":
        if w is None:
            raise ValueError(f"form {form!r} needs a weight sequence")
        _check_type("convergence_profile: w", w, WeightSequence)
    if point is not None:
        at = _point_index("convergence_profile", f, point, "point")
        fx = f.values[at]
    mean_id = "partial" if form == "partial" else f"{w.label()}|{form}"
    rows = []
    for orders, stack in _order_stacks(_FORM_FAMILY[form], f, sorted(ns), f.spec, w):
        if point is not None:
            errs = [abs(values[at % len(values)] - fx) for values in stack]
        else:
            errs = _lp_norms(f, p, stack)  # one pass over f per row
        rows += (ConvergenceRow(n, float(err), mean_id) for n, err in zip(orders, errs))
    return rows
