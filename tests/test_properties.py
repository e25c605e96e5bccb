"""Property tests of the multiplier core over random radix sequences.

Each mean computed as one synthesis of fhat * lambda_n must agree to 1e-12
with routes that never touch the multiplier: the direct and Abel
accumulations of t_mean, and the q-weighted expansion in partial sums.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin.group import Element, make_group
from vilenkin.means import norlund_mean, parse_weights, t_mean
from vilenkin.points import convergence_profile
from vilenkin.transform import GridFunction, norm, partial_sum

FAMILIES = ("constant", "cesaro:0.5", "icesaro:0.5", "power:0.5", "riesz", "nlog", "logpow:0.5")
MAX_POINTS = 2**10
TOL = 1e-12


def _fit(radices):
    """Longest prefix of the radices with M_N <= MAX_POINTS."""
    kept, size = [], 1
    for r in radices:
        if size * r > MAX_POINTS:
            break
        kept.append(r)
        size *= r
    return kept


@st.composite
def cases(draw):
    """A random group, weight family, seeded function, orders and grid point."""
    spec = make_group(draw(st.lists(st.integers(2, 7), min_size=1, max_size=10).map(_fit)))
    w = parse_weights(draw(st.sampled_from(FAMILIES)))
    ns = draw(st.lists(st.integers(w.n0, spec.size), min_size=1, max_size=3, unique=True))
    f = GridFunction.random(spec, draw(st.integers(0, 2**32 - 1)))
    x = draw(st.integers(0, spec.size - 1))
    return spec, w, sorted(ns), f, x


def _assert_profile_matches(f, w, ns, x, form, oracles):
    """Sup-norm and pointwise errors of the profile against the oracle means."""
    by_sup = convergence_profile(f, w, ns, form=form, p=math.inf)
    by_point = convergence_profile(f, w, ns, form=form, point=Element.from_index(f.spec, x))
    for n, sup_row, point_row in zip(ns, by_sup, by_point):
        for want in oracles[n]:
            assert abs(sup_row.err - norm(GridFunction(f.spec, want) - f, math.inf)) < TOL
            assert abs(point_row.err - abs(want[x] - f.values[x])) < TOL


@settings(max_examples=40, deadline=None)
@given(cases())
def test_t_profile_matches_direct_and_abel_routes(case):
    spec, w, ns, f, x = case
    oracles = {n: [t_mean(f, w, n, method=m).values for m in ("direct", "abel")] for n in ns}
    _assert_profile_matches(f, w, ns, x, "t", oracles)


@settings(max_examples=25, deadline=None)
@given(cases())
def test_norlund_and_partial_match_partial_sum_expansion(case):
    spec, w, ns, f, x = case
    sums = [None] + [partial_sum(f, k).values for k in range(1, ns[-1] + 1)]
    expansion = {}
    for n in ns:
        q = w.q_array(n)
        want = np.zeros(spec.size, dtype=complex)
        for k in range(1, n + 1):
            want += q[n - k] * sums[k]
        expansion[n] = want / w.Q(n)
        assert np.max(np.abs(norlund_mean(f, w, n).values - expansion[n])) < TOL
    _assert_profile_matches(f, w, ns, x, "norlund", {n: [expansion[n]] for n in ns})
    _assert_profile_matches(f, None, ns, x, "partial", {n: [sums[n]] for n in ns})
