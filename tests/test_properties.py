"""Property tests of the multiplier core, the identity sweeps and the
band-limited transforms over random radix sequences.

Each mean computed as one synthesis of fhat * lambda_n must agree to 1e-12
with routes that never touch the multiplier: the direct and Abel
accumulations of t_mean, and the q-weighted expansion in partial sums.  The
kernel identities hold to 1e-12, and every sweep returns, order by order, the
very value of the single-case call.  A spectrum below M_s synthesizes, and
an analysis up to M_s runs, on M_s cells only; both must agree with the
definitions (character rows, the naive transform) to 1e-12.  A batched
synthesis returns every row bitwise equal to its one-row synthesis, whatever
the batch size and the row's place in it.
"""

import math
from bisect import bisect_left

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vilenkin.group import Element, make_group
from vilenkin.kernels import (
    _FAMILIES,
    _kernels,
    abel_kernel_residuals,
    identity_residual,
    multiplier,
    reflection_residuals,
    synthesize,
)
from vilenkin.means import norlund_mean, parse_weights, t_mean, t_mean_oracles
from vilenkin.points import _FORM_FAMILY, _means, convergence_profile
from vilenkin.transform import (
    GridFunction,
    Spectrum,
    _analyse,
    _synthesize_rows,
    character_row,
    forward,
    inverse,
    norm,
    partial_sum,
)

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


@settings(max_examples=25, deadline=None)
@given(cases())
def test_identity_sweeps_hold_and_equal_single_cases(case):
    spec, w, ns, f, x = case
    for rank, j, r in reflection_residuals(spec):
        assert r < TOL
        if j in (0, 1, spec.M[rank] // 2, spec.M[rank] - 1):
            assert r == identity_residual("reflection", spec, rank=rank, j=j)
    swept = list(abel_kernel_residuals(spec, w, ns))
    assert [n for n, _ in swept] == ns
    for n, r in swept:
        assert r < TOL
        assert r == identity_residual("abel-kernel", spec, weights=w, n=n)
    for rank in range(spec.levels + 1):
        # the block kernels reach sup |D_{M_r}| = M_r, and at M_r = 960 the
        # residual is already 1.8e-12, so this one is relative to that scale
        if w.Q(spec.M[rank]) > 0:
            assert identity_residual("block", spec, weights=w, rank=rank) < TOL * spec.M[rank]
    for n, direct, abel in t_mean_oracles(f, w, ns):
        assert np.max(np.abs(direct.values - abel.values)) < TOL
        assert np.array_equal(direct.values, t_mean(f, w, n, method="direct").values)
        assert np.array_equal(abel.values, t_mean(f, w, n, method="abel").values)


@st.composite
def bands(draw):
    """A random group, a band limit c <= M_N and a seed."""
    spec = make_group(draw(st.lists(st.integers(2, 7), min_size=1, max_size=10).map(_fit)))
    return spec, draw(st.integers(0, spec.size)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(bands())
def test_band_limited_synthesis_is_the_character_sum_and_periodic(case):
    spec, c, seed = case
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(spec.size, dtype=complex)
    coeffs[:c] = rng.standard_normal(c) + 1j * rng.standard_normal(c)
    got = inverse(Spectrum(spec, coeffs)).values
    want = sum((coeffs[n] * character_row(spec, n) for n in range(c)), np.zeros(spec.size))
    assert np.max(np.abs(got - want)) < TOL
    block = spec.M[bisect_left(spec.M, c)]  # the smallest M_s >= c
    periods = got.reshape(-1, block)
    assert (periods == periods[0]).all()


@settings(max_examples=40, deadline=None)
@given(bands())
def test_truncated_analysis_matches_naive_transform(case):
    spec, count, seed = case
    f = GridFunction.random(spec, seed)
    got = _analyse(f, count)
    assert got.shape == (count,)
    assert np.max(np.abs(got - forward(f, method="naive").coeffs[:count]), initial=0.0) < TOL


@st.composite
def row_batches(draw):
    """A random group and up to 16 coefficient rows of random support and length.

    Sorting the supports half of the time puts rows of one band next to each
    other, so that chunks of several rows occur at every band.
    """
    spec = make_group(draw(st.lists(st.integers(2, 7), min_size=1, max_size=10).map(_fit)))
    counts = draw(st.lists(st.integers(0, spec.size), min_size=1, max_size=16))
    if draw(st.booleans()):
        counts.sort()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for count in counts:
        row = np.zeros(draw(st.integers(count, spec.size)), dtype=complex)  # trailing zeros
        row[:count] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        rows.append(row)
    return spec, rows


@settings(max_examples=60, deadline=None)
@given(row_batches())
def test_batched_rows_equal_one_row_inverse(case):
    spec, rows = case
    batched = list(_synthesize_rows(spec, rows))
    assert len(batched) == len(rows)
    for row, got in zip(rows, batched):
        full = np.zeros(spec.size, dtype=complex)
        full[: len(row)] = row
        assert np.array_equal(got.values, inverse(Spectrum(spec, full)).values)


@settings(max_examples=25, deadline=None)
@given(cases(), st.lists(st.integers(1, MAX_POINTS), min_size=1, max_size=40))
def test_batched_kernels_and_means_equal_single_syntheses(case, more):
    spec, w, ns, f, x = case
    ns = sorted({*ns, *(min(spec.size, max(w.n0, n)) for n in more)})
    for family in _FAMILIES:
        batched = _kernels(family, ns, spec, w)
        for n, got in zip(ns, batched, strict=True):
            want = synthesize(spec, multiplier(family, n, spec, w))
            assert np.array_equal(got.values, want.values)
    fh = _analyse(f, ns[-1])
    for form, family in _FORM_FAMILY.items():
        for n, got in _means(f, w, ns, form):
            want = synthesize(spec, fh[:n] * multiplier(family, n, spec, w))
            assert np.array_equal(got.values, want.values)
