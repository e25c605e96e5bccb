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
the batch size and the row's place in it.  The sweeps that reduce a mean or a
kernel on its band M_s instead of the whole grid return the very errors,
maxima and residuals of the tiled full-grid route (the L1 profile, a sum in
another order, to 1e-12).  The group laws, the character homomorphism,
inverse(forward(f)) = f and Parseval hold on every random group.
"""

import math
from bisect import bisect_left

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import vilenkin.transform
from vilenkin.group import Element, add, generator, make_group, subtract
from vilenkin.kernels import (
    _FAMILIES,
    _leading_position,
    _order_sweep,
    abel_kernel_residuals,
    dirichlet,
    domination_constant,
    fejer,
    identity_residual,
    l1_profile,
    multiplier,
    norlund_kernel,
    reflection_residuals,
    t_kernel,
)
from vilenkin.means import norlund_mean, parse_weights, t_mean, t_mean_oracles
from vilenkin.points import _FORM_FAMILY, _means, convergence_profile, maximal_profile
from vilenkin.transform import (
    GridFunction,
    Spectrum,
    _analyse,
    _on_cells,
    character_row,
    forward,
    inverse,
    norm,
    partial_sum,
    psi,
    synthesize,
)

FAMILIES = ("constant", "cesaro:0.5", "icesaro:0.5", "power:0.5", "riesz", "nlog", "logpow:0.5")
MAX_POINTS = 2**10
MAX_QUOTIENT_POINTS = 2**12
TOL = 1e-12


def _fit(radices, limit=MAX_POINTS):
    """Longest prefix of the radices with M_N <= limit."""
    kept, size = [], 1
    for r in radices:
        if size * r > limit:
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


def _oracle_rows(f, w, ns):
    """(n, direct T_n f, abel T_n f) of each order, from the chunks of t_mean_oracles()."""
    for orders, direct, abel in t_mean_oracles(f, w, ns):
        yield from zip(orders, direct, abel)


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
    for n, direct, abel in _oracle_rows(f, w, ns):
        assert np.max(np.abs(direct - abel)) < TOL
        assert np.array_equal(direct, t_mean(f, w, n, method="direct").values)
        assert np.array_equal(abel, t_mean(f, w, n, method="abel").values)


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
    block = np.zeros((len(rows), max(map(len, rows))), dtype=complex)
    for at, row in enumerate(rows):
        block[at, : len(row)] = row
    batched = _on_cells(spec, block, spec.size)
    assert batched.shape == (len(rows), spec.size)
    for row, got in zip(block, batched):
        full = np.zeros(spec.size, dtype=complex)
        full[: len(row)] = row
        assert np.array_equal(got, inverse(Spectrum(spec, full)).values)


@settings(max_examples=25, deadline=None)
@given(cases(), st.lists(st.integers(1, MAX_POINTS), min_size=1, max_size=40))
def test_batched_kernels_and_means_equal_single_syntheses(case, more):
    spec, w, ns, f, x = case
    ns = sorted({*ns, *(min(spec.size, max(w.n0, n)) for n in more)})
    # the sweeps leave each row on its band M_s; tiled, it is the public result
    unit = np.broadcast_to(1.0, spec.size)  # a kernel is the mean of the unit impulse
    for family in _FAMILIES:
        batched = _order_sweep(family, unit, ns, spec, w)
        for n, got in zip(ns, batched, strict=True):
            want = synthesize(spec, multiplier(family, n, spec, w))
            assert np.array_equal(np.tile(got, spec.size // len(got)), want.values)
    fh = _analyse(f, ns[-1])
    for form, family in _FORM_FAMILY.items():
        for n, got in _means(f, w, ns, form):
            want = synthesize(spec, fh[:n] * multiplier(family, n, spec, w))
            assert np.array_equal(np.tile(got, spec.size // len(got)), want.values)


@st.composite
def quotient_cases(draw):
    """A random group with M_N <= 2^12, weights, a function, orders, a point, a tail rank.

    The orders stay below 2^9, so on the larger groups every band is a
    proper quotient of the grid.
    """
    radices = draw(st.lists(st.integers(2, 7), min_size=1, max_size=12))
    spec = make_group(_fit(radices, MAX_QUOTIENT_POINTS))
    w = parse_weights(draw(st.sampled_from(FAMILIES)))
    orders = st.integers(w.n0, min(spec.size, 2**9))  # n0 <= 2 <= M_N
    ns = sorted(draw(st.lists(orders, min_size=1, max_size=6, unique=True)))
    rank = draw(st.none() | st.integers(0, spec.levels))
    f = GridFunction.random(spec, draw(st.integers(0, 2**32 - 1)), rank)
    x = draw(st.integers(0, spec.size - 1))
    return spec, w, ns, f, x, draw(st.integers(0, spec.levels))


def _tiled_means(f, w, orders, family):
    """(n, the order-n mean tiled to M_N), the full-grid route of the sweeps."""
    fh = _analyse(f, orders[-1])
    return ((n, synthesize(f.spec, fh[:n] * multiplier(family, n, f.spec, w))) for n in orders)


@settings(max_examples=30, deadline=None)
@given(quotient_cases())
def test_quotient_errors_and_maximal_profile_equal_the_tiled_route(case):
    spec, w, ns, f, x, _ = case
    point = Element.from_index(spec, x)
    for form, family in _FORM_FAMILY.items():
        means = dict(_tiled_means(f, w, ns, family))
        for p in (1, 1.5, 2, math.inf):
            got = convergence_profile(f, w, ns, form=form, p=p)
            assert [r.err for r in got] == [norm(means[n] - f, p) for n in ns]
        got = convergence_profile(f, w, ns, form=form, point=point)
        assert [r.err for r in got] == [abs(means[n].values[x] - f.values[x]) for n in ns]
        start = 1 if form == "partial" else w.n0
        best = np.zeros(spec.size)
        for _, g in _tiled_means(f, w, list(range(start, ns[-1] + 1)), family):
            best = np.maximum(best, np.abs(g.values))
        assert np.array_equal(maximal_profile(f, w, ns[-1], form=form).values, best)


def _abel_on_grid(spec, w, ns):
    """The abel-kernel residuals with every kernel synthesized on the whole grid."""
    partial = np.zeros(spec.size, dtype=complex)
    done = 0
    for n in ns:
        q = w.q_array(n)
        while done < n - 2:
            done += 1
            partial += (q[done] - q[done + 1]) * done * fejer(done, spec).values
        rhs = partial
        if n >= 2:
            rhs = partial + q[n - 1] * (n - 1) * fejer(n - 1, spec).values
        yield n, float(np.max(np.abs(t_kernel(w, n, spec).values - rhs / w.Q(n))))


def _block_on_grid(spec, w, block):
    """The block residual with every term built on the whole grid."""
    rhs = dirichlet(block, spec).values - character_row(
        spec, block - 1
    ) * norlund_kernel(w, block, spec).values.conj()
    return float(np.max(np.abs(t_kernel(w, block, spec).values - rhs)))


def _domination_on_grid(ns, spec):
    top = max(_leading_position(n, spec) for n in ns)
    denoms = np.cumsum([M * np.abs(fejer(M, spec).values) for M in spec.M[: top + 1]], axis=0)
    best = 0.0
    for n in ns:
        num = n * np.abs(fejer(n, spec).values)
        den = denoms[_leading_position(n, spec)]
        ratio = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        best = max(best, float(ratio.max()))
    return best


@settings(max_examples=20, deadline=None)
@given(quotient_cases())
def test_quotient_kernel_sweeps_equal_the_tiled_route(case):
    spec, w, ns, _, _, tail_rank = case
    swept = {(rank, j): r for rank, j, r in reflection_residuals(spec)}
    assert len(swept) == sum(spec.M)
    for rank, block in enumerate(spec.M):
        for j in {0, 1 % block, block // 2, block - 1}:
            assert swept[rank, j] == identity_residual("reflection", spec, rank=rank, j=j)
    assert list(abel_kernel_residuals(spec, w, ns)) == list(_abel_on_grid(spec, w, ns))
    assert [
        identity_residual("block", spec, weights=w, rank=rank)
        for rank, block in enumerate(spec.M)
        if w.Q(block) > 0
    ] == [_block_on_grid(spec, w, block) for block in spec.M if w.Q(block) > 0]
    assert domination_constant(ns, spec) == _domination_on_grid(ns, spec)
    outside = np.arange(spec.size) % spec.M[tail_rank] != 0
    for family in _FAMILIES:
        rows = l1_profile(family, ns, spec, weights=w, tail_rank=tail_rank)
        for n, row in zip(ns, rows, strict=True):
            g = synthesize(spec, multiplier(family, n, spec, w))
            mags = np.abs(g.values)
            assert abs(row.l1 - mags.mean()) < TOL
            assert abs(row.integral - g.integral) < TOL
            assert abs(row.tail - mags[outside].sum() / spec.size) < TOL


def _chunked_sweeps(spec, w, ns, f):
    """Every batched sweep's output, as plain lists of numbers and arrays."""
    out = {
        "reflection": list(reflection_residuals(spec)),
        "abel-kernel": list(abel_kernel_residuals(spec, w, ns)),
        "abel-mean": list(_oracle_rows(f, w, ns)),
        "block": [
            identity_residual("block", spec, weights=w, rank=rank)
            for rank, block in enumerate(spec.M)
            if w.Q(block) > 0
        ],
    }
    for form in _FORM_FAMILY:
        out[form] = list(_means(f, w, ns, form))
    unit = np.broadcast_to(1.0, spec.size)
    for family in _FAMILIES:
        out[family + " kernels"] = list(_order_sweep(family, unit, ns, spec, w))
    return out


def _same(a, b):
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


@settings(max_examples=10, deadline=None)
@given(quotient_cases())
def test_sweeps_do_not_depend_on_the_chunk_size(case):
    # a chunk of one cell runs every case as its own row: the chunked
    # running sums, stacked multipliers and row-wise gaps must give the
    # same bits as the default 2^12-cell chunks
    spec, w, ns, f, _, _ = case
    default = _chunked_sweeps(spec, w, ns, f)
    cells = vilenkin.transform._SYNTH_CHUNK_CELLS
    vilenkin.transform._SYNTH_CHUNK_CELLS = 1
    try:
        one_row = _chunked_sweeps(spec, w, ns, f)
    finally:
        vilenkin.transform._SYNTH_CHUNK_CELLS = cells
    for name, got in default.items():
        assert _same(got, one_row[name]), name


@st.composite
def groups_and_seeds(draw):
    """A random group with M_N <= 2^12 and a seed."""
    radices = draw(st.lists(st.integers(2, 7), min_size=1, max_size=12))
    return make_group(_fit(radices, MAX_QUOTIENT_POINTS)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(groups_and_seeds())
def test_group_laws_and_characters_are_homomorphisms(case):
    spec, seed = case
    rng = np.random.default_rng(seed)
    x, y, z = (Element.from_index(spec, int(i)) for i in rng.integers(0, spec.size, 3))
    zero = Element.zero(spec)
    assert add(add(x, y), z) == add(x, add(y, z))
    assert add(x, y) == add(y, x)
    assert add(x, zero) == x and subtract(x, x) == zero
    assert add(subtract(x, y), y) == x
    assert add(x, subtract(zero, x)) == zero
    for s in range(spec.levels):
        multiple = zero
        for _ in range(spec.m[s]):
            multiple = add(multiple, generator(s, spec))
        assert multiple == zero  # e_s has order m_s
    for n in rng.integers(0, spec.size, 3):
        n = int(n)
        assert abs(psi(n, add(x, y)) - psi(n, x) * psi(n, y)) < TOL
        assert abs(psi(n, subtract(x, y)) - psi(n, x) * psi(n, y).conjugate()) < TOL


@settings(max_examples=60, deadline=None)
@given(groups_and_seeds())
def test_inverse_of_forward_is_identity_and_parseval_holds(case):
    spec, seed = case
    rank = int(np.random.default_rng(seed).integers(0, spec.levels + 1))
    for f in (GridFunction.random(spec, seed), GridFunction.random(spec, seed, rank)):
        fhat = forward(f)
        assert np.max(np.abs(inverse(fhat).values - f.values)) < TOL
        assert np.max(np.abs(forward(inverse(fhat)).coeffs - fhat.coeffs)) < TOL
        energy = np.mean(np.abs(f.values) ** 2)
        assert abs(energy - np.sum(np.abs(fhat.coeffs) ** 2)) < TOL * max(1.0, energy)
