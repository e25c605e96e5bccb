"""Property tests of the multiplier core, the identity sweeps and the
band-limited transforms over random radix sequences.

Each mean computed as one synthesis of fhat * lambda_n must agree to 1e-12
with routes that never touch the multiplier: the direct and Abel
accumulations of t_mean_oracles, and the q-weighted expansion in partial
sums.  The kernel identities hold to 1e-12, and every sweep returns, order
by order, the very value of the single-case call.  A spectrum below M_s
synthesizes, and an analysis up to M_s runs, on M_s cells only; both must
agree with the definitions (character rows, the naive transform) to 1e-12.
A batched
synthesis returns every row bitwise equal to its one-row synthesis, whatever
the batch size and the row's place in it, and the rows share butterflies by
their bands and the chunk size alone, whatever blocks they arrive in; the
order sweep hands each stack over with its rows' orders, which concatenate
to the checked orders, and runs the plan that prices it: its blocks cost
exactly what _order_cells() predicts.  The
sweeps that reduce a mean or a kernel on its band M_s instead of the whole
grid return the very errors, maxima and residuals of the tiled full-grid
route (the L1 profile, a sum in another order, to 1e-12); the kernel
profiles, reduced a whole stack at a time, are bitwise the one-order
reduction on each band; and the L_p errors and norms streamed a leaf at a
time, whatever the leaf size, are bitwise those of the tiled means, within
64 eps of the norms from exactly rounded sums, and bitwise the plain numpy
expression on a grid of one leaf.  The group laws, the character
homomorphism, inverse(forward(f)) = f and Parseval hold on every random
group.
"""

import itertools
import math
from bisect import bisect_left

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vilenkin.kernels
import vilenkin.transform
from vilenkin.group import Element, generator, make_group
from vilenkin.kernels import (
    _FAMILIES,
    _UNWEIGHTED,
    KernelProfileRow,
    _bands,
    _check_orders,
    _leading_position,
    _order_cells,
    _order_stacks,
    dirichlet,
    domination_constant,
    fejer,
    l1_profile,
    multiplier,
    norlund_kernel,
    norlund_mean,
    t_kernel,
)
from vilenkin.oracles import (
    abel_kernel_residuals,
    forward_naive,
    identity_residual,
    reflection_residuals,
    t_mean_oracles,
)
from vilenkin.points import _FORM_FAMILY, convergence_profile
from vilenkin.transform import (
    GridFunction,
    _analyse,
    _band,
    _synthesize_bands,
    _tiled,
    character_row,
    forward,
    norm,
    partial_sum,
    synthesize,
)
from vilenkin.weights import parse_weights

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
    oracles = {n: [direct, abel] for n, direct, abel in t_mean_oracles(f, w, ns)}
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
        assert r == next(abel_kernel_residuals(spec, w, [n]))[1]
    for rank in range(spec.levels + 1):
        # the block kernels reach sup |D_{M_r}| = M_r, and at M_r = 960 the
        # residual is already 1.8e-12, so this one is relative to that scale
        if w.Q(spec.M[rank]) > 0:
            assert identity_residual("block", spec, weights=w, rank=rank) < TOL * spec.M[rank]
    for n, direct, abel in t_mean_oracles(f, w, ns):
        assert np.max(np.abs(direct - abel)) < TOL
        _, alone_direct, alone_abel = next(t_mean_oracles(f, w, [n]))
        assert np.array_equal(direct, alone_direct)
        assert np.array_equal(abel, alone_abel)


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
    got = synthesize(spec, coeffs).values
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
    assert np.max(np.abs(got - forward_naive(f)[:count]), initial=0.0) < TOL


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
    batched = np.vstack([_tiled(stack, spec.size) for stack in _synthesize_bands(spec, [block])])
    assert batched.shape == (len(rows), spec.size)
    for row, got in zip(block, batched):
        full = np.zeros(spec.size, dtype=complex)
        full[: len(row)] = row
        assert np.array_equal(got, synthesize(spec, full).values)


@st.composite
def row_blocks(draw):
    """A random group and up to 40 rows of known counts, split into random blocks.

    A row's count is one past its last nonzero coefficient, 0 for an
    all-zero row.  The rows of a block share its width, at least their
    largest count; a block of count-0 rows may have width 0.
    """
    spec = make_group(draw(st.lists(st.integers(2, 7), min_size=1, max_size=10).map(_fit)))
    counts = draw(st.lists(st.integers(0, spec.size), min_size=1, max_size=40))
    if draw(st.booleans()):
        counts.sort()
    cuts = sorted(draw(st.sets(st.integers(1, len(counts)), max_size=6)) - {len(counts)})
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for start, stop in zip([0, *cuts], [*cuts, len(counts)]):
        top = max(counts[start:stop], default=0)
        width = 0 if top == 0 and draw(st.booleans()) else draw(st.integers(top, spec.size))
        block = np.zeros((stop - start, width), dtype=complex)
        for row, count in zip(block, counts[start:stop]):
            row[:count] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        blocks.append(block)
    return spec, counts, blocks


def _butterfly_partition(spec, counts, cells):
    """(rows, M_s) of each butterfly over rows of these counts, closed form.

    A row's band is the smallest M_s >= its count; the rows are cut at each
    change of band and after every max(1, cells // M_s) rows of one band.
    """
    shapes = []
    for band, run in itertools.groupby(spec.M[bisect_left(spec.M, c)] for c in counts):
        chunk = max(1, cells // band)
        full, rest = divmod(len(list(run)), chunk)
        shapes += [(chunk, band)] * full + ([(rest, band)] if rest else [])
    return shapes


@settings(max_examples=60, deadline=None)
@given(row_blocks())
def test_band_stream_partition_is_fixed_by_the_rows_alone(case):
    # the butterflies depend on the rows' bands and the chunk size only: the
    # same rows as one block give the same stacks, and each stack row is the
    # row's own synthesis on its band
    spec, counts, blocks = case
    whole = np.zeros((len(counts), max(block.shape[1] for block in blocks)), dtype=complex)
    at = 0
    for block in blocks:
        whole[at : at + len(block), : block.shape[1]] = block
        at += len(block)
    default = vilenkin.transform._SYNTH_CHUNK_CELLS
    try:
        for cells in (1, 8, default):
            vilenkin.transform._SYNTH_CHUNK_CELLS = cells
            want = _butterfly_partition(spec, counts, cells)
            stacks = list(_synthesize_bands(spec, blocks))
            assert [stack.shape for stack in stacks] == want
            assert [stack.shape for stack in _synthesize_bands(spec, [whole])] == want
            for got, row in zip(itertools.chain(*stacks), whole):
                assert np.array_equal(got, synthesize(spec, row).values[: len(got)])
    finally:
        vilenkin.transform._SYNTH_CHUNK_CELLS = default


@settings(max_examples=25, deadline=None)
@given(cases(), st.lists(st.integers(1, MAX_POINTS), min_size=1, max_size=40))
def test_batched_kernels_and_means_equal_single_syntheses(case, more):
    spec, w, ns, f, x = case
    ns = sorted({*ns, *(min(spec.size, max(w.n0, n)) for n in more)})
    # the sweeps leave each row on its band M_s; tiled, it is the public result
    for family in _FAMILIES:  # with f None, the kernels: the means of the unit impulse
        stacks = _order_stacks(family, None, ns, spec, w)
        batched = itertools.chain.from_iterable(stack for _, stack in stacks)
        for n, got in zip(ns, batched, strict=True):
            want = synthesize(spec, multiplier(family, n, spec, w))
            assert np.array_equal(np.tile(got, spec.size // len(got)), want.values)
    fh = _analyse(f, ns[-1])
    for form, family in _FORM_FAMILY.items():
        stacks = _order_stacks(family, f, ns, spec, w)
        means = itertools.chain.from_iterable(stack for _, stack in stacks)
        for n, got in zip(ns, means, strict=True):
            want = synthesize(spec, fh[:n] * multiplier(family, n, spec, w))
            assert np.array_equal(np.tile(got, spec.size // len(got)), want.values)


@settings(max_examples=40, deadline=None)
@given(cases(), st.sampled_from(_FAMILIES), st.data())
def test_order_stacks_carry_their_rows_orders(case, family, data):
    # each stack comes with the orders of its rows: in sweep order they are
    # the checked ascending ns, whatever their repeats or integer type, for
    # the kernels (f None) and the means alike
    spec, w, _, f, _ = case
    lowest = 0 if family in _UNWEIGHTED else w.n0
    ns = sorted(data.draw(st.lists(st.integers(lowest, spec.size), min_size=1, max_size=60)))
    ns = [np.int64(n) if i % 2 else n for i, n in enumerate(ns)]
    checked = _check_orders(family, ns, spec, w)
    for g in (None, f):
        pairs = list(_order_stacks(family, g, ns, spec, w))
        assert [len(orders) for orders, _ in pairs] == [len(stack) for _, stack in pairs]
        got = [n for orders, _ in pairs for n in orders]
        assert got == checked and all(type(n) is int for n in got)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cases(), family=st.sampled_from(_FAMILIES), data=st.data())
def test_order_blocks_are_runs_of_one_band(butterflies, case, family, data):
    # a sweep builds its coefficients a block of orders at a time: a run of
    # consecutive orders of one band M_s of its plan _bands(), cut after
    # every max(1, cells // M_s) of them, so that each block is one
    # butterfly's worth.  The work budget prices that plan: the blocks cost
    # exactly _order_cells(), and the inverse butterflies at most
    # _order_cells(reduced=0), since a row whose trailing coefficients vanish
    # is synthesized on a lower band than its order's
    spec, w, _, f, _ = case
    lowest = 0 if family in _UNWEIGHTED else w.n0
    ns = sorted(data.draw(st.lists(st.integers(lowest, spec.size), min_size=1, max_size=60)))
    reduced = data.draw(st.sampled_from([0, *spec.M]))
    assert [n for _, orders in _bands(spec, ns) for n in orders] == ns
    blocks = []
    multipliers = vilenkin.kernels._multipliers

    def spied(family, orders, *args):
        blocks.append(list(orders))
        return multipliers(family, orders, *args)

    default = vilenkin.transform._SYNTH_CHUNK_CELLS
    vilenkin.kernels._multipliers = spied
    try:
        for cells in (1, 8, default):
            vilenkin.transform._SYNTH_CHUNK_CELLS = cells
            for g in (None, f):
                blocks.clear()
                butterflies.clear()
                list(_order_stacks(family, g, ns, spec, w))
                assert [n for block in blocks for n in block] == ns
                bands = [_band(spec, block[0]) for block in blocks]
                for block, band in zip(blocks, bands):
                    assert {_band(spec, n) for n in block} == {band}
                    assert len(block) <= max(1, cells // band)
                for block, band, after in zip(blocks, bands, bands[1:]):
                    assert after != band or len(block) == max(1, cells // band)
                priced = sum(len(block) * max(band, reduced) for block, band in zip(blocks, bands))
                assert priced == _order_cells(spec, ns, reduced)
                synthesized = sum(rows * band for inverse, rows, band in butterflies if inverse)
                assert synthesized <= _order_cells(spec, ns, 0)
    finally:
        vilenkin.kernels._multipliers = multipliers
        vilenkin.transform._SYNTH_CHUNK_CELLS = default


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
def test_quotient_errors_equal_the_tiled_route(case):
    spec, w, ns, f, x, _ = case
    point = Element.from_index(spec, x)
    for form, family in _FORM_FAMILY.items():
        means = dict(_tiled_means(f, w, ns, family))
        for p in (1, 1.5, 2, math.inf):
            got = convergence_profile(f, w, ns, form=form, p=p)
            assert [r.err for r in got] == [norm(means[n] - f, p) for n in ns]
        got = convergence_profile(f, w, ns, form=form, point=point)
        assert [r.err for r in got] == [abs(means[n].values[x] - f.values[x]) for n in ns]


def _plain_norm(x, p):
    """The L_p norm as one numpy expression over the whole grid."""
    if p == math.inf:
        return float(np.max(np.abs(x)))
    return float(np.mean(np.abs(x) ** p) ** (1 / p))


def _exact_sum(terms):
    """math.fsum of terms, the exactly rounded sum, or inf where it overflows (fsum raises there)."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def _rescaled_norm(x, p, add=np.add.reduce):
    """(add(|x|^p) / M_N)^(1/p), or Blue's form scaled by max |x| where that sum over- or underflows.

    With the default add it is the plain numpy expression np.mean(...) ** (1 / p).
    """
    mags = np.abs(x)
    with np.errstate(over="ignore"):
        total = add(mags**p)
    peak = np.max(mags)
    if len(x) * np.finfo(float).tiny <= total < math.inf or not 0 < peak < math.inf:
        return float((total / len(x)) ** (1 / p))
    return float(peak * (add((mags / peak) ** p) / len(x)) ** (1 / p))


def _near_exact(err, x, p):
    """err is within 64 eps, relative, of x's L_p norm from the exactly rounded sum."""
    want = float(np.max(np.abs(x))) if p == math.inf else _rescaled_norm(x, p, _exact_sum)
    return abs(err - want) <= 64 * np.finfo(float).eps * want


@settings(max_examples=30, deadline=None)
@given(quotient_cases(), st.sampled_from(sorted(_FORM_FAMILY)), st.sampled_from([1, 8, 64, 4096]))
def test_streamed_lp_errors_and_norms_equal_the_plain_expression(case, form, leaf):
    # Leaves of 1, 8 and 64 cells cut a grid of more cells into blocks of
    # leaves, each row tiled to a leaf or read bare from its phase; a grid
    # of at most leaf cells (every grid at 4096, its rows several to a pass)
    # is one leaf, and there each error and norm is bitwise the plain numpy
    # expression.  Everywhere each error is bitwise norm(tiled mean - f, p),
    # whose leaves are the same, and within 64 eps of the norm from the
    # exactly rounded sum: np.add.reduce's pairwise sum of at most 2^14
    # nonnegative terms is within about 26 eps of exact, math.fsum adds
    # half an ulp, and the root divides the relative error by p.
    spec, w, ns, f, _, _ = case
    ns = sorted({*ns, spec.size})
    means = dict(_tiled_means(f, w, ns, _FORM_FAMILY[form]))
    default = vilenkin.transform._STREAM_CELLS
    vilenkin.transform._STREAM_CELLS = leaf
    try:
        for p in (1, 1.5, 2, math.inf):
            got = [r.err for r in convergence_profile(f, w, ns, form=form, p=p)]
            assert got == [norm(means[n] - f, p) for n in ns]
            cases = [(means[n].values - f.values, err) for n, err in zip(ns, got)]
            for x, err in [*cases, (f.values, norm(f, p))]:
                if spec.size <= leaf:
                    assert err == _plain_norm(x, p)
                assert _near_exact(err, x, p)
    finally:
        vilenkin.transform._STREAM_CELLS = default


@settings(max_examples=25, deadline=None)
@given(
    quotient_cases(),
    st.sampled_from(sorted(_FORM_FAMILY)),
    st.sampled_from([1, 64, 4096]),
    st.sampled_from([1e-200, 1e-3, 1.0, 1e3]),
    st.sampled_from([1.0, 2.5, 60.0, 200.0, 1000.0, 1e308]),
)
def test_lp_errors_whose_sums_over_or_underflow_are_rescaled_by_their_peak(
    case, form, leaf, scale, p
):
    # Each error is (sum / M_N)^(1/p) wherever its sum of |g - f|^p is a
    # normal float, and peak * mean((|g - f| / peak)^p)^(1/p) where it over-
    # or underflows; at p = 1e308 that is the peak itself, the L_inf error.
    # It is bitwise norm(tiled mean - f, p), and the plain numpy expression
    # on a grid of one leaf; it is within 64 eps of the same forms taken
    # from exactly rounded sums.
    spec, w, ns, f, _, _ = case
    f = GridFunction._own(spec, scale * f.values)
    ns = sorted({*ns, spec.size})
    means = dict(_tiled_means(f, w, ns, _FORM_FAMILY[form]))
    default = vilenkin.transform._STREAM_CELLS
    vilenkin.transform._STREAM_CELLS = leaf
    try:
        got = [r.err for r in convergence_profile(f, w, ns, form=form, p=p)]
        inf = [r.err for r in convergence_profile(f, w, ns, form=form, p=math.inf)]
        tiled = [norm(means[n] - f, p) for n in ns]
    finally:
        vilenkin.transform._STREAM_CELLS = default
    assert got == tiled
    for n, err in zip(ns, got):
        x = means[n].values - f.values
        if spec.size <= leaf:
            assert err == _rescaled_norm(x, p)
        assert _near_exact(err, x, p)
    assert all(math.isfinite(err) for err in got)
    if p == 1e308:
        assert got == inf


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


def _on_band(spec, coeffs):
    """synthesize(spec, coeffs) cut to the band M_s of its last nonzero coefficient."""
    return synthesize(spec, coeffs).values[: _band(spec, len(np.trim_zeros(coeffs, "b")))]


def _profile_by_order(family, ns, spec, w, tail_rank):
    """l1_profile's rows, each kernel synthesized alone and reduced on max(M_s, M_tail) cells."""
    tail_block = spec.M[tail_rank]
    for n in ns:
        values = _on_band(spec, multiplier(family, n, spec, w))
        cells = max(len(values), tail_block)
        mags = np.tile(np.abs(values), cells // len(values))
        tail = mags.reshape(-1, tail_block)[:, 1:].sum() / cells
        yield KernelProfileRow(n, float(mags.mean()), complex(values.mean()), float(tail))


@settings(max_examples=25, deadline=None)
@given(quotient_cases(), st.lists(st.integers(1, 2**9), max_size=40))
def test_kernel_profiles_equal_a_reduction_order_by_order(case, more):
    # l1_profile and domination_constant reduce whole butterfly stacks, in
    # runs of rows when tiled to a larger tail or denominator band: each row
    # must be bitwise the one-order reduction of the order it belongs to, so
    # an order paired with a neighbour's row fails here (the extra orders
    # put several rows in one stack)
    spec, w, ns, _, _, tail_rank = case
    ns = sorted({*ns, *(min(spec.size, max(w.n0, n)) for n in more)})
    for family in _FAMILIES:
        got = l1_profile(family, ns, spec, weights=w, tail_rank=tail_rank)
        assert got == list(_profile_by_order(family, ns, spec, w, tail_rank))
    assert domination_constant(ns, spec) == _domination_on_grid(ns, spec)


def _chunked_sweeps(spec, w, ns, f):
    """Every batched sweep's output, as plain lists of numbers and arrays."""
    out = {
        "reflection": list(reflection_residuals(spec)),
        "abel-kernel": list(abel_kernel_residuals(spec, w, ns)),
        "abel-mean": list(t_mean_oracles(f, w, ns)),
        "block": [
            identity_residual("block", spec, weights=w, rank=rank)
            for rank, block in enumerate(spec.M)
            if w.Q(block) > 0
        ],
    }
    for form, family in _FORM_FAMILY.items():
        stacks = _order_stacks(family, f, ns, spec, w)
        out[form] = list(itertools.chain.from_iterable(stack for _, stack in stacks))
    for family in _FAMILIES:
        stacks = _order_stacks(family, None, ns, spec, w)
        out[family + " kernels"] = list(itertools.chain.from_iterable(s for _, s in stacks))
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
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + zero == x and x - x == zero
    assert (x - y) + y == x
    assert x + (zero - x) == zero
    for s in range(spec.levels):
        multiple = zero
        for _ in range(spec.m[s]):
            multiple = multiple + generator(s, spec)
        assert multiple == zero  # e_s has order m_s
    for n in rng.integers(0, spec.size, 3):
        psi = character_row(spec, int(n))
        assert abs(psi[(x + y).index] - psi[x.index] * psi[y.index]) < TOL
        assert abs(psi[(x - y).index] - psi[x.index] * psi[y.index].conjugate()) < TOL


@settings(max_examples=60, deadline=None)
@given(groups_and_seeds())
def test_inverse_of_forward_is_identity_and_parseval_holds(case):
    spec, seed = case
    rank = int(np.random.default_rng(seed).integers(0, spec.levels + 1))
    for f in (GridFunction.random(spec, seed), GridFunction.random(spec, seed, rank)):
        fhat = forward(f)
        assert np.max(np.abs(synthesize(spec, fhat).values - f.values)) < TOL
        assert np.max(np.abs(forward(synthesize(spec, fhat)) - fhat)) < TOL
        energy = np.mean(np.abs(f.values) ** 2)
        assert abs(energy - np.sum(np.abs(fhat) ** 2)) < TOL * max(1.0, energy)
