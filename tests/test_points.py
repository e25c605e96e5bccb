"""Oscillation moduli and convergence profiles at grid points."""

import gc
import itertools
import math
from bisect import bisect_left

import numpy as np
import pytest
from conftest import TracedPeak

import vilenkin.kernels
import vilenkin.points
from vilenkin.group import Element, GroupSpec, generator, make_group
from vilenkin.kernels import l1_profile, multiplier, t_mean
from vilenkin.points import (
    convergence_profile,
    lebesgue_modulus,
    w_modulus,
)
from vilenkin.transform import (
    _STREAM_CELLS,
    _SYNTH_CHUNK_CELLS,
    GridFunction,
    _analyse,
    norm,
    partial_sum,
    synthesize,
)
from vilenkin.weights import WeightSequence, parse_weights


def oracle_w_modulus(f, x, rank):
    """Triple loop straight from the definition, membership by digit match."""
    spec = f.spec
    fx = f.values[x.index]
    total = 0.0
    for s in range(rank):
        for r in range(1, spec.m[s]):
            shifted = x
            for _ in range(r):
                shifted = shifted - generator(s, spec)
            for t in range(spec.size):
                if spec.digits(t)[:rank] == shifted.digits[:rank]:
                    total += spec.M[s] * abs(f.values[t] - fx) / spec.size
    return total


def test_lebesgue_modulus_of_constant_vanishes():
    spec = make_group([2, 3, 2])
    f = GridFunction.constant(spec, 3.5)
    for n in range(spec.size):
        x = Element.from_index(spec, n)
        for rank in range(spec.levels + 1):
            assert lebesgue_modulus(f, x, rank) == 0.0


def test_lebesgue_modulus_whole_group_average():
    # indicator of the even half, evaluated at an odd point: the rank-0
    # average of |f - 0| is the measure of the support
    spec = make_group([2], 3)
    f = GridFunction.indicator(spec, 1, 0)
    assert lebesgue_modulus(f, generator(0, spec), 0) == pytest.approx(0.5)


def test_lebesgue_modulus_vanishes_past_step_rank():
    spec = make_group([2, 3, 2, 3])
    rank = 2
    f = GridFunction.random(spec, seed=31, rank=rank)
    for n in range(spec.size):
        x = Element.from_index(spec, n)
        for r in range(rank, spec.levels + 1):
            assert lebesgue_modulus(f, x, r) < 1e-14


def test_w_modulus_character_spot_values():
    spec = make_group([2], 4)
    f = GridFunction.character(spec, 1)
    x0 = Element.zero(spec)
    assert w_modulus(f, x0, 0) == 0.0
    for rank in range(1, spec.levels + 1):
        assert w_modulus(f, x0, rank) == pytest.approx(2 / spec.M[rank])
    assert w_modulus(f, x0, 2) == 0.5


def test_w_modulus_matches_oracle():
    spec = make_group([2, 3, 2])
    f = GridFunction.random(spec, seed=32)
    for n in range(spec.size):
        x = Element.from_index(spec, n)
        for rank in range(spec.levels + 1):
            got = w_modulus(f, x, rank)
            assert got == pytest.approx(oracle_w_modulus(f, x, rank), abs=1e-12)


def test_w_modulus_zero_at_locally_flat_point():
    # a rank-2 step equal on the cells every digit shift can reach from 0
    spec = make_group([2], 4)
    base = [7.0, 7.0, 7.0, 3.0]
    f = GridFunction(spec, np.tile(base, spec.size // len(base)))
    x0 = Element.zero(spec)
    for rank in range(2, spec.levels + 1):
        assert w_modulus(f, x0, rank) == 0.0
    # but the cell that differs sees a nonzero modulus
    x3 = Element(spec, (1, 1, 0, 0))
    assert w_modulus(f, x3, 2) > 0


def test_w_modulus_validation():
    spec = make_group([2, 3, 2])
    f = GridFunction.constant(spec)
    with pytest.raises(ValueError):
        w_modulus(f, Element.zero(spec), 4)
    with pytest.raises(ValueError):
        w_modulus(f, Element.zero(make_group([2, 2])), 1)


def test_convergence_profile_fejer_pointwise_oracle():
    # half-group indicator at the origin: the only inexact partial sum is
    # S_1 f = 1/2, so the Fejer error at the origin is exactly 1/(2n)
    spec = make_group([2], 3)
    f = GridFunction.indicator(spec, 1, 0)
    rows = convergence_profile(
        f, WeightSequence("constant"), range(2, 9), form="norlund", point=Element.zero(spec)
    )
    assert [r.n for r in rows] == list(range(2, 9))
    for r in rows:
        assert r.err == pytest.approx(1 / (2 * r.n), abs=1e-14)
        assert r.mean_id == "constant|norlund"


def test_convergence_profile_block_partial_sums_collapse():
    # S_{M_r} reproduces a rank-2 step exactly once M_r >= M_2
    spec = make_group([2], 6)
    f = GridFunction.random(spec, seed=33, rank=2)
    rows = convergence_profile(f, None, spec.M, form="partial", p=1)
    assert rows[0].mean_id == "partial"
    for r in rows:
        if r.n >= spec.M[2]:
            assert r.err < 1e-13


def test_convergence_profile_norm_matches_direct_norm():
    spec = make_group([2, 3, 2])
    f = GridFunction.random(spec, seed=34)
    w = parse_weights("riesz")
    rows = convergence_profile(f, w, [3, 7, 12], p=2)
    for r in rows:
        assert r.err == pytest.approx(norm(t_mean(f, w, r.n) - f, 2), abs=1e-14)
        assert r.mean_id == "riesz|t"


def test_convergence_profile_validation():
    spec = make_group([2, 3, 2])
    f = GridFunction.constant(spec)
    w = WeightSequence("constant")
    with pytest.raises(ValueError):
        convergence_profile(f, w, [2], point=Element.zero(spec), p=1)
    with pytest.raises(ValueError):
        convergence_profile(f, w, [2])
    with pytest.raises(ValueError):
        convergence_profile(f, w, [2], p=1, form="mystery")
    with pytest.raises(ValueError):
        convergence_profile(f, None, [2], p=1, form="t")
    for p in (0.5, math.nan):
        with pytest.raises(ValueError):
            convergence_profile(f, w, [2], p=p)
    # riesz weights start at n0 = 2, so order 1 has no mean
    with pytest.raises(ValueError):
        convergence_profile(f, parse_weights("riesz"), [1], p=1)


@pytest.mark.parametrize("index", [5, 30])
def test_convergence_profile_refuses_a_point_of_another_group(index):
    # index 5 used to read cell 5 of the 12-cell grid silently, 30 to raise IndexError
    f = GridFunction.random(make_group([2, 3], 3), seed=0)
    x = Element.from_index(make_group([2, 3], 4), index)
    with pytest.raises(ValueError, match="point belongs to a different group"):
        convergence_profile(f, parse_weights("riesz"), [2, 3], point=x)


def test_partial_sum_sup_error_collapses_at_block():
    # sup-norm version of the same collapse, using the p=inf norm
    import math

    spec = make_group([2, 3, 2])
    f = GridFunction.random(spec, seed=35, rank=1)
    assert norm(partial_sum(f, spec.M[1]) - f, math.inf) < 1e-13


def _chunk_bound(bands):
    """Butterfly calls allowed for rows of these bands, in order: one per run
    of equal bands and per _SYNTH_CHUNK_CELLS cells of it."""
    return sum(
        math.ceil(len(list(run)) / max(1, _SYNTH_CHUNK_CELLS // band))
        for band, run in itertools.groupby(bands)
    )


def test_profiles_analyse_once_and_synthesize_once_per_order(monkeypatch, butterflies):
    # Counts, not timings: a return to per-order analysis or to one butterfly
    # per order shows on any machine.  Riesz weights have q_0 = 0, so the t
    # and Norlund multipliers vanish at j = n - 1 and an order-n row reaches
    # the band of n - 1 coefficients; a partial sum keeps all n of them.
    calls = {"_analyse": 0}
    analyse = vilenkin.kernels._analyse

    def counted(*args, **kwargs):
        calls["_analyse"] += 1
        return analyse(*args, **kwargs)

    monkeypatch.setattr(vilenkin.kernels, "_analyse", counted)
    spec = make_group([2, 3, 2, 3])
    f = GridFunction.random(spec, seed=36)
    w = parse_weights("riesz")

    def band(count):
        return spec.M[bisect_left(spec.M, count)]

    for form in ("t", "norlund", "partial"):
        reach = 0 if form == "partial" else 1
        ns = list(range(2, spec.size + 1))
        calls["_analyse"] = 0
        butterflies.clear()
        convergence_profile(f, w, ns, form=form, p=1)
        assert calls["_analyse"] == 1
        assert [inverse for inverse, _, _ in butterflies].count(False) == 1
        bands = [band(n - reach) for n in ns]  # one row per order
        synthesized = [(rows, m) for inverse, rows, m in butterflies if inverse]
        assert [m for rows, m in synthesized for _ in range(rows)] == bands
        assert len(synthesized) <= _chunk_bound(bands)
        assert _chunk_bound(bands) <= spec.levels + 1  # 36 cells: a chunk per band


def test_each_sweep_checks_its_orders_once(monkeypatch):
    # the orders used to be checked again by every chunk of the sweep,
    # after the analysis and the slices had used them: 26 times here
    calls = []
    check = vilenkin.kernels._check_orders

    def counted(*args):
        calls.append(args[0])
        return check(*args)

    monkeypatch.setattr(vilenkin.kernels, "_check_orders", counted)
    spec = make_group([2, 3], 7)
    f = GridFunction.random(spec, seed=40)
    w = parse_weights("riesz")
    ns = range(2, spec.size + 1)
    assert len(convergence_profile(f, w, ns, form="t", p=1)) == len(ns)
    assert calls == ["t"]
    calls.clear()
    assert len(l1_profile("t", ns, spec, weights=w)) == len(ns)
    assert calls == ["t"]


def test_pointwise_profile_reads_the_point_index_without_recomputing_it(monkeypatch):
    # an Element keeps the index its constructor computes: the profile used
    # to walk the point's digits through index_of once per stack and once
    # per row, 38 + 431 times here
    spec = make_group([2, 3], 7)
    f = GridFunction.random(spec, seed=5)
    x = Element(spec, (1, 0, 1, 0, 0, 0, 0))
    calls = []
    index_of = GroupSpec.index_of

    def counted(self, digits):
        calls.append(digits)
        return index_of(self, digits)

    monkeypatch.setattr(GroupSpec, "index_of", counted)
    ns = range(2, spec.size + 1)
    rows = convergence_profile(f, parse_weights("riesz"), ns, form="norlund", point=x)
    assert len(rows) == 431
    assert calls == []


def test_order_sweep_synthesizes_in_bounded_chunks():
    # 431 orders at M_N = 432 run in butterflies of at most 2^12 cells (9
    # rows at the full band): about 428 KB (0.41 MiB) traced.  Chunks of
    # 2^14 cells already peak at 0.61 MB, and one butterfly per band at 3 MB.
    spec = make_group([2, 3], 7)
    f = GridFunction.random(spec, seed=38)
    w = parse_weights("riesz")
    ns = range(2, spec.size + 1)
    convergence_profile(f, w, ns, form="t", p=1)  # fills the weight and stage caches
    with TracedPeak() as traced:
        rows = convergence_profile(f, w, ns, form="t", p=1)
    assert len(rows) == 431
    assert traced.peak < 500_000


def test_low_order_l1_error_on_a_large_grid_needs_no_tiled_means():
    # Orders 2..6 of a 2^20-cell function live on 8 cells.  Their L1 errors
    # against f stream |g - f| through leaves of f, about 0.7 MiB traced;
    # one M_N-float buffer of |g - f|^p took 8.4 MiB, and tiling each mean
    # and forming g - f, |g - f| and |g - f|^p 48 MiB.
    spec = make_group([2], 20)
    f = GridFunction.random(spec, seed=39)
    w = parse_weights("riesz")
    convergence_profile(f, w, range(2, 7), p=1)  # fills the weight and stage caches
    with TracedPeak() as traced:
        rows = convergence_profile(f, w, range(2, 7), p=1)
    assert [r.n for r in rows] == [2, 3, 4, 5, 6]
    assert traced.peak < 2**20


def _plain_norm(x, p):
    """The L_p norm as one numpy expression over the whole grid, the independent side."""
    if p == math.inf:
        return float(np.max(np.abs(x)))
    return float(np.mean(np.abs(x) ** p) ** (1 / p))


def _fsum_norm(x, p):
    """(fsum(|x|^p) / M_N)^(1/p), from the exactly rounded sum; max |x| at p = inf."""
    if p == math.inf:
        return float(np.max(np.abs(x)))
    return (math.fsum(np.abs(x) ** p) / len(x)) ** (1 / p)


@pytest.mark.parametrize(
    "radices, levels", [([2], 17), ([3], 11), ([7, 4, 2], 6), ([7, 4, 2], 7)]
)
def test_lp_errors_and_norms_equal_the_plain_expression(radices, levels):
    # 7,4,2 x 6 is one leaf of _STREAM_CELLS cells, so each error and norm
    # is bitwise the plain numpy expression.  The other grids (2^17, 3^11,
    # 7*4*2*7*4*2*7 cells) run several leaves, added by math.fsum: each
    # error is bitwise norm(tiled mean - f, p), whose leaves are the same,
    # and each is within 64 eps of the norm from the exactly rounded sum.
    # The orders reach bands of one cell, bands below a leaf (the row tiled
    # to a leaf), bands above one (a bare row read from its phase) and the
    # whole grid.
    spec = make_group(radices, levels)
    f = GridFunction.random(spec, seed=47)
    w = parse_weights("riesz")
    ns = sorted({2, 3, 9, 40, 301, spec.size // 3 + 1, spec.size})
    fh = _analyse(f, spec.size)
    means = {n: synthesize(spec, fh[:n] * multiplier("t", n, spec, w)) for n in ns}
    eps = np.finfo(float).eps
    for p in (1, 1.5, 2, math.inf):
        got = [r.err for r in convergence_profile(f, w, ns, p=p)]
        assert got == [norm(means[n] - f, p) for n in ns]
        cases = [(means[n].values - f.values, err) for n, err in zip(ns, got)]
        for x, err in [*cases, (f.values, norm(f, p))]:
            if spec.size <= _STREAM_CELLS:
                assert err == _plain_norm(x, p)
            want = _fsum_norm(x, p)
            assert abs(err - want) <= 64 * eps * want
    assert (spec.size <= _STREAM_CELLS) == (levels == 6)


def test_lp_errors_reduce_once_per_butterfly_stack(monkeypatch, butterflies):
    # one pass over f serves every order of a stack: 431 orders at M_N = 432
    # run in 38 butterflies, and so in 38 reductions, of up to 36 rows in
    # passes of 9 whole rows
    calls = []
    reduce = vilenkin.points._lp_norms

    def counted(f, p, g):
        calls.append(len(g))
        return reduce(f, p, g)

    monkeypatch.setattr(vilenkin.points, "_lp_norms", counted)
    spec = make_group([2, 3], 7)
    f = GridFunction.random(spec, seed=48)
    w = parse_weights("riesz")
    ns = range(2, spec.size + 1)
    rows = convergence_profile(f, w, ns, p=1)
    assert len(rows) == len(ns) == sum(calls)
    assert calls == [rows for inverse, rows, _ in butterflies if inverse]
    assert len(calls) < len(ns) // 4
    fh = _analyse(f, spec.size)
    for n, row in zip(ns, rows, strict=True):
        mean = synthesize(spec, fh[:n] * multiplier("t", n, spec, w))
        assert row.err == _plain_norm(mean.values - f.values, 1)


def test_lp_profile_leaves_no_reference_cycles():
    # A reduction whose scratch sat in a reference cycle would keep it until
    # the collector ran.
    spec = make_group([2], 16)
    f = GridFunction.random(spec, seed=49)
    w = parse_weights("riesz")
    convergence_profile(f, w, range(2, 40), p=1.5)  # fills the weight and stage caches
    gc.collect()
    gc.disable()
    try:
        convergence_profile(f, w, range(2, 40), p=1.5)
        convergence_profile(f, w, range(2, 40), form="norlund", p=math.inf)
        norm(f, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_low_order_profiles_transform_only_the_band_they_read(butterflies):
    # Orders up to 6 read fhat[:6], and psi_n for n < 8 = M_3 is a function
    # of x mod 8, so on the 4096-cell dyadic grid every butterfly runs on at
    # most 8 cells: the analysis on exactly 8, each synthesized row on the
    # smallest M_s covering its spectrum.  Lengths, not timings: a return to
    # full-grid transforms fails on any machine.
    spec = make_group([2], 12)
    f = GridFunction.random(spec, seed=37)
    w = parse_weights("riesz")
    for form in ("t", "norlund", "partial"):
        butterflies.clear()
        convergence_profile(f, w, range(2, 7), form=form, p=1)
        lengths = [band for _, rows, band in butterflies for _ in range(rows)]
        assert len(lengths) == 6 and lengths[0] == 8 and max(lengths) == 8
        assert len(butterflies) <= 1 + _chunk_bound(lengths[1:])
    # partial sums keep every coefficient below n: bands 2, 4, 4, 8, 8, in
    # one butterfly per band after the analysis
    assert lengths == [8, 2, 4, 4, 8, 8]
    assert [band for _, _, band in butterflies] == [8, 2, 4, 8]
