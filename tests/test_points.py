"""Oscillation moduli and convergence/maximal profiles at grid points."""

import itertools
import math
import tracemalloc
from bisect import bisect_left

import numpy as np
import pytest

import vilenkin.points
from vilenkin.group import Element, generator, make_group, subtract
from vilenkin.means import parse_weights, weights
from vilenkin.points import (
    convergence_profile,
    lebesgue_modulus,
    maximal_profile,
    w_modulus,
)
from vilenkin.transform import (
    _SYNTH_CHUNK_CELLS,
    GridFunction,
    lift_step,
    norm,
    partial_sum,
    weak_norm,
)


def oracle_w_modulus(f, x, rank):
    """Triple loop straight from the definition, membership by digit match."""
    spec = f.spec
    fx = f.values[x.index]
    total = 0.0
    for s in range(rank):
        for r in range(1, spec.m[s]):
            shifted = x
            for _ in range(r):
                shifted = subtract(shifted, generator(s, spec))
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
    f = lift_step(spec, 2, [7.0, 7.0, 7.0, 3.0])
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
        f, weights("constant"), range(2, 9), form="norlund", point=Element.zero(spec)
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
    from vilenkin.means import t_mean

    rows = convergence_profile(f, w, [3, 7, 12], p=2)
    for r in rows:
        assert r.err == pytest.approx(norm(t_mean(f, w, r.n) - f, 2), abs=1e-14)
        assert r.mean_id == "riesz|t"


def test_convergence_profile_validation():
    spec = make_group([2, 3, 2])
    f = GridFunction.constant(spec)
    w = weights("constant")
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


def test_maximal_profile_character():
    # |sigma_n psi_1| = (n-1)/n everywhere, so the running max is the last one
    spec = make_group([2], 4)
    f = GridFunction.character(spec, 1)
    got = maximal_profile(f, weights("constant"), 8, form="norlund")
    assert np.max(np.abs(got.values - 7 / 8)) < 1e-13
    one = GridFunction.constant(spec)
    assert np.max(np.abs(maximal_profile(one, weights("constant"), 8).values - 1)) < 1e-13


def test_maximal_profile_weak_type_statistic_is_tame():
    # weak-L1 size of the Fejer maximal function stays within a small
    # multiple of ||f||_1 on seeded data
    spec = make_group([2], 5)
    w = weights("constant")
    worst = 0.0
    for seed in range(5):
        f = GridFunction.random(spec, seed=seed)
        star = maximal_profile(f, w, spec.size)
        worst = max(worst, weak_norm(star, 1) / norm(f, 1))
    assert np.isfinite(worst)
    assert worst < 10.0


def test_maximal_profile_validation():
    spec = make_group([2, 3, 2])
    f = GridFunction.constant(spec)
    with pytest.raises(ValueError):
        maximal_profile(f, weights("constant"), 0)
    with pytest.raises(ValueError):
        maximal_profile(f, weights("constant"), spec.size + 1)
    with pytest.raises(ValueError):
        maximal_profile(f, None, 4, form="t")


def test_maximal_profile_refuses_an_empty_order_range():
    # riesz weights start at n0 = 2, so n_max = 1 leaves no order; the
    # maximum over no means is not the zero function
    spec = make_group([2, 3], 3)
    f = GridFunction.random(spec, seed=40)
    riesz = parse_weights("riesz")
    with pytest.raises(ValueError):
        convergence_profile(f, riesz, [1], p=1)
    with pytest.raises(ValueError, match="no orders"):
        maximal_profile(f, riesz, 1, form="t")
    with pytest.raises(ValueError, match="no orders"):
        maximal_profile(f, riesz, 1, form="norlund")
    assert np.max(np.abs(maximal_profile(f, riesz, 2, form="t").values)) > 0


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
    analyse = vilenkin.points._analyse

    def counted(*args, **kwargs):
        calls["_analyse"] += 1
        return analyse(*args, **kwargs)

    monkeypatch.setattr(vilenkin.points, "_analyse", counted)
    spec = make_group([2, 3, 2, 3])
    f = GridFunction.random(spec, seed=36)
    w = parse_weights("riesz")

    def band(count):
        return spec.M[bisect_left(spec.M, count)]

    for form in ("t", "norlund", "partial"):
        reach = 0 if form == "partial" else 1
        start = 1 if form == "partial" else w.n0
        ns = list(range(2, spec.size + 1))
        for run, orders in (
            (lambda: convergence_profile(f, w, ns, form=form, p=1), ns),
            (lambda: maximal_profile(f, w, spec.size, form=form), range(start, spec.size + 1)),
        ):
            calls["_analyse"] = 0
            butterflies.clear()
            run()
            assert calls["_analyse"] == 1
            assert [inverse for inverse, _, _ in butterflies].count(False) == 1
            bands = [band(n - reach) for n in orders]  # one row per order
            synthesized = [(rows, m) for inverse, rows, m in butterflies if inverse]
            assert [m for rows, m in synthesized for _ in range(rows)] == bands
            assert len(synthesized) <= _chunk_bound(bands)
            assert _chunk_bound(bands) <= spec.levels + 1  # 36 cells: a chunk per band


def test_order_sweep_synthesizes_in_bounded_chunks():
    # 431 orders at M_N = 432 run in butterflies of at most 2^12 cells (9
    # rows at the full band): about 0.23 MB traced.  Chunks of 2^14 cells
    # already peak at 0.61 MB, and one butterfly per band at 3 MB.
    spec = make_group([2, 3], 7)
    f = GridFunction.random(spec, seed=38)
    w = parse_weights("riesz")
    ns = range(2, spec.size + 1)
    convergence_profile(f, w, ns, form="t", p=1)  # fills the weight and stage caches
    tracemalloc.start()
    try:
        rows = convergence_profile(f, w, ns, form="t", p=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 431
    assert peak < 500_000


def test_low_order_l1_error_on_a_large_grid_needs_no_tiled_means():
    # Orders 2..6 of a 2^20-cell function live on 8 cells.  Their L1 errors
    # against f need one M_N-float buffer (8 MiB) plus a bounded chunk of
    # fibres, 8.4 MiB traced; tiling each mean and forming g - f, |g - f|
    # and |g - f|^p took 48 MiB.
    spec = make_group([2], 20)
    f = GridFunction.random(spec, seed=39)
    w = parse_weights("riesz")
    convergence_profile(f, w, range(2, 7), p=1)  # fills the weight and stage caches
    tracemalloc.start()
    try:
        rows = convergence_profile(f, w, range(2, 7), p=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.n for r in rows] == [2, 3, 4, 5, 6]
    assert peak < 12 * 2**20


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
