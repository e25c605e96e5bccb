"""Kernel values, integrals, algebraic identities, and the domination ratio.

Kernels are produced from closed-form character coefficients; the oracles
below rebuild them instead as literal weighted sums of Dirichlet kernels,
which is the defining formula.
"""

import numpy as np
import pytest
from conftest import TracedPeak

import vilenkin.oracles
import vilenkin.transform
from vilenkin.group import Element, interval_members, make_group
from vilenkin.kernels import (
    dirichlet,
    domination_constant,
    fejer,
    l1_profile,
    norlund_kernel,
    t_kernel,
    t_mean,
)
from vilenkin.oracles import (
    abel_kernel_residuals,
    identity_residual,
    reflection_residuals,
    t_mean_oracles,
)
from vilenkin.transform import _SYNTH_CHUNK_CELLS, GridFunction, character_row, norm
from vilenkin.weights import parse_weights

FAMILIES = ("constant", "cesaro:0.5", "icesaro:0.5", "power:0.5", "riesz", "nlog", "logpow:0.5")


def oracle_dirichlet(spec, n):
    acc = np.zeros(spec.size, dtype=complex)
    for k in range(n):
        acc += character_row(spec, k)
    return acc


def test_dirichlet_basics():
    spec = make_group([2, 3, 2, 3])
    assert np.max(np.abs(dirichlet(0, spec).values)) == 0
    assert np.max(np.abs(dirichlet(1, spec).values - 1)) == 0
    for n in range(1, spec.size + 1):
        assert abs(dirichlet(n, spec).integral - 1) < 1e-12
    with pytest.raises(ValueError):
        dirichlet(spec.size + 1, spec)


def test_dirichlet_matches_character_sum_oracle():
    spec = make_group([2, 3, 2])
    for n in range(spec.size + 1):
        got = dirichlet(n, spec).values
        assert np.max(np.abs(got - oracle_dirichlet(spec, n)), initial=0.0) < 1e-13


def test_dirichlet_blocks_are_scaled_indicators():
    spec = make_group([2, 3, 2])
    for rank in range(spec.levels + 1):
        block = spec.M[rank]
        want = np.zeros(spec.size)
        want[interval_members(Element.zero(spec), rank)] = block
        assert np.max(np.abs(dirichlet(block, spec).values - want)) < 1e-12
        # hence L1 norm exactly 1
        assert norm(dirichlet(block, spec), 1) == pytest.approx(1.0, abs=1e-12)


def test_fejer_zero_point_and_integral():
    spec = make_group([2, 3, 2, 3])
    for n in range(1, spec.size + 1):
        k = fejer(n, spec)
        assert abs(k.values[0] - (n + 1) / 2) < 1e-12
        assert abs(k.integral - 1) < 1e-12
    assert np.max(np.abs(fejer(0, spec).values)) == 0


def test_fejer_hand_derived_table():
    # On the dyadic group of 8 cells K_4 is constant on rank-2 intervals
    # with values 2.5, 0.5, 1, 0 on the cosets of 0, 1, 2, 3.
    spec = make_group([2], 3)
    k4 = fejer(4, spec)
    want = np.array([2.5, 0.5, 1.0, 0.0, 2.5, 0.5, 1.0, 0.0])
    assert np.max(np.abs(k4.values - want)) < 1e-13
    assert norm(k4, 1) == pytest.approx(1.0, abs=1e-13)


def test_fejer_is_average_of_dirichlet():
    spec = make_group([2, 3, 2])
    for n in (1, 2, 5, 12):
        want = sum(oracle_dirichlet(spec, k) for k in range(1, n + 1)) / n
        assert np.max(np.abs(fejer(n, spec).values - want)) < 1e-12


@pytest.mark.parametrize("family", FAMILIES)
def test_t_kernel_matches_weighted_sum_oracle(family):
    spec = make_group([2, 3, 2])
    w = parse_weights(family)
    for n in (2, 3, 7, 12):
        q = w.q_array(n)
        want = np.zeros(spec.size, dtype=complex)
        for k in range(n):
            want += q[k] * oracle_dirichlet(spec, k)
        want /= w.Q(n)
        assert np.max(np.abs(t_kernel(w, n, spec).values - want)) < 1e-12


@pytest.mark.parametrize("family", FAMILIES)
def test_norlund_kernel_matches_weighted_sum_oracle(family):
    spec = make_group([2, 3, 2])
    w = parse_weights(family)
    for n in (2, 3, 7, 12):
        q = w.q_array(n)
        want = np.zeros(spec.size, dtype=complex)
        for k in range(1, n + 1):
            want += q[n - k] * oracle_dirichlet(spec, k)
        want /= w.Q(n)
        assert np.max(np.abs(norlund_kernel(w, n, spec).values - want)) < 1e-12


def test_t_kernel_examples():
    spec = make_group([2, 3, 2, 3])
    const = parse_weights("constant")
    assert np.max(np.abs(t_kernel(const, 2, spec).values - 0.5)) < 1e-13
    for n in (2, 5, 12):
        lhs = t_kernel(const, n, spec).values
        rhs = (n - 1) / n * fejer(n - 1, spec).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12
    power = parse_weights("power:0.5")
    for n in (2, 7, 36):
        assert abs(t_kernel(power, n, spec).integral - 1) < 1e-12


def test_kernel_integrals_all_families():
    spec = make_group([2, 3, 2, 3])
    for family in FAMILIES:
        w = parse_weights(family)
        for n in range(w.n0, spec.size + 1):
            got = t_kernel(w, n, spec).integral
            want = (w.Q(n) - w.q(0)) / w.Q(n)
            assert abs(got - want) < 1e-12
            assert abs(norlund_kernel(w, n, spec).integral - 1) < 1e-12


def test_norlund_constant_weights_equal_fejer():
    spec = make_group([2, 3, 2, 3])
    w = parse_weights("constant")
    for n in (1, 4, 17, 36):
        assert np.array_equal(norlund_kernel(w, n, spec).values, fejer(n, spec).values)


def test_kernel_order_validation():
    spec = make_group([2, 3, 2])
    w = parse_weights("riesz")
    with pytest.raises(ValueError):
        t_kernel(w, 0, spec)
    with pytest.raises(ValueError):
        t_kernel(w, 1, spec)  # Q(1) = 0 for a leading-zero family
    with pytest.raises(ValueError):
        norlund_kernel(w, spec.size + 1, spec)


def test_reflection_identity_all_offsets():
    for spec in (make_group([2, 3, 2]), make_group([2], 4)):
        for rank in range(spec.levels + 1):
            for j in range(spec.M[rank]):
                r = identity_residual("reflection", spec, rank=rank, j=j)
                assert r < 1e-12


def test_abel_kernel_identity():
    spec = make_group([2, 3, 2])
    for family in FAMILIES:
        w = parse_weights(family)
        for n in range(w.n0, spec.size + 1):
            assert identity_residual("abel-kernel", spec, weights=w, n=n) < 1e-12


def test_block_identity():
    for spec in (make_group([2, 3, 2]), make_group([2], 5)):
        for family in FAMILIES:
            w = parse_weights(family)
            for rank in range(spec.levels + 1):
                if w.Q(spec.M[rank]) <= 0:
                    continue
                r = identity_residual("block", spec, weights=w, rank=rank)
                assert r < 1e-12


def test_identity_residual_validation():
    spec = make_group([2, 3, 2])
    w = parse_weights("constant")
    with pytest.raises(ValueError):
        identity_residual("mystery", spec)
    with pytest.raises(ValueError):
        identity_residual("reflection", spec, rank=1)
    with pytest.raises(ValueError):
        identity_residual("reflection", spec, rank=1, j=2)
    with pytest.raises(ValueError):
        identity_residual("abel-kernel", spec, weights=w)
    with pytest.raises(ValueError):
        identity_residual("block", spec, weights=w)


def test_l1_profile_fejer_row():
    spec = make_group([2], 3)
    rows = l1_profile("fejer", [1, 2, 3, 4], spec, tail_rank=1)
    assert [r.n for r in rows] == [1, 2, 3, 4]
    last = rows[-1]
    assert last.l1 == pytest.approx(1.0, abs=1e-13)
    assert last.integral == pytest.approx(1.0, abs=1e-13)
    assert last.tail == pytest.approx(0.125, abs=1e-13)


def test_l1_profile_validation():
    spec = make_group([2], 3)
    with pytest.raises(ValueError):
        l1_profile("box", [1], spec)
    with pytest.raises(ValueError):
        l1_profile("t", [2], spec)  # weights required
    with pytest.raises(ValueError):
        l1_profile("fejer", [1], spec, tail_rank=9)


def test_low_order_l1_profile_memory_is_independent_of_grid_size():
    # Fejer kernels of order <= 200 live on at most 256 cells, and so do
    # their rank-1 tails, so the profile is reduced on those cells at any
    # M_N.  Tiling every kernel to M_N took 41 MiB traced at 2^20, and 3.5 s.
    profiles, peaks = [], []
    for levels in (16, 20):
        spec = make_group([2], levels)
        l1_profile("fejer", range(1, 201), spec)  # fills the stage caches
        with TracedPeak() as traced:
            profiles.append(l1_profile("fejer", range(1, 201), spec))
        peaks.append(traced.peak)
    assert profiles[0] == profiles[1]
    assert max(peaks) < 512_000


def test_block_identity_memory_is_set_by_the_block_not_the_grid():
    # psi_{M_r - 1} is built on its M_r cells from the first r coordinates;
    # taking the whole M_N-cell row and its int64 phases set a 6.0 MiB
    # traced peak at every rank up to 10 here
    spec, w = make_group([2], 18), parse_weights("riesz")
    for rank in range(1, 11):
        block = spec.M[rank]
        identity_residual("block", spec, weights=w, rank=rank)  # fills the stage caches
        with TracedPeak() as traced:
            got = identity_residual("block", spec, weights=w, rank=rank)
        assert traced.peak < 2**20
        lhs = t_kernel(w, block, spec).values[:block]
        full = dirichlet(block, spec).values[:block]
        low = norlund_kernel(w, block, spec).values[:block]
        row = character_row(spec, block - 1)[:block]
        assert got == float(np.max(np.abs(lhs - (full - row * np.conjugate(low)))))


def test_reflection_residual_memory_is_set_by_the_block_not_the_grid():
    # D_{M_r - j}, D_{M_r} and D_j run as one block on the M_r cells, with
    # psi_{M_r - 1} on the same cells; three M_N-cell Dirichlet kernels and
    # the M_N-cell character row set a 22.0 MiB traced peak here
    spec = make_group([2], 18)
    for rank in range(1, 11):
        block = spec.M[rank]
        for j in (1, block // 3):
            identity_residual("reflection", spec, rank=rank, j=j)  # fills the stage caches
            with TracedPeak() as traced:
                got = identity_residual("reflection", spec, rank=rank, j=j)
            assert traced.peak < 2**20
            full = dirichlet(block, spec).values
            row = character_row(spec, block - 1)
            rhs = full - row * np.conjugate(dirichlet(j, spec).values)
            assert got == float(np.max(np.abs(dirichlet(block - j, spec).values - rhs)))
    small = make_group([2], 10)
    for rank, j, r in reflection_residuals(small):
        assert r == identity_residual("reflection", small, rank=rank, j=j)


def test_identity_sweeps_hold_a_few_chunks_at_a_time():
    # The sweeps run their cases a chunk of rows at a time, so the traced
    # peak is a few chunks of complex cells, not one stack of every case:
    # at M_N = 216 the 215 orders of one such stack take 743 KB.  Measured:
    # 254 KiB reflection, 386 KiB abel-kernel, 219 KiB abel-mean; one case
    # at a time took 212, 226 and 44 KiB.
    spec, w = make_group([2, 3], 6), parse_weights("riesz")
    f = GridFunction.random(spec, seed=5)
    ns = range(w.n0, spec.size + 1)
    bound = 8 * 16 * _SYNTH_CHUNK_CELLS
    assert bound < 16 * spec.size * len(ns)  # below one stack of every order
    sweeps = {
        "reflection": lambda: list(reflection_residuals(spec)),
        "abel-kernel": lambda: list(abel_kernel_residuals(spec, w, ns)),
        "abel-mean": lambda: [np.max(np.abs(d - a)) for _, d, a in t_mean_oracles(f, w, ns)],
    }
    for name, sweep in sweeps.items():
        sweep()  # fills the stage caches
        with TracedPeak() as traced:
            sweep()
        assert traced.peak < bound, name


def test_abel_sweeps_check_their_orders_before_any_transform(monkeypatch):
    # Both Abel sweeps refuse orders that do not ascend, or that no t kernel
    # has, before any analysis or synthesis; an empty order list yields
    # nothing and runs no transform
    spec, w = make_group([2, 3], 3), parse_weights("riesz")
    f = GridFunction.random(spec, seed=4)

    def refused(*args, **kwargs):
        raise AssertionError("a transform ran before the orders were checked")

    monkeypatch.setattr(vilenkin.oracles, "forward", refused)
    monkeypatch.setattr(vilenkin.transform, "_apply_stages", refused)
    sweeps = {
        "abel-kernel": lambda ns: abel_kernel_residuals(spec, w, ns),
        "abel-mean": lambda ns: t_mean_oracles(f, w, ns),
    }
    for name, sweep in sweeps.items():
        with pytest.raises(ValueError, match="orders must ascend, got 3 after 5"):
            next(sweep([2, 5, 3]))
        with pytest.raises(ValueError, match="orders must ascend"):
            next(sweep(range(spec.size, 1, -1)))
        with pytest.raises(ValueError, match=r"Q\(1\) not positive"):
            next(sweep([1, 2]))
        with pytest.raises(ValueError, match="outside"):
            next(sweep([2, spec.size + 1]))
        assert list(sweep([])) == [], name


def test_t_mean_oracles_yield_fresh_arrays():
    # every item is kept before any is compared, so a row that views a
    # running sum would read a later step; one grid builds many character
    # rows per chunk, the other one (_chunk_rows(M_N) = 341 and 1)
    w = parse_weights("riesz")
    for spec, ns in ((make_group([2, 3], 3), range(2, 13)), (make_group([2], 12), [2, 3, 3, 40])):
        f = GridFunction.random(spec, seed=6)
        items = list(t_mean_oracles(f, w, ns))
        assert [n for n, _, _ in items] == list(ns)
        for n, direct, abel in items:
            assert np.array_equal(direct, t_mean(f, w, n, method="direct").values)
            assert np.array_equal(abel, t_mean(f, w, n, method="abel").values)


def test_l1_profile_t_family_tails_shrink():
    spec = make_group([2], 6)
    w = parse_weights("logpow:0.5")
    blocks = [b for b in spec.M if w.Q(b) > 0]
    rows = l1_profile("t", blocks, spec, weights=w, tail_rank=2)
    tails = [r.tail for r in rows]
    assert all(a > b for a, b in zip(tails, tails[1:]))


def test_domination_spot_value():
    spec = make_group([2], 3)
    assert domination_constant([3], spec) == pytest.approx(1.5, abs=1e-12)


def test_domination_block_orders_are_tame():
    # at n = M_l the numerator term appears in the denominator sum
    spec = make_group([2, 3, 2, 3])
    for rank in range(spec.levels + 1):
        assert domination_constant([spec.M[rank]], spec) <= 1.0 + 1e-12


def test_domination_finite_over_full_range():
    for spec in (make_group([2, 3, 2, 3]), make_group([2], 6)):
        c = domination_constant(range(1, spec.size + 1), spec)
        assert np.isfinite(c)
        assert c >= 1.0


def test_domination_validation():
    spec = make_group([2, 3, 2])
    with pytest.raises(ValueError):
        domination_constant([], spec)
    with pytest.raises(ValueError):
        domination_constant([0], spec)
    with pytest.raises(ValueError):
        domination_constant([spec.size + 1], spec)
