"""Weight families, classification gates, and the summability means."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import TracedPeak

from vilenkin.group import make_group
from vilenkin.kernels import norlund_kernel, norlund_mean, t_mean
from vilenkin.oracles import abel_weight_residual, t_mean_oracles
from vilenkin.transform import GridFunction, convolve, norm, partial_sum
from vilenkin.weights import (
    WeightSequence,
    _q_cache,
    binomial_sequence,
    classify,
    parse_weights,
    passes_gate,
)

ALL_FAMILIES = (
    "constant",
    "cesaro:0.5",
    "icesaro:0.5",
    "power:0.5",
    "riesz",
    "nlog",
    "logpow:0.5",
)
T_FAMILIES = ("constant", "icesaro:0.5", "power:0.5", "riesz", "logpow:0.5")


def test_binomial_sequence_values():
    got = binomial_sequence(0.5, 4)
    assert got[0] == 0.0
    assert got[1] == pytest.approx(1.5)
    assert got[2] == pytest.approx(1.875)
    assert got[3] == pytest.approx(1.875 * 3.5 / 3)
    with pytest.raises(ValueError):
        binomial_sequence(0.5, 0)


@pytest.mark.parametrize("order, count", [(1e308, 4), (-1e308, 4), (-2000.0, 3000)])
def test_binomial_sequence_refuses_an_overflow(order, count):
    # 1e308 overflows the product, and -2000 overflows before a zero factor
    # at k = 2000 would turn inf into nan; neither warns
    with pytest.raises(ValueError, match=re.escape(f"order {order} overflows the binomial coefficients at count {count}")):
        binomial_sequence(order, count)


def test_weight_values():
    const = WeightSequence("constant")
    assert const.Q(7) == 7.0 and const.q(0) == 1.0
    riesz = parse_weights("riesz")
    assert riesz.q(0) == 0.0
    assert riesz.q(3) == pytest.approx(1 / 3)
    assert riesz.Q(4) == pytest.approx(11 / 6, abs=1e-15)
    power = parse_weights("power:0.5")
    assert power.q(4) == pytest.approx(4 ** (-0.5))
    logpow = parse_weights("logpow:0.5")
    assert logpow.q(0) == 0.0
    assert logpow.q(3) == pytest.approx(math.log(4) ** 0.5)
    ces = parse_weights("cesaro:0.5")
    alpha = 0.5
    assert ces.q(1) == pytest.approx(alpha)
    assert ces.q(2) == pytest.approx(alpha * (alpha + 1) / 2)
    # cumulative sum telescopes to the binomial of one order up, minus the
    # dropped k=0 term
    for n in (2, 5, 30):
        want = binomial_sequence(alpha, n)[n - 1] - 1
        assert ces.Q(n) == pytest.approx(want, rel=1e-13)


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightSequence("mystery")
    with pytest.raises(ValueError):
        WeightSequence("cesaro")  # alpha required
    with pytest.raises(ValueError):
        WeightSequence("cesaro", 1.5)
    with pytest.raises(ValueError):
        WeightSequence("constant", 0.5)
    with pytest.raises(ValueError):
        parse_weights("logpow")
    with pytest.raises(ValueError):
        parse_weights("riesz:0.5")
    with pytest.raises(ValueError):
        parse_weights("cesaro:x")


@pytest.mark.parametrize("kind", ["cesaro", "inverse-cesaro"])
def test_cesaro_alpha_whose_order_rounds_to_minus_one_is_refused(kind):
    # at alpha <= 2^-54, alpha - 1.0 == -1.0 and every q_k would be 0
    with pytest.raises(ValueError, match="alpha - 1 rounds to -1"):
        WeightSequence(kind, 2.0**-54)
    above = math.nextafter(2.0**-54, 1.0)
    assert WeightSequence(kind, above).q(1) > 0


def test_parse_weights_labels_round_trip():
    # an alpha of at most 6 significant digits is labelled as "%g" writes
    # it, and a longer one is not rounded into the label of another sequence
    # (cesaro:0.5) or of none (cesaro:1)
    short = ("0.5", "0.123456", "0.0001", "1e-05", "1.5e-05", "0.999999", "0.3")
    long = ("0.5000001", "0.999999999999", "0.30000001192092896")
    alphas = [f"{kind}:{alpha}" for kind in ("cesaro", "logpow") for alpha in short + long]
    for text in [*ALL_FAMILIES, *alphas]:
        w = parse_weights(text)
        assert w.label() == text
        assert parse_weights(w.label()) == w
    assert [f"{float(alpha):g}" for alpha in short] == list(short)
    # a Fraction alpha is taken at its float value: the same sequence, label
    # and float64 weights as that float
    for kind in ("cesaro", "power", "log-power"):
        w, plain = WeightSequence(kind, Fraction(3, 10)), WeightSequence(kind, 0.3)
        assert w == plain and type(w.alpha) is float and w.label() == plain.label()
        got = w.q_array(64)
        assert got.dtype == np.float64 and np.array_equal(got, plain.q_array(64))


def test_n0():
    assert parse_weights("constant").n0 == 1
    for fam in ("riesz", "cesaro:0.5", "power:0.5", "logpow:0.5"):
        assert parse_weights(fam).n0 == 2


def test_classify_reference_families():
    c = classify(parse_weights("constant"), 2000)
    assert c.monotonicity == "both" and c.gate == "a+b"
    assert c.fn01_sup == pytest.approx(1.0)
    assert c.fn011_sup == pytest.approx(1.0)
    assert c.regular

    r = classify(parse_weights("riesz"), 2000)
    assert r.monotonicity == "non-increasing" and r.gate == "a"
    assert r.fn011_sup == 0.0
    assert math.isfinite(r.fn01_sup)
    assert r.regular

    b = classify(parse_weights("logpow:0.5"), 2000)
    assert b.monotonicity == "non-decreasing" and b.gate == "b"
    assert math.isfinite(b.fn01_sup)
    assert b.regular

    for fam in ("cesaro:0.5", "icesaro:0.5", "power:0.5", "nlog"):
        c = classify(parse_weights(fam), 2000)
        assert c.monotonicity == "non-increasing"
        assert passes_gate(c)


def test_classify_validation():
    with pytest.raises(ValueError):
        classify(parse_weights("riesz"), 2)


def test_t_mean_constant_weights_value():
    spec = make_group([2, 3, 2, 3])
    one = GridFunction.constant(spec)
    got = t_mean(one, WeightSequence("constant"), 4)
    assert np.max(np.abs(got.values - 0.75)) < 1e-13


def test_t_mean_route_agreement():
    spec = make_group([2, 3, 2, 3])
    f = GridFunction.random(spec, seed=21)
    for fam in T_FAMILIES:
        w = parse_weights(fam)
        for n, base, abel in t_mean_oracles(f, w, (w.n0, 5, 12, 36)):
            for got in (t_mean(f, w, n).values, abel, t_mean(f, w, n, "convolution").values):
                assert np.max(np.abs(got - base)) < 1e-10


def test_t_mean_constant_frame_link():
    # with unit weights the forward frame is a shrunk Fejer mean
    spec = make_group([2, 3, 2, 3])
    f = GridFunction.random(spec, seed=22)
    w = WeightSequence("constant")
    for n in (2, 5, 12):
        lhs = t_mean(f, w, n).values
        rhs = (n - 1) / n * norlund_mean(f, w, n - 1).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_norlund_mean_matches_kernel_convolution():
    spec = make_group([2, 3, 2, 3])
    f = GridFunction.random(spec, seed=23)
    for fam in ALL_FAMILIES:
        w = parse_weights(fam)
        for n in (w.n0, 7, 36):
            via_kernel = convolve(f, norlund_kernel(w, n, spec))
            assert np.max(np.abs(norlund_mean(f, w, n).values - via_kernel.values)) < 1e-10


def test_norlund_mean_matches_partial_sum_expansion():
    spec = make_group([2, 3, 2])
    f = GridFunction.random(spec, seed=24)
    for fam in ("constant", "cesaro:0.5", "nlog"):
        w = parse_weights(fam)
        for n in (2, 5, 12):
            q = w.q_array(n)
            want = np.zeros(spec.size, dtype=complex)
            for k in range(1, n + 1):
                want += q[n - k] * partial_sum(f, k).values
            want /= w.Q(n)
            assert np.max(np.abs(norlund_mean(f, w, n).values - want)) < 1e-12


def test_constant_reproduction():
    spec = make_group([2, 3, 2, 3])
    one = GridFunction.constant(spec)
    for fam in ALL_FAMILIES:
        w = parse_weights(fam)
        for n in (w.n0, 7, 36):
            assert np.max(np.abs(norlund_mean(one, w, n).values - 1)) < 1e-12
            want = (w.Q(n) - w.q(0)) / w.Q(n)
            assert np.max(np.abs(t_mean(one, w, n).values - want)) < 1e-12


def test_named_mean_fejer_fixes_constant_character():
    # the Fejer mean is the reversed frame with constant weights
    spec = make_group([2, 3, 2, 3])
    chi0 = GridFunction.character(spec, 0)
    for n in (1, 5, 36):
        got = norlund_mean(chi0, WeightSequence("constant"), n)
        assert np.max(np.abs(got.values - 1)) < 1e-13


def test_named_mean_riesz_expansion():
    # R_4 f = (S_1 f + S_2 f / 2 + S_3 f / 3) / (1 + 1/2 + 1/3)
    spec = make_group([2, 3, 2])
    f = GridFunction.random(spec, seed=25)
    want = (
        partial_sum(f, 1).values
        + partial_sum(f, 2).values / 2
        + partial_sum(f, 3).values / 3
    ) / (11 / 6)
    got = t_mean(f, WeightSequence("riesz-log"), 4)
    assert np.max(np.abs(got.values - want)) < 1e-12


def test_named_mean_cesaro_expansion():
    # reversed frame with binomial weights, normalized by their plain sum
    spec = make_group([2, 3, 2])
    f = GridFunction.random(spec, seed=26)
    alpha = 0.5
    n = 6
    a = binomial_sequence(alpha - 1.0, n)
    want = np.zeros(spec.size, dtype=complex)
    for k in range(1, n + 1):
        want += a[n - k] * partial_sum(f, k).values
    want /= a.sum()
    got = norlund_mean(f, WeightSequence("cesaro", alpha), n)
    assert np.max(np.abs(got.values - want)) < 1e-12


def test_mean_order_validation():
    spec = make_group([2, 3, 2])
    f = GridFunction.constant(spec)
    w = parse_weights("riesz")
    with pytest.raises(ValueError):
        t_mean(f, w, 0)
    with pytest.raises(ValueError):
        t_mean(f, w, 1)  # Q(1) = 0
    with pytest.raises(ValueError):
        t_mean(f, w, spec.size + 1)
    for method in ("mystery", "direct", "abel"):  # the oracle routes are t_mean_oracles
        with pytest.raises(ValueError, match="expected 'multiplier' or 'convolution'"):
            t_mean(f, w, 5, method=method)
    with pytest.raises(ValueError):
        norlund_mean(f, w, spec.size + 1)


def test_abel_weight_identity():
    for fam in ALL_FAMILIES:
        w = parse_weights(fam)
        # absolute at the desk orders, relative to Q_n once sums grow large
        for n in range(1, 40):
            assert abel_weight_residual(w, n) < 1e-12
        for n in (100, 1000):
            assert abel_weight_residual(w, n) < 1e-12 * max(1.0, w.Q(n))


def test_step_function_error_collapses_past_rank():
    # for a rank-r step and n >= M_r only the first M_r partial sums differ
    # from f, so the T error shrinks exactly by the Q ratio
    spec = make_group([2], 6)
    rank = 2
    block = spec.M[rank]
    for fam in T_FAMILIES:
        w = parse_weights(fam)
        for seed in (0, 1):
            f = GridFunction.random(spec, seed=seed, rank=rank)
            worst = max(norm(partial_sum(f, k) - f, 1) for k in range(block))
            for n in (block, spec.size):
                err = norm(t_mean(f, w, n) - f, 1)
                assert err <= w.Q(block) / w.Q(n) * worst + 1e-10


def test_weight_sequence_is_hashable_and_frozen():
    w = WeightSequence("power", 0.5)
    assert hash(w) == hash(WeightSequence("power", 0.5))
    with pytest.raises(AttributeError):
        w.alpha = 0.7
    arr = w.q_array(5)
    with pytest.raises(ValueError):
        arr[0] = 9.9


@pytest.mark.parametrize("label", ALL_FAMILIES)
def test_weight_arrays_of_an_order_sweep_share_one_cache_entry_per_size_class(label):
    # A sweep asks for q_array(n) and Q_array(n) at every order n; one
    # cached array per order kept O(n_max^2) values alive (1.7 MB for the
    # 431-order converge sweep).  Each prefix must equal the array computed
    # at its own length.
    w = parse_weights(label)
    n_max = 2000
    with TracedPeak() as traced:
        for n in range(n_max + 1):
            w.q_array(n), w.Q_array(n)
    assert traced.peak < 40 * 8 * n_max
    for n in (0, 1, 2, 7, 8, 9, 1000, 1024, n_max):
        own = _q_cache.__wrapped__(w, n)  # computed at length n, uncached
        q = w.q_array(n)
        assert q.shape == (n,) and np.array_equal(q, own)
        assert np.array_equal(w.Q_array(n), np.concatenate([[0.0], np.cumsum(own)]))
        assert not q.flags.writeable
    with pytest.raises(ValueError):
        w.q_array(-1)
    with pytest.raises(ValueError):
        w.Q_array(-1)


def test_weight_sums_are_built_from_one_cached_weight_array():
    # Q_array(n) is cached at 2n sums; summing q_array(2n), itself cached at
    # 4n weights, traced 112 MiB here against 64 MiB for the 2n weights
    # alone.  The alpha is one no other test uses, so nothing is cached yet.
    w = WeightSequence("log-power", 0.2718)
    with TracedPeak() as traced:
        w.Q_array(2**20)
    assert traced.peak < 80 * 2**20


def test_binomial_sequence_is_built_in_place():
    # the result and its divisors are the only 2^21-float (16 MiB) arrays:
    # 32 MiB traced, where the cumprod of (order + i) / i traced 64 MiB
    count = 2**21
    with TracedPeak() as traced:
        got = binomial_sequence(-0.3, count)
    assert traced.peak < 40 * 2**20
    for order in (-0.3, -0.5, 0.7, -1e-9):
        for n in (1, 2, 5, 1000, count):
            i = np.arange(1, n)
            want = np.zeros(n)
            want[1:] = np.cumprod((order + i) / i)
            seq = got if (order, n) == (-0.3, count) else binomial_sequence(order, n)
            assert np.array_equal(seq, want)


@pytest.mark.parametrize(
    "refused",
    [
        lambda: WeightSequence("riesz-log").Q(10**12),
        lambda: classify(WeightSequence("constant"), 10**12),
        lambda: binomial_sequence(0.5, 10**12),
    ],
    ids=["Q", "classify", "binomial"],
)
def test_weight_counts_above_the_bound_are_refused_before_any_allocation(refused):
    # numpy raised MemoryError for these 8 TB arrays
    with TracedPeak() as traced:
        with pytest.raises(ValueError, match=f"count {10**12} needs more than {2**26} weights"):
            refused()
    assert traced.peak < 2**20
