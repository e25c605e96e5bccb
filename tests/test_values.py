"""The package's value types: plain classes that generate no code at import."""

import copy
import json
import math
import pickle
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from conftest import TracedPeak

from vilenkin.cli import ConfigError, load_config
from vilenkin.group import Element, generator, interval_members, make_group, parse_element
from vilenkin.kernels import (
    dirichlet,
    domination_constant,
    fejer,
    l1_profile,
    multiplier,
    norlund_kernel,
    norlund_mean,
    t_kernel,
    t_mean,
)
from vilenkin.oracles import (
    abel_kernel_residuals,
    abel_weight_residual,
    identity_residual,
    reflection_residuals,
    t_mean_oracles,
)
from vilenkin.points import convergence_profile, lebesgue_modulus, w_modulus
from vilenkin.transform import (
    GridFunction,
    _roots,
    character_row,
    convolve,
    forward,
    norm,
    partial_sum,
    synthesize,
)
from vilenkin.weights import (
    WeightSequence,
    binomial_sequence,
    classify,
    parse_weights,
    passes_gate,
)


def test_equal_group_specs_share_one_cache_entry():
    a, b = make_group([2, 3], 4), make_group([2, 3], 4)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != make_group([2, 3], 3) and a != make_group([3, 2], 4)
    roots = _roots(a)
    hits = _roots.cache_info().hits
    assert _roots(b) is roots
    assert _roots.cache_info().hits == hits + 1


def test_elements_and_weights_compare_and_hash_by_value():
    spec = make_group([2, 3], 4)
    x = Element(spec, (1, 2, 0, 1))
    y = Element.from_index(spec, x.index)
    assert x is not y and x == y and hash(x) == hash(y)
    assert x != Element(spec, (1, 2, 0, 2))
    assert x != Element(make_group([2, 3, 2, 5]), (1, 2, 0, 1))
    w = parse_weights("cesaro:0.5")
    assert w == WeightSequence("cesaro", 0.5)
    assert hash(w) == hash(WeightSequence(kind="cesaro", alpha=0.5))
    assert w != WeightSequence("inverse-cesaro", 0.5) and w != WeightSequence("cesaro", 0.25)
    assert len({w, WeightSequence("cesaro", 0.5), x, y}) == 2
    assert repr(w) == "WeightSequence(kind='cesaro', alpha=0.5)"
    assert repr(make_group([2, 3])) == "GroupSpec(m=(2, 3), M=(1, 2, 6))"


def test_value_types_keep_their_validation():
    spec = make_group([2, 3], 4)
    with pytest.raises(ValueError, match="expected 4 digits, got 2"):
        Element(spec, (0, 1))
    with pytest.raises(ValueError, match=r"digit 2 at position 0 outside \[0, 2\)"):
        Element(spec, (2, 0, 0, 0))
    with pytest.raises(ValueError, match="cesaro needs alpha"):
        WeightSequence("cesaro")
    with pytest.raises(ValueError, match="constant takes no alpha"):
        WeightSequence("constant", 0.5)
    with pytest.raises(ValueError, match="unknown weight kind"):
        WeightSequence("mystery")
    with pytest.raises(ValueError, match=r"values must have shape \(36,\)"):
        GridFunction(spec, np.zeros(3))


SPEC = make_group([2, 3])
RIESZ = parse_weights("riesz")
F = GridFunction.random(SPEC, seed=4)


@pytest.mark.parametrize(
    "build, bad, good, plain",
    [
        (lambda m: make_group(m, 2), [2.7, 3.9], np.array([2, 3]), [2, 3]),
        (lambda d: Element(SPEC, d).index, (0.5, 1), (np.int64(1), np.int64(1)), (1, 1)),
        (lambda n: character_row(SPEC, n).tolist(), 2.5, np.int64(2), 2),
        (lambda n: SPEC.digits(n), 2.5, np.int64(5), 5),
        (lambda s: generator(s, SPEC).digits, 0.5, np.int64(1), 1),
        (lambda n: dirichlet(n, SPEC).values.tolist(), 2.5, np.int64(2), 2),
        (lambda n: t_kernel(RIESZ, n, SPEC).values.tolist(), 2.5, np.int64(3), 3),
        (lambda n: multiplier("fejer", n, SPEC).tolist(), 2.5, np.int64(2), 2),
        (
            lambda ns: convergence_profile(F, RIESZ, ns, p=1),
            [2.5, 3],
            np.array([2, 3]),
            [2, 3],
        ),
        (lambda n: make_group([2, 3], n), 2.5, np.int64(3), 3),
        (lambda c: GridFunction.indicator(SPEC, 1, c).values.tolist(), 2.5, np.int64(3), 3),
        (lambda n: classify(RIESZ, n), 2.5, np.int64(5), 5),
        (lambda r: interval_members(Element.zero(SPEC), r).tolist(), 0.5, np.int64(1), 1),
        (lambda n: partial_sum(F, n).values.tolist(), 2.5, np.int64(3), 3),
        (
            lambda j: identity_residual("reflection", SPEC, rank=1, j=j),
            0.5,
            np.int64(1),
            1,
        ),
    ],
    ids=[
        "radices",
        "digits",
        "character-index",
        "grid-index",
        "generator-coordinate",
        "dirichlet-order",
        "t-kernel-order",
        "multiplier-order",
        "mean-orders",
        "levels",
        "indicator-cell",
        "classify-n_max",
        "interval-rank",
        "partial-sum-order",
        "reflection-offset",
    ],
)
def test_non_integer_inputs_are_refused_and_numpy_integers_pass(build, bad, good, plain):
    # int() would truncate silently: the radices 2.7, 3.9 would give the
    # group 2,3, the digits (0.5, 1) the index 2.5 and the character index 2.5 psi_2;
    # the order 2.5 gave D_2, T_2, the multiplier [1, 0.5] and a row n=2.5
    # holding the order-2 error, the grid index 2.5 the digits (0.0, 1.0) and
    # the coordinate 0.5 the zero element
    with pytest.raises(TypeError):
        build(bad)
    assert build(good) == build(plain)


OTHER = GridFunction.random(make_group([2, 3], 3), seed=5)


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: F - OTHER, "grid functions belong to different groups"),
        (lambda: convolve(F, OTHER), "grid functions belong to different groups"),
        (lambda: GridFunction.indicator(SPEC, 1, 6), r"cell 6 outside \[0, 6\)"),
        (lambda: synthesize(SPEC, np.ones((2, 3))), r"row of shape \(2, 3\) is not a vector"),
        (lambda: synthesize(SPEC, np.ones(7)), r"shape \(1, 7\) does not fit M_N = 6"),
        (
            lambda: lebesgue_modulus(F, Element.zero(OTHER.spec), 0),
            "point belongs to a different group",
        ),
        (lambda: parse_element("1,x", SPEC), "bad element '1,x'"),
        (lambda: WeightSequence("constant").q(-1), "weight index must be >= 0, got -1"),
        (lambda: abel_weight_residual(RIESZ, 0), "n must be >= 1, got 0"),
        (lambda: fejer(10**30, SPEC), rf"order {10**30} outside \[0, 6\]"),
        (lambda: multiplier("t", 10**30, SPEC, RIESZ), rf"order {10**30} outside \[1, 6\]"),
        (lambda: l1_profile("fejer", [10**30], SPEC), rf"order {10**30} outside \[0, 6\]"),
        (
            lambda: convergence_profile(F, RIESZ, [2, 10**30], p=1),
            rf"order {10**30} outside \[1, 6\]",
        ),
        (lambda: t_mean(F, RIESZ, 10**30), rf"order {10**30} outside \[1, 6\]"),
        (lambda: binomial_sequence(float("nan"), 3), "order must be finite, got nan"),
        (lambda: binomial_sequence(float("inf"), 3), "order must be finite, got inf"),
        (
            lambda: identity_residual("block", SPEC, weights=RIESZ, rank=0),
            r"Q\(1\) not positive for riesz",
        ),
        # an int beyond float range raised OverflowError: int too large to
        # convert to float, from 1.0 / p, np.array or np.full
        (lambda: norm(F, 10**400), "^norm: p must be within float range$"),
        (lambda: norm(F, 0.5), "^norm: p must be >= 1, got 0.5$"),
        (
            lambda: convergence_profile(F, RIESZ, [2], p=10**400),
            "^convergence_profile: p must be within float range$",
        ),
        (lambda: convergence_profile(F, RIESZ, [2], p=math.nan), "^convergence_profile: p must be >= 1, got nan$"),
        (lambda: GridFunction(SPEC, 10**400), "^GridFunction: values must be within float range$"),
        (lambda: GridFunction.constant(SPEC, 10**400), "^GridFunction.constant: value must be within float range$"),
    ],
    ids=[
        "subtract-across-groups",
        "convolve-across-groups",
        "indicator-cell",
        "synthesize-matrix",
        "synthesize-too-long",
        "point-of-another-group",
        "element-digit",
        "negative-weight-index",
        "weight-residual-order",
        "huge-fejer-order",
        "huge-multiplier-order",
        "huge-l1-profile-order",
        "huge-convergence-order",
        "huge-t-mean-order",
        "nan-binomial-order",
        "inf-binomial-order",
        "block-residual-flat-weights",
        "norm-huge-p",
        "norm-small-p",
        "profile-huge-p",
        "profile-nan-p",
        "values-huge",
        "constant-huge",
    ],
)
def test_refusals_name_their_cause(refused, message):
    with pytest.raises(ValueError, match=message):
        refused()


@pytest.mark.parametrize(
    "other",
    [3, 2.5, None, "x", np.zeros(SPEC.size), SPEC],
    ids=["int", "float", "None", "str", "ndarray", "GroupSpec"],
)
def test_arithmetic_with_another_type_raises_type_error(other):
    # each used to raise AttributeError: '...' object has no attribute 'spec'
    x = Element.from_index(SPEC, 5)
    for operand in (F, x):
        with pytest.raises(TypeError):
            operand + other
        with pytest.raises(TypeError):
            operand - other
    with pytest.raises(TypeError, match="convolve: g must be a GridFunction"):
        convolve(F, other)
    # operands from two different groups keep their ValueError
    with pytest.raises(ValueError, match="grid functions belong to different groups"):
        F + OTHER
    with pytest.raises(ValueError, match="elements belong to different groups"):
        x - Element.zero(OTHER.spec)


def test_a_product_of_grid_functions_fails_at_once():
    # numpy multiplied each cell by the other operand through __rmul__: at
    # 2^12 cells f * f built 4096 grid functions, 257 MiB traced and 0.2 s,
    # before its TypeError, and ndarray * f was an object array of them
    spec = make_group([2], 12)
    f = GridFunction.random(spec, seed=6)
    for other in (f, None):
        with TracedPeak() as traced:
            with pytest.raises(TypeError):
                f * other
        assert traced.peak < 2**20
    ones = np.ones(spec.size)
    for product in (ones * f, 2.5j * f, f * 2.5j):
        assert type(product) is GridFunction
    assert np.array_equal((ones * f).values, (f * ones).values)
    assert np.array_equal((2.5j * f).values, f.values * 2.5j)
    assert np.array_equal((f * 3).values, f.values * 3)
    with pytest.raises(ValueError, match=r"values must have shape \(4096,\)"):
        f * np.ones((2, spec.size))


@pytest.mark.parametrize(
    "other, error, message",
    [
        (None, TypeError, "'GridFunction' and 'NoneType'"),
        ([1, 2], TypeError, "non-int of type 'GridFunction'"),
        (np.ones((2, 2**20)), ValueError, r"must have shape \(1048576,\), got \(2, 1048576\)"),
    ],
    ids=["none", "list", "matrix"],
)
def test_a_bad_operand_of_a_product_is_refused_before_the_product(other, error, message):
    # at 2^20 cells f * None ran numpy's object loop (8.3 MiB traced) before
    # its TypeError, f * [1, 2] raised a broadcast ValueError that named
    # neither operand, and f * (2, M_N) built a 32 MiB product first
    f = GridFunction.constant(make_group([2], 20))
    with TracedPeak() as traced:
        with pytest.raises(error, match=message):
            f * other
    assert traced.peak < 2**20


@pytest.mark.parametrize(
    "factor", [Fraction(1, 3), Decimal("0.5"), np.True_], ids=["fraction", "decimal", "numpy-bool"]
)
def test_a_number_of_any_type_multiplies_as_its_complex_value(factor):
    # numpy multiplied by a Fraction cell by cell through Python objects: at
    # 2^20 cells 8.9 s and 56 MiB traced; a Decimal ran the same loop into
    # a TypeError.  numpy's bool is no numbers.Number, and still multiplies
    f = GridFunction.random(make_group([2], 20), seed=3)
    with TracedPeak() as traced:
        product = f * factor
    assert np.array_equal(product.values, f.values * float(factor))
    assert traced.peak < 2**24 + 2**20  # the 16 MiB product and no more


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: norm(None, 1), "norm: f must be a GridFunction, got NoneType"),
        (
            lambda: lebesgue_modulus(None, Element.zero(SPEC), 1),
            "lebesgue_modulus: f must be a GridFunction",
        ),
        (lambda: lebesgue_modulus(F, "x", 1), "lebesgue_modulus: x must be an Element, got str"),
        (lambda: w_modulus(None, Element.zero(SPEC), 1), "w_modulus: f must be a GridFunction"),
        (lambda: w_modulus(F, None, 1), "w_modulus: x must be an Element, got NoneType"),
        (lambda: convolve(3, F), "convolve: f must be a GridFunction, got int"),
        (lambda: t_mean(None, RIESZ, 3), "t_mean: f must be a GridFunction, got NoneType"),
        (
            lambda: convergence_profile(None, RIESZ, [2], p=1),
            "convergence_profile: f must be a GridFunction",
        ),
        (
            lambda: convergence_profile(F, None, [1], form="partial", p="2"),
            "convergence_profile: p must be a Real, got str",
        ),
        (
            lambda: convergence_profile(F, RIESZ, [2], point=3),
            "convergence_profile: point must be an Element, got int",
        ),
        (lambda: forward(None), "forward: f must be a GridFunction, got NoneType"),
        (lambda: synthesize(None, [1]), "synthesize: spec must be a GroupSpec, got NoneType"),
        (lambda: partial_sum(None, 3), "partial_sum: f must be a GridFunction, got NoneType"),
        (
            lambda: norlund_mean(None, RIESZ, 3),
            "norlund_mean: f must be a GridFunction, got NoneType",
        ),
        (lambda: norm(F, "2"), "norm: p must be a Real, got str"),
        (lambda: dirichlet(1, None), "dirichlet kernel: spec must be a GroupSpec, got NoneType"),
        (lambda: fejer(1, None), "fejer kernel: spec must be a GroupSpec, got NoneType"),
        (lambda: t_kernel(RIESZ, 2, None), "t kernel: spec must be a GroupSpec, got NoneType"),
        (
            lambda: norlund_kernel(RIESZ, 2, None),
            "norlund kernel: spec must be a GroupSpec, got NoneType",
        ),
        (lambda: multiplier("fejer", 1, None), "fejer kernel: spec must be a GroupSpec"),
        (lambda: l1_profile("fejer", [1], None), "l1_profile: spec must be a GroupSpec"),
        (
            lambda: domination_constant([1], None),
            "domination_constant: spec must be a GroupSpec, got NoneType",
        ),
        (lambda: character_row(None, 0), "character_row: spec must be a GroupSpec, got NoneType"),
        (lambda: t_kernel(3, 3, SPEC), "t kernel: weights must be a WeightSequence, got int"),
        (lambda: norlund_kernel(3, 3, SPEC), "norlund kernel: weights must be a WeightSequence"),
        (lambda: multiplier("t", 3, SPEC, True), "t kernel: weights must be a WeightSequence, got bool"),
        (lambda: l1_profile("t", [2], SPEC, weights=3), "t kernel: weights must be a WeightSequence"),
        (lambda: t_mean(F, 3, 3), "t kernel: weights must be a WeightSequence, got int"),
        (lambda: norlund_mean(F, 3, 3), "norlund kernel: weights must be a WeightSequence"),
        (
            lambda: identity_residual("block", SPEC, weights=3, rank=1),
            "t kernel: weights must be a WeightSequence, got int",
        ),
        (lambda: next(abel_kernel_residuals(SPEC, 3, [2])), "t kernel: weights must be a WeightSequence"),
        (lambda: next(t_mean_oracles(F, 3, [2])), "t kernel: weights must be a WeightSequence"),
        (
            lambda: convergence_profile(F, 3, [2], p=1),
            "convergence_profile: w must be a WeightSequence, got int",
        ),
        (lambda: classify(3), "classify: w must be a WeightSequence, got int"),
        (lambda: abel_weight_residual(3, 5), "abel_weight_residual: w must be a WeightSequence, got int"),
        (lambda: generator(0, None), "generator: spec must be a GroupSpec, got NoneType"),
        (lambda: Element(None, (0, 0)), "Element: spec must be a GroupSpec, got NoneType"),
        (lambda: Element.from_index(None, 5), "Element.from_index: spec must be a GroupSpec"),
        (lambda: Element.zero(None), "Element.zero: spec must be a GroupSpec, got NoneType"),
        (lambda: GridFunction(None, np.ones(6)), "GridFunction: spec must be a GroupSpec, got NoneType"),
        (lambda: GridFunction.constant(None), "GridFunction.constant: spec must be a GroupSpec"),
        (lambda: GridFunction.indicator(None, 1, 0), "GridFunction.indicator: spec must be a GroupSpec"),
        (lambda: GridFunction.random(None, 1), "GridFunction.random: spec must be a GroupSpec"),
        (
            lambda: identity_residual("reflection", None, rank=1, j=0),
            "identity_residual: spec must be a GroupSpec, got NoneType",
        ),
        (lambda: next(reflection_residuals(None)), "reflection_residuals: spec must be a GroupSpec"),
        (lambda: interval_members(None, 1), "interval_members: x must be an Element, got NoneType"),
        (lambda: next(t_mean_oracles(None, RIESZ, [2])), "t_mean_oracles: f must be a GridFunction"),
        (lambda: parse_weights(None), "parse_weights: text must be a str, got NoneType"),
        (lambda: passes_gate(None), "passes_gate: c must be a Classification, got NoneType"),
    ],
    ids=[
        "norm-f", "lebesgue-f", "lebesgue-x", "w-modulus-f", "w-modulus-x", "convolve-f",
        "t-mean-f", "profile-f", "profile-p", "profile-point", "forward-f", "synthesize-spec",
        "partial-sum-f", "norlund-mean-f", "norm-p", "dirichlet-spec", "fejer-spec",
        "t-kernel-spec", "norlund-kernel-spec", "multiplier-spec", "l1-profile-spec",
        "domination-spec", "character-row-spec", "t-kernel-weights", "norlund-kernel-weights",
        "multiplier-weights", "l1-profile-weights", "t-mean-weights", "norlund-mean-weights",
        "block-residual-weights", "abel-kernel-weights", "t-mean-oracles-weights",
        "profile-weights", "classify-weights", "abel-weight-weights", "generator-spec",
        "element-spec", "element-from-index-spec", "element-zero-spec", "grid-function-spec",
        "constant-spec", "indicator-spec", "random-spec", "identity-residual-spec",
        "reflection-spec", "interval-members-x", "t-mean-oracles-f", "parse-weights-text",
        "passes-gate-c",
    ],
)
def test_a_wrong_argument_type_raises_type_error_naming_it(call, message):
    # each used to raise AttributeError: '...' object has no attribute
    # 'spec' (or 'size', 'M', '_place', 'levels', 'index_of', 'digits',
    # 'Q_array', 'q_array', 'label', 'n0', 'partition' or 'gate'), and a str
    # p a TypeError from `>=` that did not name p
    with pytest.raises(TypeError, match=message):
        call()


@pytest.mark.parametrize(
    "p, same",
    [(Fraction(5, 2), 2.5), (np.float32(2.5), 2.5), (np.int64(3), 3.0), (3, 3.0)],
    ids=["fraction", "numpy-float32", "numpy-int64", "int"],
)
def test_an_exponent_of_any_real_type_takes_its_float_value(p, same):
    # a Fraction p reached m **= p and raised numpy's UFuncTypeError, and a
    # float32 p rounded 1 / p to float32, 1.3e-9 off the norm, relative
    assert norm(F, p) == norm(F, same)
    assert convergence_profile(F, RIESZ, [2, 3], p=p) == convergence_profile(F, RIESZ, [2, 3], p=same)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: t_mean(F, RIESZ, 2.5),
        lambda: l1_profile("fejer", [2.5], SPEC),
        lambda: domination_constant([2.5], SPEC),
        lambda: convergence_profile(F, RIESZ, [2.5], p=1),
    ],
    ids=["t-mean", "l1-profile", "domination-constant", "convergence-profile"],
)
def test_a_float_order_is_refused_by_the_order_check(sweep):
    # each used to reach the analysis or a coefficient slice first and fail
    # there by accident: "slice indices must be integers or None ..."
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        sweep()


def test_no_field_of_a_value_type_can_be_assigned():
    spec = make_group([2, 3], 4)
    f = GridFunction.random(spec, seed=1)
    fields = [
        (spec, "m"),
        (Element.zero(spec), "digits"),
        (parse_weights("riesz"), "alpha"),
        (f, "values"),
    ]
    for obj, field in fields:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.extra = 1
    assert spec.m == (2, 3, 2, 3)


def test_value_types_survive_pickle_and_copy():
    spec = make_group([2, 3], 4)
    f = GridFunction.random(spec, seed=3)
    for obj in (spec, Element(spec, (1, 2, 0, 1)), parse_weights("logpow:0.5")):
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert twin == obj and hash(twin) == hash(obj)
    twin = pickle.loads(pickle.dumps(f))
    assert type(twin) is GridFunction and twin.spec == spec
    assert np.array_equal(twin.values, f.values) and not twin.values.flags.writeable


def test_grid_functions_and_spectra_are_read_only_and_equal_only_to_themselves():
    spec = make_group([2, 3], 4)
    data = np.arange(spec.size, dtype=np.complex128)
    f = GridFunction(spec, data)
    data[0] = 7  # the public constructor copied it
    assert f.values[0] == 0
    # a spectrum is forward's plain vector: fresh on every call, read-only,
    # complex128 of length M_N, and synthesized back into f
    fhat = forward(f)
    assert type(fhat) is np.ndarray and fhat.dtype == np.complex128
    assert fhat.shape == (spec.size,) and fhat.flags.owndata
    assert not np.shares_memory(fhat, f.values) and not np.shares_memory(fhat, forward(f))
    assert np.max(np.abs(synthesize(spec, fhat).values - f.values)) < 1e-12
    for array in (f.values, GridFunction.random(spec, seed=2).values, fhat, forward(f, "naive")):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    g = GridFunction(spec, f.values)
    assert f == f and f != g and np.array_equal(f.values, g.values)
    assert len({f, g, GridFunction(spec, data)}) == 3


def test_config_type_errors_quote_the_field_annotation(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"levels": "3"}))
    with pytest.raises(ConfigError) as info:
        load_config(path, {})
    assert str(info.value) == "config field 'levels' must be int | None, got str '3'"
    path.write_text(json.dumps({"point": 1}))
    with pytest.raises(ConfigError) as info:
        load_config(path, {})
    assert str(info.value) == "config field 'point' must be str | None, got int 1"
