"""The package's value types: plain classes that generate no code at import."""

import copy
import json
import pickle

import numpy as np
import pytest

from vilenkin.cli import ConfigError, load_config
from vilenkin.group import Element, make_group
from vilenkin.means import WeightSequence, parse_weights
from vilenkin.transform import GridFunction, Spectrum, _roots, character_row, forward


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
    with pytest.raises(ValueError, match=r"coeffs must have shape \(36,\)"):
        Spectrum(spec, np.zeros(3))


SPEC = make_group([2, 3])


@pytest.mark.parametrize(
    "build, bad, good, plain",
    [
        (lambda m: make_group(m, 2), [2.7, 3.9], np.array([2, 3]), [2, 3]),
        (lambda d: Element(SPEC, d).index, (0.5, 1), (np.int64(1), np.int64(1)), (1, 1)),
        (lambda n: character_row(SPEC, n).tolist(), 2.5, np.int64(2), 2),
    ],
    ids=["radices", "digits", "character-index"],
)
def test_non_integer_inputs_are_refused_and_numpy_integers_pass(build, bad, good, plain):
    # int() would truncate silently: the radices 2.7, 3.9 would give the
    # group 2,3, the digits (0.5, 1) the index 2.5 and the character index 2.5 psi_2
    with pytest.raises(TypeError):
        build(bad)
    assert build(good) == build(plain)


def test_no_field_of_a_value_type_can_be_assigned():
    spec = make_group([2, 3], 4)
    f = GridFunction.random(spec, seed=1)
    fields = [
        (spec, "m"),
        (Element.zero(spec), "digits"),
        (parse_weights("riesz"), "alpha"),
        (f, "values"),
        (forward(f), "coeffs"),
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
    for obj, field in ((f, "values"), (forward(f), "coeffs")):
        twin = pickle.loads(pickle.dumps(obj))
        assert type(twin) is type(obj) and twin.spec == spec
        assert np.array_equal(getattr(twin, field), getattr(obj, field))
        assert not getattr(twin, field).flags.writeable


def test_grid_functions_and_spectra_are_read_only_and_equal_only_to_themselves():
    spec = make_group([2, 3], 4)
    data = np.arange(spec.size, dtype=np.complex128)
    f = GridFunction(spec, data)
    s = Spectrum(spec, data)
    data[0] = 7  # the public constructors copied it
    assert f.values[0] == 0 and s.coeffs[0] == 0
    for array in (f.values, s.coeffs, GridFunction.random(spec, seed=2).values, forward(f).coeffs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    g = GridFunction(spec, f.values)
    assert f == f and f != g and np.array_equal(f.values, g.values)
    assert len({f, g, s, Spectrum(spec, s.coeffs)}) == 4


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
