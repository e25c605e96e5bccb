"""Group arithmetic, the mixed-radix digit system, and interval structure."""

import tracemalloc

import numpy as np
import pytest

from vilenkin.group import (
    Element,
    GroupSpec,
    generator,
    interval_members,
    make_group,
    parse_element,
    parse_group,
)


def test_make_group_place_values():
    spec = make_group([2, 3, 2])
    assert spec.m == (2, 3, 2)
    assert spec.M == (1, 2, 6, 12)
    assert spec.levels == 3
    assert spec.size == 12


def test_make_group_cycles_pattern():
    spec = make_group([2, 3], 5)
    assert spec.m == (2, 3, 2, 3, 2)
    assert spec.size == 2 * 3 * 2 * 3 * 2


def test_make_group_rejects_bad_input():
    with pytest.raises(ValueError):
        make_group([2, 1])
    with pytest.raises(ValueError):
        make_group([])
    with pytest.raises(ValueError):
        make_group([2], 0)
    with pytest.raises(ValueError):
        make_group([2], 100)  # 2**100 overflows the size cap


def test_make_group_overflow_stops_before_building_every_radix():
    # levels far past the 62 that fit must be refused without first
    # materialising one radix per level
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="overflow"):
            make_group([2], 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match="overflow"):
        make_group([2, 3], 10**8)


@pytest.mark.parametrize(
    "m, levels, message",
    [
        ([], None, "radix pattern must be non-empty"),
        ([2], 0, "levels must be >= 1, got 0"),
        ([2, 1], None, "radix 1 invalid: every m_k must be >= 2"),
        # a radix the levels leave unused is still checked
        ([2, 1], 1, "radix 1 invalid: every m_k must be >= 2"),
        ([2], 100, f"resolution overflow: M_N exceeds {2**62}"),
        ([2, 3], 10**8, f"resolution overflow: M_N exceeds {2**62}"),
    ],
)
def test_make_group_refusals_name_their_cause(m, levels, message):
    with pytest.raises(ValueError) as info:
        make_group(m, levels)
    assert str(info.value) == message


def test_make_group_ignores_the_unused_tail_of_a_long_pattern():
    # the pattern alone would overflow, but only its first three radices are used
    assert make_group([2] * 70, 3) == make_group([2], 3)
    assert str(make_group([2] * 70, 3)) == "2,2,2"


def test_group_spec_derives_its_place_values_from_its_radices():
    spec = GroupSpec((2, 3, 2))
    assert spec == make_group([2, 3, 2]) and spec.M == (1, 2, 6, 12)
    assert GroupSpec(np.array([2, 3])).m == (2, 3)
    with pytest.raises(TypeError):
        GroupSpec((2, 3.0))
    with pytest.raises(ValueError, match="radix 1 invalid"):
        GroupSpec((1,))
    with pytest.raises(ValueError, match="non-empty"):
        GroupSpec(())
    with pytest.raises(ValueError, match="overflow"):
        GroupSpec([3] * 40)
    with pytest.raises(TypeError):
        GroupSpec((2, 3), (1, 2, 7))  # the place values are not an input


def test_digits_examples():
    spec = make_group([2, 3, 2])
    assert spec.digits(7) == (1, 0, 1)
    assert spec.digits(0) == (0, 0, 0)
    assert spec.digits(11) == (1, 2, 1)
    dyadic = make_group([2], 3)
    assert dyadic.digits(5) == (1, 0, 1)


def test_digits_round_trip_exhaustive():
    for spec in (make_group([2, 3, 2]), make_group([2, 3, 2, 3]), make_group([2], 6)):
        seen = set()
        for n in range(spec.size):
            d = spec.digits(n)
            assert all(0 <= dj < mj for dj, mj in zip(d, spec.m))
            assert spec.index_of(d) == n
            seen.add(d)
        assert len(seen) == spec.size


def test_digit_table_matches_digits():
    # The characters build their phases from the grid reshaped in C order to
    # (m_{N-1}, ..., m_0): the multi-index of n there is spec.digits(n) reversed,
    # and digit k is (n // M_k) % m_k.
    spec = make_group([2, 3, 2, 3])
    grid = np.arange(spec.size).reshape(spec.m[::-1])
    for n in range(spec.size):
        d = spec.digits(n)
        assert grid[d[::-1]] == n
        assert d == tuple((n // spec.M[k]) % spec.m[k] for k in range(spec.levels))


def test_digits_validation():
    spec = make_group([2, 3, 2])
    with pytest.raises(ValueError):
        spec.digits(12)
    with pytest.raises(ValueError):
        spec.digits(-1)
    with pytest.raises(ValueError):
        spec.index_of((2, 0, 0))
    with pytest.raises(ValueError):
        spec.index_of((0, 0))


def test_add_example():
    spec = make_group([2, 3])
    x = Element(spec, (1, 2))
    y = Element(spec, (1, 1))
    assert (x + y).digits == (0, 0)


def test_add_subtract_inverse_exhaustive():
    spec = make_group([2, 3, 2, 3])
    els = [Element.from_index(spec, n) for n in range(spec.size)]
    for x in els:
        for y in els:
            assert (x + y) - y == x
            assert (x - y) + y == x


def test_group_laws_exhaustive():
    spec = make_group([2, 3, 2])
    els = [Element.from_index(spec, n) for n in range(spec.size)]
    zero = Element.zero(spec)
    for x in els:
        assert x + zero == x
        assert x - x == zero
        for y in els:
            assert x + y == y + x
            for z in els:
                assert (x + y) + z == x + (y + z)


def test_cross_group_operations_rejected():
    a = make_group([2, 3, 2])
    b = make_group([2, 2, 2])
    with pytest.raises(ValueError):
        Element.zero(a) + Element.zero(b)
    with pytest.raises(ValueError):
        Element.zero(a) - Element.zero(b)


def test_generator_properties():
    spec = make_group([2, 3, 2])
    for s in range(spec.levels):
        e = generator(s, spec)
        assert e.index == spec.M[s]
        # adding e_s exactly m_s times walks the cyclic factor back to zero
        acc = Element.zero(spec)
        for _ in range(spec.m[s]):
            acc = acc + e
        assert acc == Element.zero(spec)
    with pytest.raises(ValueError):
        generator(3, spec)


def test_interval_members_example():
    spec = make_group([2], 3)
    got = interval_members(Element.zero(spec), 1)
    assert got.tolist() == [0, 2, 4, 6]


def test_interval_rank_extremes():
    spec = make_group([2, 3, 2])
    x = Element.from_index(spec, 7)
    assert interval_members(x, 0).tolist() == list(range(12))
    assert interval_members(x, spec.levels).tolist() == [7]
    with pytest.raises(ValueError):
        interval_members(x, spec.levels + 1)


def test_intervals_partition_and_nest():
    spec = make_group([2, 3, 2])
    for rank in range(spec.levels + 1):
        cover = []
        for rep in range(spec.M[rank]):
            cover.extend(interval_members(Element.from_index(spec, rep), rank).tolist())
        assert sorted(cover) == list(range(spec.size))
    # I_{n+1}(x) is contained in I_n(x)
    for n in range(spec.size):
        x = Element.from_index(spec, n)
        for rank in range(spec.levels):
            inner = set(interval_members(x, rank + 1).tolist())
            outer = set(interval_members(x, rank).tolist())
            assert inner <= outer
            assert x.index in inner


def test_interval_membership_matches_shared_digits():
    spec = make_group([2, 3, 2])
    x = Element.from_index(spec, 9)
    for rank in range(spec.levels + 1):
        members = set(interval_members(x, rank).tolist())
        for t in range(spec.size):
            shares = spec.digits(t)[:rank] == x.digits[:rank]
            assert (t in members) == shares


def test_serialization_round_trips():
    spec = make_group([2, 3, 2])
    assert str(spec) == "2,3,2"
    assert parse_group("2,3,2") == spec
    assert parse_group("2,3", 4).m == (2, 3, 2, 3)
    x = Element(spec, (1, 2, 0))
    assert str(x) == "1,2,0"
    assert parse_element("1,2,0", spec) == x
    # short vectors pad with zeros
    assert parse_element("1", spec) == Element(spec, (1, 0, 0))
    with pytest.raises(ValueError):
        parse_element("1,3,0", spec)
    with pytest.raises(ValueError):
        parse_element("1,0,0,0", spec)
    with pytest.raises(ValueError):
        parse_group("2,x")


def test_element_validation():
    spec = make_group([2, 3, 2])
    with pytest.raises(ValueError):
        Element(spec, (0, 3, 0))
    with pytest.raises(ValueError):
        Element(spec, (0, 0))
