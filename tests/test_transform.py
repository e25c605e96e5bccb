"""Characters, the two transform routes, convolution, and norms.

The oracles here are deliberately primitive: characters re-derived with cmath
from the digit definition, coefficients by explicit double loops, convolution
by the defining double sum.  The production code must agree with them.
"""

import cmath
import math

import numpy as np
import pytest
from conftest import TracedPeak

import vilenkin.transform
from vilenkin.group import Element, make_group
from vilenkin.oracles import forward_naive
from vilenkin.transform import (
    GridFunction,
    _leaves,
    _lp_norms,
    _lp_sums,
    character_row,
    convolve,
    forward,
    norm,
    partial_sum,
    synthesize,
)


def oracle_psi(spec, n, x):
    """Character value straight from the digit definition, no shared tables."""
    total = 1.0 + 0.0j
    for nk, xk, mk in zip(spec.digits(n), spec.digits(x), spec.m):
        total *= cmath.exp(2j * cmath.pi * nk * xk / mk)
    return total


def oracle_forward(spec, values):
    return np.array(
        [
            sum(values[x] * oracle_psi(spec, n, x).conjugate() for x in range(spec.size))
            / spec.size
            for n in range(spec.size)
        ]
    )


def oracle_convolve(spec, f, g):
    out = np.zeros(spec.size, dtype=complex)
    for xi in range(spec.size):
        x = Element.from_index(spec, xi)
        acc = 0.0 + 0.0j
        for ti in range(spec.size):
            t = Element.from_index(spec, ti)
            acc += f[(x - t).index] * g[ti]
        out[xi] = acc / spec.size
    return out


def test_rademacher_values():
    # the generalized Rademacher function r_k(x) = exp(2 pi i x_k / m_k) is psi_{M_k}
    spec = make_group([2, 3, 2])
    r0, r1 = character_row(spec, spec.M[0]), character_row(spec, spec.M[1])
    assert r0[Element.zero(spec).index] == 1
    assert r0[Element(spec, (1, 0, 0)).index] == pytest.approx(-1)
    third_root = cmath.exp(2j * cmath.pi / 3)
    assert r1[Element(spec, (0, 1, 0)).index] == pytest.approx(third_root)
    for k in range(spec.levels):
        row = character_row(spec, spec.M[k])
        for x in range(spec.size):
            want = cmath.exp(2j * cmath.pi * spec.digits(x)[k] / spec.m[k])
            assert row[x] == pytest.approx(want, abs=1e-14)
    with pytest.raises(ValueError):
        character_row(spec, spec.M[3])  # no coordinate 3: M_3 = M_N


def test_psi_matches_oracle_exhaustively():
    spec = make_group([2, 3, 2])
    for n in range(spec.size):
        row = character_row(spec, n)
        for x in range(spec.size):
            assert row[x] == pytest.approx(oracle_psi(spec, n, x), abs=1e-14)


def test_psi_is_multiplicative_in_x():
    spec = make_group([2, 3, 2])
    els = [Element.from_index(spec, i) for i in range(spec.size)]
    for n in range(spec.size):
        row = character_row(spec, n)
        for x in els:
            for y in els:
                lhs = row[(x + y).index]
                rhs = row[x.index] * row[y.index]
                assert abs(lhs - rhs) < 1e-13


def test_character_row_matches_psi():
    spec = make_group([2, 3, 2, 3])
    for n in (0, 1, 7, 35):
        row = character_row(spec, n)
        for x in range(spec.size):
            assert row[x] == pytest.approx(oracle_psi(spec, n, x), abs=1e-14)
    with pytest.raises(ValueError):
        character_row(spec, spec.size)


def test_character_row_memory_is_linear_in_grid_size():
    # the phases are a broadcast sum over the grid reshaped to m[::-1]; an
    # (M_N x N) int64 digit table would be 160 B per cell here (168 MB)
    spec = make_group([2], 20)
    with TracedPeak() as traced:
        row = character_row(spec, spec.size - 1)
    assert traced.peak < 48 * spec.size  # the complex row is 16 B per cell
    x = Element.from_index(spec, 3)
    assert row[x.index] == 1.0
    assert oracle_psi(spec, spec.size - 1, x.index) == pytest.approx(1.0)


def test_random_draws_as_before_without_grid_sized_temporaries():
    # the real, then the imaginary draw of each seed, tiled over the
    # rank-n intervals; the complex sum of two float draws and an always
    # copying tile peaked at 32.1 MiB traced at 2^20, and one M_N-float
    # draw buffer at 24.0 MiB: the draws now run through 2^14 floats
    for radices, levels in (([2], 5), ([2, 3], 4), ([7, 4, 2], 3), ([5], 2)):
        spec = make_group(radices, levels)
        for seed in range(4):
            for rank in range(spec.levels + 1):
                rng = np.random.default_rng(seed)
                stride = spec.M[rank]
                base = rng.standard_normal(stride) + 1j * rng.standard_normal(stride)
                want = np.tile(base, spec.size // stride)
                assert np.array_equal(GridFunction.random(spec, seed, rank).values, want)
    spec = make_group([2], 20)
    with TracedPeak() as traced:
        f = GridFunction.random(spec, seed=3)
    assert traced.peak < 17 * 2**20  # the complex result alone is 16 MiB
    assert not f.values.flags.writeable


def test_character_function_owns_its_fresh_row():
    # GridFunction.character wraps the row that character_row has just built
    # instead of copying it: at 2^20 the traced peak is the 16 MiB row and
    # the 8 MiB int64 phases it is gathered from, where a copy took 32 MiB
    spec = make_group([2], 20)
    with TracedPeak() as traced:
        f = GridFunction.character(spec, 12345)
    assert traced.peak < 25 * 2**20
    assert np.array_equal(f.values, character_row(spec, 12345))
    assert not f.values.flags.writeable


def test_indicator_tiles_one_interval_pattern():
    # bitwise the residue-class construction, which built an M_N int64
    # arange, its residues, a mask and a complex copy: 25.0 MiB traced at
    # 2^20 for a 16 MiB result
    for radices, levels in (([2], 5), ([2, 3], 4), ([7, 4, 2], 3)):
        spec = make_group(radices, levels)
        idx = np.arange(spec.size)
        for rank in range(spec.levels + 1):
            stride = spec.M[rank]
            for cell in {0, 1, stride - 1, spec.size - 1}:
                want = (idx % stride == cell % stride).astype(np.complex128)
                got = GridFunction.indicator(spec, rank, cell).values
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable
    spec = make_group([2], 20)
    for rank in (3, spec.levels):
        with TracedPeak() as traced:
            f = GridFunction.indicator(spec, rank, 5)
        assert traced.peak < 17 * 2**20
        assert f.values[5] == 1 and f.values.sum() == spec.size // spec.M[rank]


def test_constructors_copy_caller_arrays_and_results_are_frozen():
    # the public constructor copies, so a caller's array stays writable and
    # unshared; arrays the library creates itself are frozen, not copied
    spec = make_group([2, 3])
    mine = np.arange(spec.size, dtype=complex)
    f = GridFunction(spec, mine)
    assert mine.flags.writeable and not np.shares_memory(mine, f.values)
    fhat = forward(f)
    assert not fhat.flags.writeable and fhat.dtype == np.complex128
    assert fhat.shape == (spec.size,) and not np.shares_memory(fhat, f.values)
    g = GridFunction.random(spec, seed=7, rank=1)
    for h in (f + g, f - g, f * 2j, 2j * f, g, synthesize(spec, fhat), partial_sum(f, 3)):
        assert not h.values.flags.writeable
        assert h.values.shape == (spec.size,) and h.values.dtype == np.complex128
    with pytest.raises(ValueError):
        f * np.ones((2, spec.size))  # not a grid function's shape


def test_orthonormality_gram():
    for spec in (make_group([2, 3, 2]), make_group([3, 4, 2])):
        rows = np.array([character_row(spec, n) for n in range(spec.size)])
        gram = rows.conj() @ rows.T / spec.size
        assert np.max(np.abs(gram - np.eye(spec.size))) < 1e-12


def test_forward_naive_matches_oracle():
    spec = make_group([2, 3, 2])
    f = GridFunction.random(spec, seed=42)
    got = forward_naive(f)
    want = oracle_forward(spec, f.values)
    assert np.max(np.abs(got - want)) < 1e-12


def test_naive_transform_works_in_bounded_chunks():
    # a chunk holds its phases, rows and their conjugate, about 40 B per row
    # and cell, so its row count must shrink as M_N grows: a fixed 512-row
    # chunk would take 84 MB here
    spec = make_group([2], 12)
    f = GridFunction.random(spec, seed=43)
    with TracedPeak() as traced:
        naive = forward_naive(f)
    assert traced.peak < 16 * 2**20
    assert np.max(np.abs(naive - forward(f))) < 1e-12


def test_forward_of_constant_and_character():
    spec = make_group([2, 3, 2, 3])
    c = forward(GridFunction.constant(spec))
    want = np.zeros(spec.size)
    want[0] = 1.0
    assert np.max(np.abs(c - want)) < 1e-13
    c3 = forward(GridFunction.character(spec, 3))
    want3 = np.zeros(spec.size)
    want3[3] = 1.0
    assert np.max(np.abs(c3 - want3)) < 1e-13


def test_fast_matches_naive_on_seeded_functions():
    spec = make_group([2, 3, 2, 3, 2])
    for seed in range(10):
        f = GridFunction.random(spec, seed=seed)
        a = forward_naive(f)
        b = forward(f)
        assert np.max(np.abs(a - b)) < 1e-10


def test_forward_takes_only_f():
    # the naive route is vilenkin.oracles.forward_naive, not a method of forward
    spec = make_group([2, 2])
    with pytest.raises(TypeError):
        forward(GridFunction.constant(spec), method="naive")
    with pytest.raises(TypeError):
        forward(GridFunction.constant(spec), "fast")


def test_inverse_round_trip_and_synthesis():
    spec = make_group([2, 3, 2, 3])
    f = GridFunction.random(spec, seed=9)
    back = synthesize(spec, forward(f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12
    # a delta spectrum synthesizes the corresponding character
    coeffs = np.zeros(spec.size, dtype=complex)
    coeffs[5] = 1.0
    g = synthesize(spec, coeffs)
    assert np.max(np.abs(g.values - character_row(spec, 5))) < 1e-13


def test_partial_sum_examples():
    spec = make_group([2, 3, 2])
    f = GridFunction.character(spec, 3)
    assert np.max(np.abs(partial_sum(f, 3).values)) < 1e-13
    assert np.max(np.abs(partial_sum(f, 4).values - f.values)) < 1e-13
    g = GridFunction.random(spec, seed=1)
    assert np.max(np.abs(partial_sum(g, 0).values)) == 0
    assert np.max(np.abs(partial_sum(g, spec.size).values - g.values)) < 1e-12
    with pytest.raises(ValueError):
        partial_sum(g, spec.size + 1)


def test_partial_sum_is_dirichlet_convolution():
    from vilenkin.kernels import dirichlet

    spec = make_group([2, 3, 2, 3])
    f = GridFunction.random(spec, seed=4)
    for n in (0, 1, 7, 20, spec.size):
        via_kernel = convolve(f, dirichlet(n, spec))
        assert np.max(np.abs(partial_sum(f, n).values - via_kernel.values)) < 1e-12


def test_rank_r_functions_have_short_spectra():
    spec = make_group([2, 3, 2, 3])
    for rank in range(spec.levels + 1):
        f = GridFunction.random(spec, seed=rank, rank=rank)
        coeffs = forward(f)
        assert np.max(np.abs(coeffs[spec.M[rank] :]), initial=0.0) < 1e-13
        # and the function really is constant on rank-r intervals
        stride = spec.M[rank]
        for rep in range(stride):
            block = f.values[rep::stride]
            assert np.max(np.abs(block - block[0])) == 0


def test_convolve_matches_double_sum_oracle():
    spec = make_group([2, 3, 2])
    f = GridFunction.random(spec, seed=5)
    g = GridFunction.random(spec, seed=6)
    got = convolve(f, g).values
    want = oracle_convolve(spec, f.values, g.values)
    assert np.max(np.abs(got - want)) < 1e-12


def test_convolution_theorem_and_symmetry():
    spec = make_group([2, 3, 2, 3])
    f = GridFunction.random(spec, seed=7)
    g = GridFunction.random(spec, seed=8)
    prod = forward(f) * forward(g)
    assert np.max(np.abs(forward(convolve(f, g)) - prod)) < 1e-12
    assert np.max(np.abs(convolve(f, g).values - convolve(g, f).values)) < 1e-12


def test_characters_are_convolution_eigenfunctions():
    spec = make_group([2, 3, 2, 3])
    f = GridFunction.random(spec, seed=10)
    fhat = forward(f)
    for n in (0, 2, 13):
        chi = GridFunction.character(spec, n)
        got = convolve(f, chi).values
        assert np.max(np.abs(got - fhat[n] * chi.values)) < 1e-12


def test_convolve_copies_no_array_it_has_just_built():
    # the two spectra and the product's synthesis are wrapped, not copied:
    # the traced peak is the second forward transform's working arrays on
    # top of the first spectrum, about 4 grid-sized complex arrays
    spec = make_group([2], 18)
    f = GridFunction.random(spec, seed=11)
    g = GridFunction.random(spec, seed=12)
    with TracedPeak() as traced:
        h = convolve(f, g)
    assert traced.peak <= 4.5 * 16 * spec.size
    assert not h.values.flags.writeable


def test_young_inequality():
    spec = make_group([2, 3, 2, 3])
    for seed in range(5):
        f = GridFunction.random(spec, seed=seed)
        g = GridFunction.random(spec, seed=seed + 100)
        c = convolve(f, g)
        for p in (1.0, 2.0):
            assert norm(c, p) <= norm(f, p) * norm(g, 1) + 1e-12


def test_norm_examples():
    spec = make_group([2], 3)
    f = GridFunction.indicator(spec, 1, 0)
    assert norm(f, 1) == pytest.approx(0.5)
    assert norm(f, 2) == pytest.approx(math.sqrt(0.5))
    assert norm(f, math.inf) == pytest.approx(1.0)
    chi = GridFunction.character(spec, 5)
    for p in (1.0, 2.0, math.inf):
        assert norm(chi, p) == pytest.approx(1.0)
    for p in (0.5, math.nan):
        with pytest.raises(ValueError):
            norm(f, p)


def test_norm_at_large_p_is_rescaled_by_its_peak():
    # |f|^p over- or underflowed: norm(f, 1e308) was inf with an overflow
    # warning, and norm(1e-3 f, 200) was 0.0 with none
    spec = make_group([2, 3], 3)
    f = GridFunction.random(spec, seed=0)
    small = GridFunction._own(spec, 1e-3 * f.values)
    assert norm(small, 200) == 2.2996771843625426e-3
    peak = float(np.max(np.abs(small.values)))
    rescaled = peak * np.mean((np.abs(small.values) / peak) ** 200) ** (1 / 200)
    assert norm(small, 200) == float(rescaled)
    assert norm(f, 1e308) == norm(f, math.inf)
    assert norm(f, math.inf) * 12 ** (-1 / 1000) <= norm(f, 1000) <= norm(f, math.inf)
    assert norm(GridFunction._own(spec, np.zeros(12)), 1000) == 0.0


def test_norm_needs_no_grid_sized_temporary():
    # |f|^p is summed a leaf at a time, within 64 eps of the norm from the
    # exactly rounded sum; as one M_N-float array (and np.abs's own) it took
    # 16.0 MiB traced at 2^20
    spec = make_group([2], 20)
    f = GridFunction.random(spec, seed=44)
    norm(f, 2.5)  # numpy's first-call allocations
    with TracedPeak() as traced:
        got = norm(f, 2.5)
    assert traced.peak < 2**20
    want = (math.fsum(np.abs(f.values) ** 2.5) / spec.size) ** (1 / 2.5)
    assert abs(got - want) <= 64 * np.finfo(float).eps * want


def test_norm_whose_leaf_sums_overflow_only_together_is_rescaled():
    # each of the two 2^14-cell leaves sums |f|^2 to 1.6e308, a finite
    # float, but their total overflows, where math.fsum raises; the sum
    # must read inf, so the norm is rescaled by the peak |f|
    spec = make_group([2], 15)
    c = math.sqrt(1e304)
    assert norm(GridFunction.constant(spec, c), 2) == c


def test_leaves_cut_blocks_of_the_next_place_value(monkeypatch):
    # At 64 cells per leaf on radices 3, 50, ... the place values are 1, 3,
    # 150, 450, 22500: M_t = 3, so a block of M_{t+1} = 150 cells holds the
    # leaves [0, 63), [63, 126) and [126, 150), not 50 leaves of M_t cells.
    monkeypatch.setattr(vilenkin.transform, "_STREAM_CELLS", 64)
    spec = make_group([3, 50], 4)
    leaves = _leaves(spec)
    assert leaves[:4] == [(0, 63), (63, 63), (126, 24), (150, 63)]
    assert len(leaves) == 3 * 150
    assert all(start + n == after for (start, n), (after, _) in zip(leaves, leaves[1:]))
    assert sum(n for _, n in leaves) == spec.size
    # rows of period 1 (below M_t), M_t, M_{t+1} and 3 M_{t+1} are read in
    # place: each sum is the fsum of np.add.reduce over these leaves, bitwise
    f = GridFunction.random(spec, seed=50)
    rng = np.random.default_rng(51)
    for period in (1, 3, 150, 450):
        g = rng.standard_normal((2, period)) + 1j * rng.standard_normal((2, period))
        mags = np.abs(np.tile(g, (1, spec.size // period)) - f.values)
        assert _lp_norms(f, math.inf, g) == mags.max(axis=1).tolist()
        for p in (1, 2.5):
            sums = [math.fsum(np.add.reduce(row[a : a + n] ** p) for a, n in leaves) for row in mags]
            assert _lp_norms(f, p, g) == [(t / spec.size) ** (1 / p) for t in sums]



@pytest.mark.parametrize("period", [3, 450], ids=["tiled-to-a-leaf", "read-bare"])
@pytest.mark.parametrize("p", [1, 2.5, 1000, math.inf])
def test_rows_that_rescale_sit_beside_rows_that_do_not(monkeypatch, period, p):
    # At 64 cells per leaf on 3, 50 x 4 a period of 3 is tiled to a leaf and
    # one of 450 is read bare.  f is tiny and of period 3, so one stack holds
    # an ordinary row, a row whose sum overflows (|g - f| near 1e305), one
    # whose sum underflows (|g - f| near 1e-309, subnormal) and g = f, whose
    # peak is 0.  Each row's norm is bitwise the norm of that row alone.
    monkeypatch.setattr(vilenkin.transform, "_STREAM_CELLS", 64)
    spec = make_group([3, 50], 4)
    f = GridFunction.random(spec, seed=53, rank=1) * 1e-300
    rng = np.random.default_rng(54)
    turn = np.exp(2j * np.pi * rng.uniform(size=period))
    same = np.tile(f.values[:3], period // 3)
    g = np.stack([rng.uniform(0.5, 1, period) * turn, 1e305 * turn, same * (1 + 1e-9), same])
    got = _lp_norms(f, p, g)
    assert got == [_lp_norms(f, p, g[i : i + 1])[0] for i in range(len(g))]
    assert got[3] == 0 and all(0 < err < math.inf for err in got[:3])
    if p != math.inf:  # the stack's plain sums: in range, overflowed, underflowed, zero
        with np.errstate(over="ignore"):
            sums = _lp_sums(f, p, g)
        low = spec.size * np.finfo(float).tiny
        assert low <= sums[0] < math.inf and sums[1] == math.inf and sums[2] < low and sums[3] == 0
        assert got[1] == pytest.approx(1e305, rel=1e-9)  # |g - f| is 1e305 up to f's 1e-300

def test_parseval():
    spec = make_group([2, 3, 2, 3])
    f = GridFunction.random(spec, seed=12)
    energy = norm(f, 2) ** 2
    spectral = float(np.sum(np.abs(forward(f)) ** 2))
    assert energy == pytest.approx(spectral, abs=1e-12)


def test_grid_function_validation_and_immutability():
    spec = make_group([2, 3, 2])
    with pytest.raises(ValueError):
        GridFunction(spec, np.zeros(5))
    f = GridFunction.constant(spec)
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    with pytest.raises(ValueError):
        GridFunction.indicator(spec, 4, 0)
    with pytest.raises(ValueError):
        GridFunction.random(spec, seed=0, rank=7)
    g = GridFunction.random(spec, seed=0)
    with pytest.raises(ValueError):
        f + GridFunction.constant(make_group([2, 2]))
    assert np.max(np.abs((f - g + g).values - f.values)) < 1e-15
    assert np.max(np.abs((2.0 * g).values - 2.0 * g.values)) == 0
