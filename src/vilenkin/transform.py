"""Vilenkin characters, the discrete transform, convolution, and L_p norms.

The character indexed by n is psi_n(x) = prod_k exp(2*pi*i * n_k * x_k / m_k),
a product of generalized Rademacher functions.  At resolution N the characters
psi_0 .. psi_{M_N - 1} form an orthonormal basis of the M_N-cell grid under the
normalized counting measure, and the Fourier coefficient of a grid function is
fhat(n) = (1/M_N) * sum_x f(x) * conj(psi_n(x)).

Every character value is a root of unity of order dividing L = lcm(m_k).  All
character evaluations here go through one shared table of the L-th roots, so
identities between differently-assembled expressions cancel to machine noise
instead of accumulating independent rounding.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import chain, groupby, islice
from numbers import Number, Real
from typing import Iterable, Iterator

import numpy as np

from .group import GroupSpec, _Frozen, _check_type

__all__ = [
    "GridFunction",
    "character_row",
    "forward",
    "synthesize",
    "partial_sum",
    "convolve",
    "norm",
]

# Cells (rows x M_s) per butterfly call of a batched synthesis, and per chunk
# of the sweeps that build rows of coefficients, kernels or characters a
# stack at a time: a sweep over many orders runs one stacked butterfly per
# chunk of rows sharing a band.
_SYNTH_CHUNK_CELLS = 2**12
# Cells per buffer of a streamed pass over the grid: the bound on a leaf of
# an L_p error or norm (_leaves()), whose tiled row, difference and
# |g - f|^p take about 0.6 MiB at any M_N, and on a draw of GridFunction.random.
_STREAM_CELLS = 2**14


def _chunk_rows(cells: int) -> int:
    """Rows of cells cells each that fill one chunk of _SYNTH_CHUNK_CELLS (at least one)."""
    return max(1, _SYNTH_CHUNK_CELLS // cells)


def _runs(stack, cells: int) -> Iterator:
    """The rows of a stack, or the orders of a list or range, in runs of _chunk_rows(cells): tiled, a run fills a chunk."""
    step = _chunk_rows(cells)
    return (stack[at : at + step] for at in range(0, len(stack), step))


@lru_cache(maxsize=32)
def _roots(spec: GroupSpec) -> np.ndarray:
    """The L-th roots of unity, L = lcm of the radices."""
    L = math.lcm(*spec.m)
    table = np.exp(2j * np.pi * np.arange(L) / L)
    table.setflags(write=False)
    return table


def _phase_rows(spec: GroupSpec, ns, cells: int | None = None) -> np.ndarray:
    """Integer phase matrix P[i, x] with psi_{ns[i]}(x) = roots[P[i, x]] for x < cells.

    The phase of psi_n at x is sum_k n_k * x_k * (L / m_k) (mod L).  Over the
    grid reshaped in C order to (m_{N-1}, ..., m_0), coordinate k runs along
    one axis only, so the phase is a broadcast sum of one length-m_k vector
    per coordinate: O(M_N) work per row and no (M_N x N) digit table.
    cells is some M_s (default M_N): a cell x < M_s has x_k = 0 for k >= s,
    so only the first s coordinates enter, at O(M_s) work per row.
    """
    cells = spec.size if cells is None else cells
    L = len(_roots(spec))
    ns = np.asarray(ns, dtype=np.int64)
    phases = np.zeros((len(ns),), dtype=np.int64)
    for k in reversed(range(spec.M.index(cells))):
        r = spec.m[k]
        digit = (ns // spec.M[k]) % r
        step = digit[:, None] * (L // r) * np.arange(r)
        phases = phases[..., None] + step.reshape(len(ns), *(1,) * (phases.ndim - 1), r)
    phases = phases.reshape(len(ns), cells)
    phases %= L
    return phases


def _characters(spec: GroupSpec, ns, cells: int | None = None) -> np.ndarray:
    """The (len(ns) x cells) stack of psi_n for n in ns on the cells x < cells (an M_s)."""
    return _roots(spec)[_phase_rows(spec, ns, cells)]


def character_row(spec: GroupSpec, n: int) -> np.ndarray:
    """psi_n sampled on the whole grid, as a read-only complex vector.

    psi_n(x) is row[x.index]; the Rademacher function r_k is psi_{M_k}.
    """
    _check_type("character_row: spec", spec, GroupSpec)
    n = operator.index(n)  # numpy integers pass, floats raise TypeError
    if not 0 <= n < spec.size:
        raise ValueError(f"character index {n} outside [0, {spec.size})")
    row = _characters(spec, [n])[0]
    row.setflags(write=False)
    return row


class GridFunction(_Frozen):
    """A complex-valued function sampled on the grid, immutable once built and equal only to itself.

    Its values are a read-only complex128 vector of length M_N.  The public
    constructor copies its input, so arrays passed in by users stay theirs.
    """

    __slots__ = ("spec", "values")
    spec: GroupSpec
    values: np.ndarray

    def __init__(self, spec: GroupSpec, values) -> None:
        _check_type("GridFunction: spec", spec, GroupSpec)
        self._hold(spec, values, copy=True)

    @classmethod
    def _own(cls, spec: GroupSpec, values: np.ndarray) -> "GridFunction":
        """Wrap an array the library has just created, freezing it instead of copying.

        The caller must hold no other writable reference to the array.
        """
        self = object.__new__(cls)
        self._hold(spec, values, copy=None)
        return self

    def _hold(self, spec: GroupSpec, values, copy: bool | None) -> None:
        arr = _in_float_range("GridFunction: values", np.array, values, dtype=np.complex128, copy=copy)
        if arr.shape != (spec.size,):
            raise ValueError(f"values must have shape ({spec.size},), got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "values", arr)

    @property
    def integral(self) -> complex:
        """Haar integral: the grid mean (1/M_N) * sum_x f(x)."""
        return complex(self.values.mean())

    @classmethod
    def constant(cls, spec: GroupSpec, value: complex = 1.0) -> "GridFunction":
        _check_type("GridFunction.constant: spec", spec, GroupSpec)
        values = _in_float_range("GridFunction.constant: value", np.full, spec.size, value, dtype=np.complex128)
        return cls._own(spec, values)

    @classmethod
    def character(cls, spec: GroupSpec, n: int) -> "GridFunction":
        return cls._own(spec, character_row(spec, n))

    @classmethod
    def indicator(cls, spec: GroupSpec, rank: int, cell: int) -> "GridFunction":
        """Indicator of the rank-n interval containing grid index ``cell``.

        A rank-n interval is a residue class mod M_n, so ``cell`` may be given
        either as a class representative below M_n or as any member index.
        """
        _check_type("GridFunction.indicator: spec", spec, GroupSpec)
        stride = spec._place(rank)
        if not 0 <= operator.index(cell) < spec.size:
            raise ValueError(f"cell {cell} outside [0, {spec.size})")
        pattern = np.zeros(stride, dtype=np.complex128)
        pattern[cell % stride] = 1.0
        return cls._own(spec, _tiled(pattern, spec.size))

    @classmethod
    def random(
        cls, spec: GroupSpec, seed: int, rank: int | None = None
    ) -> "GridFunction":
        """Seeded complex Gaussian noise, constant on rank-n intervals.

        The M_rank real parts, then the imaginary parts, are drawn from
        default_rng(seed) through one float buffer of at most
        _STREAM_CELLS cells (a chunked draw continues the stream
        bitwise), so the complex result is the only grid-sized array.
        """
        _check_type("GridFunction.random: spec", spec, GroupSpec)
        stride = spec._place(spec.levels if rank is None else rank)
        rng = np.random.default_rng(seed)
        base = np.empty(stride, dtype=np.complex128)
        draw = np.empty(min(stride, _STREAM_CELLS))
        for part in (base.real, base.imag):
            for start in range(0, stride, len(draw)):
                chunk = draw[: stride - start]
                part[start : start + len(chunk)] = rng.standard_normal(out=chunk)
        return cls._own(spec, _tiled(base, spec.size))

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return self._pointwise(np.add, other)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return self._pointwise(np.subtract, other)

    def _pointwise(self, op, other: "GridFunction") -> "GridFunction":
        if not isinstance(other, GridFunction):
            return NotImplemented  # so f + 3 raises TypeError
        if self.spec != other.spec:
            raise ValueError("grid functions belong to different groups")
        return GridFunction._own(self.spec, op(self.values, other.values))

    # so ndarray * f calls f.__rmul__ instead of multiplying each cell by f
    __array_ufunc__ = None

    def __mul__(self, other: complex | np.ndarray) -> "GridFunction":
        """f times a number, a 0-d array or a vector of shape (M_N,), checked before the product."""
        if isinstance(other, (Number, np.bool_)):  # numpy's bool is no Number
            other = complex(other)  # a Fraction or Decimal would take numpy's per-cell object loop
        elif not isinstance(other, np.ndarray):
            return NotImplemented  # so f * g, f * None and f * [1, 2] raise TypeError at once
        elif other.shape not in ((), (self.spec.size,)):
            raise ValueError(f"values must have shape ({self.spec.size},), got {other.shape}")
        return GridFunction._own(self.spec, self.values * other)

    __rmul__ = __mul__


def _in_float_range(what: str, make, *args, **kwargs):
    """make(*args, **kwargs), where an int beyond float range raises a ValueError naming what, not an OverflowError."""
    try:
        return make(*args, **kwargs)
    except OverflowError:
        raise ValueError(f"{what} must be within float range") from None


def _check_exponent(what: str, p) -> float:
    """An L_p exponent p (what names it), a Real >= 1 within float range or math.inf, as a float."""
    _check_type(what, p, Real)
    if not (p := _in_float_range(what, float, p)) >= 1:  # also refuses NaN
        raise ValueError(f"{what} must be >= 1, got {p}")
    return p


def _tiled(rows: np.ndarray, cells: int) -> np.ndarray:
    """A vector or a stack of M_s-cell rows, each repeated out to cells cells (rows itself if M_s = cells)."""
    reps = cells // rows.shape[-1]  # one repeat along a new axis: less per-call overhead than np.tile
    return rows if reps == 1 else rows[..., None, :].repeat(reps, axis=-2).reshape(*rows.shape[:-1], cells)


@lru_cache(maxsize=128)
def _dft_matrix(spec: GroupSpec, k: int, inverse: bool) -> np.ndarray:
    """The m_k x m_k character matrix for coordinate k, from the shared roots."""
    r = spec.m[k]
    roots = _roots(spec)
    L = len(roots)
    idx = (np.outer(np.arange(r), np.arange(r)) * (L // r)) % L
    mat = roots[idx]
    return mat if inverse else mat.conj()


def _apply_stages(spec: GroupSpec, data: np.ndarray, inverse: bool) -> np.ndarray:
    """Run the first s radix stages of the butterfly on each length-M_s row of data.

    data is one vector or a (B, M_s) stack of rows; the stages run in place
    and data (or its contiguous copy) is returned.  A row reshapes in C
    order to (m_{s-1}, ..., m_0).  Stage k gathers coordinate k to the
    front of each row, the other coordinates following in their natural
    order, and runs one matmul of the radix-m_k character matrix stacked
    over the B rows, back into data.  So before stage k a row holds
    coordinate k-1 first and the rest in natural order: viewed as
    (m_{k-1}, M_s/M_{k+1}, m_k, M_{k-1}), with m_{-1} = M_{-1} = 1, the
    gather swaps its first and third axes.  After the last stage the rows
    are in natural order, with no gather to undo.  Each row's gemm has the
    one-row shape m_k x (M_s / m_k), columns in the same order, so its
    values do not depend on B or on its place in the stack.  Two arrays of
    data's size are live at a time, and the cost is O(M_s * sum_{k<s} m_k)
    per row; with s = N this is the whole transform.
    """
    data = np.ascontiguousarray(data)  # the products are written through views
    s = spec.M.index(data.shape[-1])
    rows = data.size // data.shape[-1]
    gathered_cols = np.empty_like(data)
    first = 1  # m_{k-1}: the previous stage left coordinate k-1 in front
    for k in range(s):
        cols = data.reshape(rows, first, -1, spec.m[k], spec.M[k] // first).swapaxes(1, 3)
        np.copyto(gathered_cols.reshape(cols.shape), cols)
        stage = (rows, spec.m[k], -1)
        np.matmul(
            _dft_matrix(spec, k, inverse),
            gathered_cols.reshape(stage),
            out=data.reshape(stage),
        )
        first = spec.m[k]
    return data


def _band(spec: GroupSpec, count: int) -> int:
    """M_s for the smallest rank s with count <= M_s (count is at most M_N)."""
    return spec.M[bisect_left(spec.M, count)]


def _analyse(f: GridFunction, count: int) -> np.ndarray:
    """The first count Fourier coefficients fhat(0), ..., fhat(count - 1) of f.

    A character psi_n with n < M_s depends only on the first s digits of x,
    i.e. on x mod M_s.  So the coefficients below M_s are the s-stage
    transform of the sums of f over the fibres of x mod M_s (which is
    E_s f up to the factor M_N / M_s), at O(M_s * sum_{k<s} m_k + M_N)
    cost.  count = M_N is the full transform, with no fibre sum.
    """
    spec = f.spec
    block = _band(spec, min(count, spec.size))
    if block < spec.size:
        values = f.values.reshape(-1, block).sum(axis=0)
    else:  # a sum over one fibre would be slower than a copy and turn -0.0 into +0.0
        values = f.values.copy()  # the butterfly overwrites its input
    return _apply_stages(spec, values, inverse=False)[:count] / spec.size


def forward(f: GridFunction, method: str = "fast") -> np.ndarray:
    """Analysis transform: fhat, a fresh read-only complex128 vector of length M_N.

    ``method="fast"`` runs the separable mixed-radix butterfly;
    ``method="naive"`` evaluates the defining sums directly, an oracle of
    ``vilenkin.oracles``.  Both compute the coefficients in Paley order,
    fhat(n) = (1/M_N) * sum_x f(x) * conj(psi_n(x)); synthesize(f.spec, fhat) gives f back.
    """
    _check_type("forward: f", f, GridFunction)
    if method == "fast":
        fhat = _analyse(f, f.spec.size)
    elif method == "naive":
        from . import oracles

        fhat = oracles._forward_naive(f)
    else:
        raise ValueError(f"unknown method {method!r}; expected 'fast' or 'naive'")
    fhat.setflags(write=False)
    return fhat


def synthesize(spec: GroupSpec, coeffs) -> GridFunction:
    """sum_{j < len(coeffs)} coeffs[j] * psi_j, for len(coeffs) <= M_N: one inverse transform.

    The one-row case of _synthesize_bands(), the block synthesis every sweep
    runs, _tiled() out to the grid, so a row of a sweep equals its single
    call exactly.  The spectrum of f synthesizes back to f as synthesize(f.spec, forward(f)).
    """
    _check_type("synthesize: spec", spec, GroupSpec)
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 1:
        raise ValueError(f"coefficient row of shape {coeffs.shape} is not a vector")
    (stack,) = _synthesize_bands(spec, [coeffs[None]])
    return GridFunction._own(spec, _tiled(stack[0], spec.size))


def _synthesize_bands(spec: GroupSpec, blocks: Iterable) -> Iterator[np.ndarray]:
    """Each coefficient row's synthesis on the M_s cells x < M_s of its band, stacked.

    blocks holds (rows x width) stacks of coefficient rows, width <= M_N.
    The rows are walked in input order, across blocks.  A row's band is
    _band() of its count, one past its last nonzero coefficient (found for a
    whole block by one scan).  Its synthesis is a function of x mod M_s, so
    these M_s values tile to the full grid.  Each run of consecutive rows of
    one band is cut into stacks of _chunk_rows(M_s) rows (the last may be
    shorter), each zero-padded to M_s and run as one butterfly, yielded in
    input order: a butterfly covers at most _SYNTH_CHUNK_CELLS cells (one
    row if M_s is larger), and block boundaries do not change which rows
    share it.  The blocks are read lazily, so a sweep that reduces each
    stack on its band holds O(_SYNTH_CHUNK_CELLS + M_s) cells besides the
    block being read.
    """
    rows = chain.from_iterable(_banded_rows(spec, block) for block in blocks)
    for band, run in groupby(rows, key=operator.itemgetter(1)):
        while chunk := list(islice(run, _chunk_rows(band))):
            stack = np.zeros((len(chunk), band), dtype=np.complex128)
            for padded, (row, _) in zip(stack, chunk):
                padded[: len(row)] = row[:band]  # a slice past band stops at band
            del chunk, row  # views of their blocks, which can be freed while the stack is out
            yield _apply_stages(spec, stack, inverse=True)


def _banded_rows(spec: GroupSpec, block) -> Iterator[tuple[np.ndarray, int]]:
    """(row, band) for each row of a coefficient block, once its shape fits the grid."""
    block = np.asarray(block)
    if block.ndim != 2 or block.shape[1] > spec.size:
        raise ValueError(f"coefficient block of shape {block.shape} does not fit M_N = {spec.size}")
    # the True column in front gives an all-zero row the count 0
    nonzero = np.hstack([np.ones((len(block), 1), dtype=bool), block != 0])
    counts = block.shape[1] - np.argmax(nonzero[:, ::-1], axis=1)
    return zip(block, [_band(spec, count) for count in counts.tolist()])


def partial_sum(f: GridFunction, n: int) -> GridFunction:
    """Fourier partial sum S_n f = sum_{k<n} fhat(k) psi_k; S_0 f = 0."""
    _check_type("partial_sum: f", f, GridFunction)
    spec = f.spec
    if not 0 <= operator.index(n) <= spec.size:
        raise ValueError(f"partial sum order {n} outside [0, {spec.size}]")
    return synthesize(spec, _analyse(f, n))


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Normalized convolution (f*g)(x) = (1/M_N) sum_t f(x-t) g(t).

    Computed spectrally: under the 1/M_N-normalized transform the
    coefficients of f*g are exactly fhat * ghat.
    """
    _check_type("convolve: f", f, GridFunction)
    _check_type("convolve: g", g, GridFunction)
    if f.spec != g.spec:
        raise ValueError("grid functions belong to different groups")
    return synthesize(f.spec, forward(f) * forward(g))


def norm(f: GridFunction, p: float) -> float:
    """Strong L_p norm under normalized Haar measure; p may be math.inf.

    The L_p error of f against the zero function, by _lp_norms(): |f|^p is
    summed a leaf at a time, with no grid-sized temporary.
    """
    _check_type("norm: f", f, GridFunction)
    p = _check_exponent("norm: p", p)  # a float32 p would round 1 / p to float32
    return _lp_norms(f, p, np.zeros((1, 1)))[0]


def _lp_norms(f: GridFunction, p: float, g: np.ndarray) -> list[float]:
    """norm(g_i - f, p) for each row g_i of g.

    g is a (rows x M_s) stack of M_s-periodic functions given on the cells
    x < M_s.  Each result is (S / M_N)^(1/p), S the row's sum from
    _lp_sums() (its max |g_i - f| at p = inf), so it is bitwise
    norm(tiled g_i - f, p), and on a grid of one leaf
    np.mean(np.abs(g_i - f) ** p) ** (1 / p).  A row whose S over- or
    underflows (not in [M_N * tiny, inf), as at p = 1000 or for |g - f| far
    below 1) is rescaled alone by its peak, the largest |g - f|:
    peak * mean((|g - f| / peak) ** p) ** (1 / p), after Blue (ACM TOMS 4,
    1978).  The quotients lie in [0, 1] and the peak's own is exactly 1, so
    that sum neither overflows nor vanishes.
    """
    size = f.spec.size
    with np.errstate(over="ignore"):
        sums = _lp_sums(f, p, g)
    if p == math.inf:
        return [float(t) for t in sums]
    norms = [float((t / size) ** (1.0 / p)) for t in sums]
    low = size * np.finfo(float).tiny
    for i, t in enumerate(sums):
        if not low <= t < math.inf:
            (peak,) = _lp_sums(f, math.inf, g[i : i + 1])
            if 0 < peak < math.inf:  # a peak of 0 or inf leaves the norm as it is
                (t,) = _lp_sums(f, p, g[i : i + 1], peak)
                norms[i] = float(peak * (t / size) ** (1.0 / p))
    return norms


def _leaves(spec: GroupSpec) -> list[tuple[int, int]]:
    """The (start, cells) leaves of a streamed pass over the grid, in grid order.

    M_t is the largest place value within _STREAM_CELLS.  Blocks of M_{t+1}
    cells (M_N if t = N) are cut into leaves of the largest multiple of M_t
    within _STREAM_CELLS, capped at M_N, and a shorter last leaf.
    """
    t = bisect_right(spec.M, _STREAM_CELLS) - 1
    block = spec.M[min(t + 1, spec.levels)]
    leaf = min(spec.size, _STREAM_CELLS // spec.M[t] * spec.M[t])
    starts = range(0, spec.size, block)
    return [(at + i, min(leaf, block - i)) for at in starts for i in range(0, block, leaf)]


def _lp_sums(f: GridFunction, p: float, g: np.ndarray, peak: float | None = None) -> list:
    """Each row's sum of |g_i - f|^p, or of (|g_i - f| / peak)^p; at p = inf, its max |g_i - f|.

    One row at a time, np.add.reduce sums each of the _leaves() and
    math.fsum adds the leaf sums.  A period M_s of g is either at most M_t,
    so it divides every leaf start and a row _tiled() to a leaf is read from
    column 0, or at least M_{t+1}, so no leaf crosses it and a bare row is
    read in one slice.
    """
    values, leaves, period = f.values, _leaves(f.spec), g.shape[1]
    leaf = leaves[0][1]
    diff, mags = np.empty(leaf, dtype=np.complex128), np.empty(leaf)  # they serve every leaf of every row
    sums = []
    for row in g:
        row = _tiled(row, leaf) if period < leaf else row  # so period divides leaf
        parts = []
        for start, n in leaves:
            phase = start % period
            d = np.subtract(row[phase : phase + n], values[start : start + n], out=diff[:n])
            m = np.abs(d, out=mags[:n])
            if peak is not None:
                m /= peak
            if p not in (1, math.inf):  # x ** 1 is x
                m **= p
            parts.append(m.max() if p == math.inf else np.add.reduce(m))
        sums.append(parts[0] if len(leaves) == 1 else np.max(parts) if p == math.inf else _fsum(parts))
    return sums


def _fsum(terms: list[float]) -> float:
    """math.fsum of terms, or inf where their sum overflows (math.fsum raises there)."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf
