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
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .group import Element, GroupSpec

__all__ = [
    "GridFunction",
    "Spectrum",
    "rademacher",
    "psi",
    "character_row",
    "forward",
    "inverse",
    "synthesize",
    "partial_sum",
    "convolve",
    "norm",
    "weak_norm",
]

# Cells (rows x M_N) per chunk of the naive transform: about 10 MB of
# working memory at any M_N.
_NAIVE_CHUNK_CELLS = 2**18
# Cells (rows x M_s) per butterfly call of a batched synthesis, and per chunk
# of the sweeps that build rows of coefficients, kernels or characters a
# stack at a time: a sweep over many orders runs one stacked butterfly per
# chunk of rows sharing a band.
_SYNTH_CHUNK_CELLS = 2**12


def _chunk_rows(cells: int) -> int:
    """Rows of cells cells each that fill one chunk of _SYNTH_CHUNK_CELLS (at least one)."""
    return max(1, _SYNTH_CHUNK_CELLS // cells)


def _order_chunks(ns: Iterable[int]) -> Iterator[list[int]]:
    """ns in consecutive runs whose rows times largest order fill at most one chunk.

    A run of orders becomes one (rows x largest order) stack of coefficients;
    an order above _SYNTH_CHUNK_CELLS runs alone.
    """
    chunk: list[int] = []
    width = 0
    for n in ns:
        if chunk and (len(chunk) + 1) * max(width, n) > _SYNTH_CHUNK_CELLS:
            yield chunk
            chunk, width = [], 0
        chunk.append(n)
        width = max(width, n)
    if chunk:
        yield chunk


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
    """psi_n sampled on the whole grid, as a read-only complex vector."""
    if not 0 <= n < spec.size:
        raise ValueError(f"character index {n} outside [0, {spec.size})")
    row = _characters(spec, [n])[0]
    row.setflags(write=False)
    return row


def rademacher(k: int, x: Element) -> complex:
    """Generalized Rademacher function r_k(x) = exp(2*pi*i * x_k / m_k)."""
    spec = x.spec
    if not 0 <= k < spec.levels:
        raise ValueError(f"coordinate {k} outside [0, {spec.levels})")
    L = len(_roots(spec))
    return complex(_roots(spec)[(x.digits[k] * (L // spec.m[k])) % L])


def psi(n: int, x: Element) -> complex:
    """Character value psi_n(x), a product of Rademacher powers."""
    spec = x.spec
    if not 0 <= n < spec.size:
        raise ValueError(f"character index {n} outside [0, {spec.size})")
    L = len(_roots(spec))
    phase = 0
    for k, (nk, xk) in enumerate(zip(spec.digits(n), x.digits)):
        phase += nk * xk * (L // spec.m[k])
    return complex(_roots(spec)[phase % L])


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A complex-valued function sampled on the grid, immutable once built."""

    spec: GroupSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen(self.spec, self.values, copy=True))

    @classmethod
    def _own(cls, spec: GroupSpec, values: np.ndarray) -> "GridFunction":
        """Wrap an array the library has just created, freezing it instead of copying.

        The caller must hold no other writable reference to the array; the
        public constructor copies, so arrays passed in by users stay theirs.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "values", _frozen(spec, values, copy=None))
        return self

    @property
    def integral(self) -> complex:
        """Haar integral: the grid mean (1/M_N) * sum_x f(x)."""
        return complex(self.values.mean())

    @classmethod
    def constant(cls, spec: GroupSpec, value: complex = 1.0) -> "GridFunction":
        return cls._own(spec, np.full(spec.size, value, dtype=np.complex128))

    @classmethod
    def character(cls, spec: GroupSpec, n: int) -> "GridFunction":
        return cls(spec, character_row(spec, n))

    @classmethod
    def indicator(cls, spec: GroupSpec, rank: int, cell: int) -> "GridFunction":
        """Indicator of the rank-n interval containing grid index ``cell``.

        A rank-n interval is a residue class mod M_n, so ``cell`` may be given
        either as a class representative below M_n or as any member index.
        """
        if not 0 <= rank <= spec.levels:
            raise ValueError(f"rank {rank} outside [0, {spec.levels}]")
        stride = spec.M[rank]
        if not 0 <= cell < spec.size:
            raise ValueError(f"cell {cell} outside [0, {spec.size})")
        idx = np.arange(spec.size, dtype=np.int64)
        return cls._own(spec, (idx % stride == cell % stride).astype(np.complex128))

    @classmethod
    def random(
        cls, spec: GroupSpec, seed: int, rank: int | None = None
    ) -> "GridFunction":
        """Seeded complex Gaussian noise, constant on rank-n intervals."""
        if rank is None:
            rank = spec.levels
        if not 0 <= rank <= spec.levels:
            raise ValueError(f"rank {rank} outside [0, {spec.levels}]")
        rng = np.random.default_rng(seed)
        stride = spec.M[rank]
        # the real and imaginary draws, in that order, go through one float
        # buffer into the complex one: no complex temporaries
        base = np.empty(stride, dtype=np.complex128)
        draw = np.empty(stride)
        base.real = rng.standard_normal(stride, out=draw)
        base.imag = rng.standard_normal(stride, out=draw)
        del draw
        if stride == spec.size:
            return cls._own(spec, base)
        return cls._own(spec, np.tile(base, spec.size // stride))

    def at(self, x: Element) -> complex:
        return complex(self.values[x.index])

    def __add__(self, other: "GridFunction") -> "GridFunction":
        if self.spec != other.spec:
            raise ValueError("grid functions belong to different groups")
        return GridFunction._own(self.spec, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        if self.spec != other.spec:
            raise ValueError("grid functions belong to different groups")
        return GridFunction._own(self.spec, self.values - other.values)

    def __mul__(self, scalar: complex) -> "GridFunction":
        return GridFunction._own(self.spec, self.values * scalar)

    __rmul__ = __mul__

    def to_csv(self, path) -> None:
        _write_complex_csv(path, self.values)

    @classmethod
    def from_csv(cls, spec: GroupSpec, path) -> "GridFunction":
        return cls(spec, _read_complex_csv(path, spec.size))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Fourier coefficients in Paley order, immutable once built."""

    spec: GroupSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coeffs", _frozen(self.spec, self.coeffs, copy=True, name="coeffs")
        )

    def to_csv(self, path) -> None:
        _write_complex_csv(path, self.coeffs)

    @classmethod
    def from_csv(cls, spec: GroupSpec, path) -> "Spectrum":
        return cls(spec, _read_complex_csv(path, spec.size))


def _frozen(
    spec: GroupSpec, data, *, copy: bool | None, name: str = "values"
) -> np.ndarray:
    """data as a read-only complex128 vector of length M_N (copy=None: only if needed)."""
    arr = np.array(data, dtype=np.complex128, copy=copy)
    if arr.shape != (spec.size,):
        raise ValueError(f"{name} must have shape ({spec.size},), got {arr.shape}")
    arr.setflags(write=False)
    return arr


def _write_complex_csv(path, data: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("index,re,im\n")
        for i, z in enumerate(data):
            fh.write(f"{i},{z.real:.17g},{z.imag:.17g}\n")


def _read_complex_csv(path, expected: int) -> np.ndarray:
    out = np.zeros(expected, dtype=np.complex128)
    seen = np.zeros(expected, dtype=bool)
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "index,re,im":
            raise ValueError(f"unexpected CSV header {header!r}")
        for line in fh:
            if not line.strip():
                continue
            i_s, re_s, im_s = line.strip().split(",")
            i = int(i_s)
            if not 0 <= i < expected:
                raise ValueError(f"row index {i} outside [0, {expected})")
            if seen[i]:
                raise ValueError(f"duplicate row index {i}")
            seen[i] = True
            out[i] = float(re_s) + 1j * float(im_s)
    count = int(seen.sum())
    if count != expected:
        raise ValueError(f"expected {expected} rows, got {count}")
    return out


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
    else:
        values = f.values.copy()  # the butterfly overwrites its input
    return _apply_stages(spec, values, inverse=False)[:count] / spec.size


def _forward_naive(f: GridFunction) -> np.ndarray:
    """Direct quadratic-cost analysis: one conjugated character row per n.

    Each chunk holds its phases, rows and their conjugate, about 40 bytes
    per row and cell, so the rows per chunk shrink as M_N grows to keep a
    chunk near _NAIVE_CHUNK_CELLS cells.
    """
    spec = f.spec
    out = np.empty(spec.size, dtype=np.complex128)
    chunk = max(1, _NAIVE_CHUNK_CELLS // spec.size)
    for start in range(0, spec.size, chunk):
        ns = np.arange(start, min(start + chunk, spec.size), dtype=np.int64)
        rows = _characters(spec, ns)
        out[ns] = rows.conj() @ f.values
    return out / spec.size


def forward(f: GridFunction, method: str = "fast") -> Spectrum:
    """Analysis transform: Fourier coefficients of f in Paley order.

    ``method="fast"`` runs the separable mixed-radix butterfly;
    ``method="naive"`` evaluates the defining sums directly.  Both compute
    fhat(n) = (1/M_N) * sum_x f(x) * conj(psi_n(x)).
    """
    if method == "fast":
        return Spectrum(f.spec, _analyse(f, f.spec.size))
    if method == "naive":
        return Spectrum(f.spec, _forward_naive(f))
    raise ValueError(f"unknown method {method!r}; expected 'fast' or 'naive'")


def inverse(s: Spectrum) -> GridFunction:
    """Synthesis transform: f(x) = sum_n coeffs[n] * psi_n(x).

    A spectrum supported below M_s synthesizes to a function of x mod M_s,
    so only s stages run, on coeffs[:M_s], and the result is tiled
    M_N / M_s times: synthesize() of the coefficients.
    """
    return synthesize(s.spec, s.coeffs)


def synthesize(spec: GroupSpec, coeffs) -> GridFunction:
    """sum_{j < len(coeffs)} coeffs[j] * psi_j, for len(coeffs) <= M_N: one inverse transform.

    The one-row case of _on_cells(), the block synthesis every sweep runs,
    so a row of a sweep equals its single call exactly.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.ndim != 1:
        raise ValueError(f"coefficient row of shape {coeffs.shape} is not a vector")
    return GridFunction._own(spec, _on_cells(spec, coeffs[None], spec.size)[0])


def _on_cells(spec: GroupSpec, coeffs: np.ndarray, cells: int) -> np.ndarray:
    """The syntheses of a block of coefficient rows, each repeated out to cells cells.

    cells is a band that nests every row's band (M_N nests them all).  A
    block whose rows all run in one butterfly on cells cells is returned as
    that butterfly's stack, with no copy.
    """
    out = None
    at = 0
    for stack in _synthesize_bands(spec, [coeffs]):
        rows, band = stack.shape
        if rows == len(coeffs) and band == cells:
            return stack
        if out is None:
            out = np.empty((len(coeffs), cells), dtype=np.complex128)
        out[at : at + rows].reshape(rows, -1, band)[...] = stack[:, None, :]
        at += rows
    return np.empty((0, cells), dtype=np.complex128) if out is None else out


def _synthesize_bands(spec: GroupSpec, blocks: Iterable) -> Iterator[np.ndarray]:
    """Each coefficient row's synthesis on the M_s cells x < M_s of its band, stacked.

    blocks holds (rows x width) stacks of coefficient rows, width <= M_N.  A
    row's band is M_s for the smallest s with M_s above its last nonzero
    coefficient, the rule inverse() applies to a whole spectrum, found for
    a whole block by one scan; its synthesis is a function of x mod M_s, so
    these M_s values tile to the full grid.  Consecutive rows with one band,
    within a block or across blocks, run as one stacked butterfly of at
    most _SYNTH_CHUNK_CELLS cells (one row if M_s is larger), yielded as its
    (rows x M_s) stack, in input order.  The blocks are read lazily, so a
    sweep that reduces each stack on its band holds
    O(_SYNTH_CHUNK_CELLS + M_s) cells besides the block being read.
    """
    places = np.asarray(spec.M)
    pending: list[np.ndarray] = []  # pieces of blocks of one band, emptied by each butterfly
    rows = band = 0
    for block in blocks:
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[1] > spec.size:
            raise ValueError(
                f"coefficient block of shape {block.shape} does not fit M_N = {spec.size}"
            )
        width = block.shape[1]
        nonzero = block != 0
        count = np.zeros(len(block), dtype=np.int64)
        if width:
            found = nonzero.any(axis=1)
            count[found] = width - np.argmax(nonzero[found, ::-1], axis=1)
        bands = places[np.searchsorted(places, count)]
        runs = [0, *(np.flatnonzero(bands[1:] != bands[:-1]) + 1).tolist(), len(block)]
        for start, stop in zip(runs, runs[1:]):
            if pending and bands[start] != band:
                yield _butterfly_stack(spec, pending, rows, band)
                rows = 0
            band = int(bands[start])
            while start < stop:
                take = min(stop - start, _chunk_rows(band) - rows)
                pending.append(block[start : start + take, :band])
                rows += take
                start += take
                if rows == _chunk_rows(band):
                    yield _butterfly_stack(spec, pending, rows, band)
                    rows = 0
    if pending:
        yield _butterfly_stack(spec, pending, rows, band)


def _butterfly_stack(
    spec: GroupSpec, pieces: list[np.ndarray], rows: int, band: int
) -> np.ndarray:
    """One butterfly over pieces of coefficient rows supported below band.

    The pieces are taken out of the list and the butterfly runs in place on
    their zero-padded (rows x band) stack, which it returns.
    """
    data = np.zeros((rows, band), dtype=np.complex128)
    at = 0
    for piece in pieces:
        data[at : at + len(piece), : piece.shape[1]] = piece
        at += len(piece)
    pieces.clear()
    return _apply_stages(spec, data, inverse=True)


def partial_sum(f: GridFunction, n: int) -> GridFunction:
    """Fourier partial sum S_n f = sum_{k<n} fhat(k) psi_k; S_0 f = 0."""
    spec = f.spec
    if not 0 <= n <= spec.size:
        raise ValueError(f"partial sum order {n} outside [0, {spec.size}]")
    return synthesize(spec, _analyse(f, n))


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Normalized convolution (f*g)(x) = (1/M_N) sum_t f(x-t) g(t).

    Computed spectrally: under the 1/M_N-normalized transform the
    coefficients of f*g are exactly fhat * ghat.
    """
    if f.spec != g.spec:
        raise ValueError("grid functions belong to different groups")
    prod = forward(f).coeffs * forward(g).coeffs
    return inverse(Spectrum(f.spec, prod))


def norm(f: GridFunction, p: float) -> float:
    """Strong L_p norm under normalized Haar measure; p may be math.inf."""
    if p == math.inf:
        return float(np.abs(f.values).max())
    if not p >= 1:  # also refuses NaN
        raise ValueError(f"strong norm needs p >= 1, got {p}")
    return float(np.mean(np.abs(f.values) ** p) ** (1.0 / p))


def weak_norm(f: GridFunction, p: float) -> float:
    """Weak L_p statistic sup_v v * mu(|f| >= v)^(1/p) over levels v of |f|.

    Evaluating mu(|f| > lambda) just below each distinct value v of |f|
    turns the strict-inequality sup into v * mu(|f| >= v)^(1/p); scanning
    the sorted magnitudes covers every candidate v.
    """
    if not p > 0:  # also refuses NaN
        raise ValueError(f"weak norm needs p > 0, got {p}")
    mags = np.sort(np.abs(f.values))[::-1]
    fractions = np.arange(1, len(mags) + 1) / len(mags)
    return float(np.max(mags * fractions ** (1.0 / p)))


def lift_step(spec: GroupSpec, rank: int, base: Sequence[complex]) -> GridFunction:
    """Extend values on the M_rank rank-n cells to a step function on the grid."""
    stride = spec.M[rank]
    base_arr = np.asarray(base, dtype=np.complex128)
    if base_arr.shape != (stride,):
        raise ValueError(f"expected {stride} cell values, got {base_arr.shape}")
    return GridFunction._own(spec, np.tile(base_arr, spec.size // stride))
