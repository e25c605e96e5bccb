"""Finite-resolution model of a bounded Vilenkin group.

A group spec is fixed by its radices m_0, ..., m_{N-1} (all >= 2), which give
the place values M_0 = 1, M_{k+1} = m_k * M_k.  A point of the group is a digit
vector (x_0, ..., x_{N-1}) with x_j in Z_{m_j}, added coordinatewise mod m_j.
The grid index sum(x_j * M_j) enumerates cells so that the rank-n interval
around a point (all points sharing its first n digits) is exactly the set of
indices congruent to it mod M_n, i.e. an arithmetic progression of stride M_n.
"""

from __future__ import annotations

import operator
from itertools import cycle, islice
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Element", "GroupSpec", "generator", "interval_members", "make_group"]

# Grid indices are manipulated as int64 arrays; keep M_N comfortably inside.
MAX_SIZE = 2**62


class _Frozen:
    """Base of the package's immutable classes: fields in __slots__, set once.

    Written out by hand rather than as frozen dataclasses, whose generated
    methods are compiled on every import.  __init__ sets each field with
    object.__setattr__; assigning or deleting one afterwards raises
    AttributeError.  Instances compare by identity unless a subclass says
    otherwise.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def _fields(self) -> tuple:
        """The arguments of __init__ that rebuild this instance: by default its fields in order."""
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        # pickle and copy rebuild through __init__, since restoring the
        # fields one by one would assign
        return type(self), self._fields()


class _Value(_Frozen):
    """A _Frozen class whose instances compare and hash by _fields(), spelled out per subclass."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())


def _check_type(what: str, value, kind: type) -> None:
    """Raise a TypeError naming the argument (what = "caller: name") if value is no kind."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"{what} must be {article} {kind.__name__}, got {type(value).__name__}")


def _radix(r) -> int:
    r = operator.index(r)  # numpy integers pass, floats raise TypeError
    if r < 2:
        raise ValueError(f"radix {r} invalid: every m_k must be >= 2")
    return r


class GroupSpec(_Value):
    """One group resolution, built from its radices; the place values M are derived."""

    __slots__ = ("m", "M")
    m: tuple[int, ...]
    M: tuple[int, ...]

    def __init__(self, m: Iterable[int]) -> None:
        # Every radix is >= 2, so the overflow check stops this loop within
        # 62 radices however long m is.
        radices, places = [], [1]
        for r in m:
            radices.append(_radix(r))
            places.append(places[-1] * radices[-1])
            if places[-1] > MAX_SIZE:
                raise ValueError(f"resolution overflow: M_N exceeds {MAX_SIZE}")
        if not radices:
            raise ValueError("radix pattern must be non-empty")
        object.__setattr__(self, "m", tuple(radices))
        object.__setattr__(self, "M", tuple(places))

    def _fields(self) -> tuple:
        return (self.m,)

    @property
    def levels(self) -> int:
        """Number of coordinates N."""
        return len(self.m)

    @property
    def size(self) -> int:
        """Total number of grid cells M_N."""
        return self.M[-1]

    def _place(self, rank: int) -> int:
        """M_rank, the stride of a rank-n interval, for a rank in [0, N]."""
        if not 0 <= operator.index(rank) <= self.levels:
            raise ValueError(f"rank {rank} outside [0, {self.levels}]")
        return self.M[rank]

    def digits(self, n: int) -> tuple[int, ...]:
        """Digit vector of grid index n in the mixed-radix system."""
        n = operator.index(n)  # numpy integers pass, floats raise TypeError
        if not 0 <= n < self.size:
            raise ValueError(f"index {n} outside [0, {self.size})")
        return tuple((n // self.M[j]) % self.m[j] for j in range(self.levels))

    def index_of(self, digits: Sequence[int]) -> int:
        """Grid index of a digit vector (inverse of digits())."""
        if len(digits) != self.levels:
            raise ValueError(f"expected {self.levels} digits, got {len(digits)}")
        total = 0
        for j, (d, r) in enumerate(zip(digits, self.m)):
            if not 0 <= d < r:
                raise ValueError(f"digit {d} at position {j} outside [0, {r})")
            total += d * self.M[j]
        return total

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.m)


def make_group(m: Sequence[int], levels: int | None = None) -> GroupSpec:
    """Build a GroupSpec from a radix pattern.

    When ``levels`` exceeds the pattern length the pattern is cycled, so
    ``make_group([2, 3], 4)`` gives radices (2, 3, 2, 3).  Every radix of
    the pattern must be an integer >= 2, used or not, and the total size
    M_N must stay below 2**62.
    """
    pattern = [_radix(r) for r in m]
    if levels is None:
        return GroupSpec(pattern)
    if operator.index(levels) < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    return GroupSpec(islice(cycle(pattern), levels))


class Element(_Value):
    """A group point: an immutable digit vector tied to its GroupSpec; its grid index is derived."""

    __slots__ = ("spec", "digits", "index")
    spec: GroupSpec
    digits: tuple[int, ...]
    index: int

    def __init__(self, spec: GroupSpec, digits: tuple[int, ...]) -> None:
        _check_type("Element: spec", spec, GroupSpec)
        digits = tuple(map(operator.index, digits))  # numpy integers pass, floats raise TypeError
        index = spec.index_of(digits)  # refuses a wrong length or a digit outside [0, m_j)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "index", index)

    def _fields(self) -> tuple:
        return self.spec, self.digits

    @classmethod
    def from_index(cls, spec: GroupSpec, n: int) -> "Element":
        _check_type("Element.from_index: spec", spec, GroupSpec)
        return cls(spec, spec.digits(n))

    @classmethod
    def zero(cls, spec: GroupSpec) -> "Element":
        _check_type("Element.zero: spec", spec, GroupSpec)
        return cls(spec, (0,) * spec.levels)

    def __add__(self, other: "Element") -> "Element":
        """Coordinatewise sum mod the radices."""
        return self._coordinatewise(operator.add, other)

    def __sub__(self, other: "Element") -> "Element":
        """Coordinatewise difference mod the radices."""
        return self._coordinatewise(operator.sub, other)

    def _coordinatewise(self, op, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented  # so x + 1 raises TypeError
        if self.spec != other.spec:
            raise ValueError("elements belong to different groups")
        d = tuple(op(a, b) % r for a, b, r in zip(self.digits, other.digits, self.spec.m))
        return Element(self.spec, d)

    def __str__(self) -> str:
        return ",".join(str(d) for d in self.digits)


def generator(s: int, spec: GroupSpec) -> Element:
    """Unit digit vector e_s (digit 1 in coordinate s, zero elsewhere)."""
    s = operator.index(s)  # numpy integers pass, floats raise TypeError
    _check_type("generator: spec", spec, GroupSpec)
    if not 0 <= s < spec.levels:
        raise ValueError(f"coordinate {s} outside [0, {spec.levels})")
    d = tuple(1 if j == s else 0 for j in range(spec.levels))
    return Element(spec, d)


def interval_members(x: Element, rank: int) -> np.ndarray:
    """Grid indices of the rank-n interval I_n(x).

    I_n(x) collects every point sharing the first ``rank`` digits of x, i.e.
    all indices congruent to x mod M_rank; rank 0 is the whole group and
    rank N the singleton {x}.
    """
    _check_type("interval_members: x", x, Element)
    stride = x.spec._place(rank)
    return np.arange(x.index % stride, x.spec.size, stride, dtype=np.int64)


# --- the CLI's parsers, inverse to str() of a GroupSpec and an Element -------


def parse_group(text: str, levels: int | None = None) -> GroupSpec:
    try:
        pattern = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad group spec {text!r}: {exc}") from None
    return make_group(pattern, levels)


def parse_element(text: str, spec: GroupSpec) -> Element:
    try:
        parts = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad element {text!r}: {exc}") from None
    if len(parts) > spec.levels:
        raise ValueError(f"element {text!r} has more digits than levels={spec.levels}")
    parts = parts + [0] * (spec.levels - len(parts))
    return Element(spec, tuple(parts))
