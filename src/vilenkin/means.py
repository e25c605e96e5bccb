"""Weight sequences, their classification, and summability means.

A weight sequence (q_k) with cumulative sums Q_n = q_0 + ... + q_{n-1} drives
two matrix means of the Fourier partial sums S_k f (with S_0 f = 0):

    forward frame    T_n f = (1/Q_n) * sum_{k=0}^{n-1} q_k S_k f
    reversed frame   t_n f = (1/Q_n) * sum_{k=1}^{n}   q_{n-k} S_k f

Built-in families (alpha always in (0, 1)):

    constant        q_k = 1                       both frames give Fejer-type means
    cesaro          q_k = A_k^(alpha-1), q_0 = 0  reversed frame: (C, alpha) means
    inverse-cesaro  same weights as cesaro        forward frame
    power           q_k = k^(alpha-1), q_0 = 0    forward frame
    riesz-log       q_k = 1/k, q_0 = 0            forward frame: Riesz log means
    norlund-log     q_k = 1/k, q_0 = 0            reversed frame
    log-power       q_k = log(k+1)**alpha         forward frame

A_k^beta is the generalized binomial coefficient prod_{i=1..k} (beta+i)/i,
taken to be 0 at k = 0 so that every family normalizes by the plain sum of
the weights it actually uses; this keeps t_n(1) = 1 and T_n(1) = (Q_n-q_0)/Q_n
exact for every family.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .kernels import _check_orders, multiplier
from .transform import (
    GridFunction,
    _analyse,
    _characters,
    _chunk_rows,
    convolve,
    forward,
    synthesize,
)

_ALPHA_KINDS = frozenset({"cesaro", "inverse-cesaro", "power", "log-power"})
_PLAIN_KINDS = frozenset({"constant", "riesz-log", "norlund-log"})
KINDS = _ALPHA_KINDS | _PLAIN_KINDS

# CLI spelling <-> canonical kind
_ALIASES = {
    "constant": "constant",
    "cesaro": "cesaro",
    "icesaro": "inverse-cesaro",
    "power": "power",
    "riesz": "riesz-log",
    "nlog": "norlund-log",
    "logpow": "log-power",
}
_SHORT = {kind: alias for alias, kind in _ALIASES.items()}


def binomial_sequence(order: float, count: int) -> np.ndarray:
    """A_k^order = prod_{i=1..k} (order+i)/i for k < count, with A_0 = 0.

    The 0 at k = 0 reflects the truncated convention used throughout: the
    k = 0 term never participates in a mean because S_0 f = 0.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    out = np.zeros(count)
    if count > 1:
        i = np.arange(1, count)
        out[1:] = np.cumprod((order + i) / i)
    return out


@dataclass(frozen=True)
class WeightSequence:
    """One named weight family, hashable so derived arrays can be cached."""

    kind: str
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind in _ALPHA_KINDS:
            if self.alpha is None or not 0 < self.alpha < 1:
                raise ValueError(
                    f"{self.kind} needs alpha in (0, 1), got {self.alpha}"
                )
        elif self.alpha is not None:
            raise ValueError(f"{self.kind} takes no alpha")

    def q_array(self, count: int) -> np.ndarray:
        """Weights q_0 .. q_{count-1} as a read-only vector.

        A prefix of one cached array per power-of-two size class (Q_array
        likewise), so a sweep over orders up to n keeps O(n) values alive,
        not one array per order.  Every entry is computed elementwise or by a
        sequential cumulative product or sum, so a prefix equals the array
        computed at its own length.
        """
        return _q_cache(self, _capacity(count))[:count]

    def q(self, k: int) -> float:
        if k < 0:
            raise ValueError(f"weight index must be >= 0, got {k}")
        return float(self.q_array(k + 1)[k])

    def Q_array(self, n: int) -> np.ndarray:
        """Cumulative sums Q_0 .. Q_n as a read-only vector of length n+1."""
        return _Q_cache(self, _capacity(n))[: n + 1]

    def Q(self, n: int) -> float:
        return float(self.Q_array(n)[n])

    @property
    def n0(self) -> int:
        """Smallest n with Q_n > 0 (2 for families with a leading zero weight)."""
        return 1 if self.q(0) > 0 else 2

    def label(self) -> str:
        short = _SHORT[self.kind]
        if self.alpha is None:
            return short
        return f"{short}:{self.alpha:g}"


def _capacity(count: int) -> int:
    """The power of two above count: the cached length serving it."""
    count = operator.index(count)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return 1 << count.bit_length()


@lru_cache(maxsize=512)
def _q_cache(w: WeightSequence, count: int) -> np.ndarray:
    k = np.arange(count, dtype=np.float64)
    if w.kind == "constant":
        q = np.ones(count)
    elif w.kind in ("cesaro", "inverse-cesaro"):
        q = binomial_sequence(w.alpha - 1.0, count) if count else np.zeros(0)
    elif w.kind == "power":
        q = np.zeros(count)
        if count > 1:
            q[1:] = k[1:] ** (w.alpha - 1.0)
    elif w.kind in ("riesz-log", "norlund-log"):
        q = np.zeros(count)
        if count > 1:
            q[1:] = 1.0 / k[1:]
    elif w.kind == "log-power":
        q = np.log(k + 1.0) ** w.alpha
    else:  # pragma: no cover - guarded by __post_init__
        raise ValueError(w.kind)
    q.setflags(write=False)
    return q


@lru_cache(maxsize=512)
def _Q_cache(w: WeightSequence, n: int) -> np.ndarray:
    out = np.zeros(n + 1)
    out[1:] = np.cumsum(w.q_array(n))
    out.setflags(write=False)
    return out


def weights(kind: str, alpha: float | None = None) -> WeightSequence:
    """Build a weight family from its canonical kind name."""
    return WeightSequence(kind=kind, alpha=alpha)


def parse_weights(text: str) -> WeightSequence:
    """Parse a CLI weight spec like 'riesz', 'cesaro:0.5' or 'logpow:0.5'."""
    name, _, alpha_s = text.partition(":")
    kind = _ALIASES.get(name, name if name in KINDS else None)
    if kind is None:
        raise ValueError(
            f"unknown weight family {text!r}; expected one of "
            f"{sorted(_ALIASES)} (alpha kinds take ':ALPHA')"
        )
    alpha = None
    if alpha_s:
        try:
            alpha = float(alpha_s)
        except ValueError:
            raise ValueError(f"bad alpha in weight spec {text!r}") from None
    return WeightSequence(kind=kind, alpha=alpha)


# --- classification ----------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """Numerical evidence for the summability hypotheses on one family."""

    label: str
    n_max: int
    q0: float
    non_increasing: bool
    non_decreasing: bool
    monotonicity: str
    fn01_sup: float
    fn011_sup: float
    regular: bool
    growth_ratio: float
    gate: str


def classify(w: WeightSequence, n_max: int = 10_000) -> Classification:
    """Scan q_0..q_{n_max-1} for monotonicity and the two sup statistics.

    fn01_sup is sup_n n*q_{n-1}/Q_n and fn011_sup is sup_n n*q_0/Q_n, both
    over n0 <= n <= n_max.  Monotonicity is judged after skipping a leading
    zero weight, so families with q_0 = 0 and decreasing tail still classify
    as non-increasing.  The gate field tells which summability hypothesis
    pattern the family matches: 'a' (non-increasing), 'b' (non-decreasing
    with finite fn01_sup), 'a+b', or 'none'.
    """
    if n_max < w.n0 + 1:
        raise ValueError(f"n_max {n_max} too small for this family")
    q = w.q_array(n_max)
    Q = w.Q_array(n_max)
    positive = np.nonzero(q > 0)[0]
    if len(positive) == 0:
        raise ValueError("weight sequence is identically zero")
    tail = q[positive[0] :]
    diffs = np.diff(tail)
    non_inc = bool(np.all(diffs <= 0))
    non_dec = bool(np.all(diffs >= 0))
    if non_inc and non_dec:
        mono = "both"
    elif non_inc:
        mono = "non-increasing"
    elif non_dec:
        mono = "non-decreasing"
    else:
        mono = "neither"
    ns = np.arange(w.n0, n_max + 1)
    fn01 = float(np.max(ns * q[ns - 1] / Q[ns]))
    fn011 = float(np.max(ns * q[0] / Q[ns]))
    half = max(n_max // 2, w.n0)
    growth = float(Q[n_max] / Q[half])
    gate_a = non_inc
    gate_b = non_dec and math.isfinite(fn01)
    gate = {(True, True): "a+b", (True, False): "a", (False, True): "b"}.get(
        (gate_a, gate_b), "none"
    )
    return Classification(
        label=w.label(),
        n_max=n_max,
        q0=float(q[0]),
        non_increasing=non_inc,
        non_decreasing=non_dec,
        monotonicity=mono,
        fn01_sup=fn01,
        fn011_sup=fn011,
        regular=growth > 1.0,
        growth_ratio=growth,
        gate=gate,
    )


def passes_gate(c: Classification) -> bool:
    return c.gate != "none"


# --- means -------------------------------------------------------------------


def t_mean(
    f: GridFunction, w: WeightSequence, n: int, method: str = "convolution"
) -> GridFunction:
    """Forward-frame mean T_n f = (1/Q_n) sum_{k<n} q_k S_k f.

    Three routes are kept deliberately distinct so they can cross-check each
    other: 'convolution' convolves f with the forward-frame kernel, 'direct'
    accumulates partial sums term by term, and 'abel' rebuilds T_n from
    Fejer means via summation by parts.  The last two are oracles, computed
    by one order of the t_mean_oracles() pass.
    """
    if method == "convolution":
        return convolve(f, synthesize(f.spec, multiplier("t", n, f.spec, w)))
    if method not in ("direct", "abel"):
        raise ValueError(f"unknown method {method!r}")
    _, direct, abel = next(t_mean_oracles(f, w, [n]))
    return GridFunction._own(f.spec, (direct if method == "direct" else abel)[0])


def t_mean_oracles(
    f: GridFunction, w: WeightSequence, ns: Sequence[int]
) -> Iterator[tuple[list[int], np.ndarray, np.ndarray]]:
    """(orders, direct T_n f, abel T_n f) for ascending ns, in one pass, a chunk at a time.

    With S_k = sum_{i<k} fhat(i) psi_i and R_k = S_1 + ... + S_k (so that
    R_k = k sigma_k f), the two oracle routes are

        direct  Q_n T_n f = sum_{k<n} q_k S_k
        abel    Q_n T_n f = sum_{j=1}^{n-2} (q_j - q_{j+1}) R_j + q_{n-1} R_{n-1}

    Both are running sums in k, so one forward(f) and one character row per
    k < max(ns) - 1 serve every order.  The full forward(f), not an
    analysis up to max(ns), keeps every order's value independent of the
    other orders in ns.  The steps k run in chunks of _chunk_rows(M_N): one
    stack of character rows psi_{k-1}, and each running sum (S_k, R_k, the
    direct and the Abel sums) one cumulative sum down the stack of its
    terms, started from the previous chunk's last row, so every value is a
    loop's additions in the loop's order.  A chunk yields the orders n with
    n - 1 among its steps, both routes as fresh (orders x M_N) stacks, in
    O(_SYNTH_CHUNK_CELLS + M_N) working memory.
    """
    ns = list(ns)
    for previous, n in zip(ns, ns[1:]):
        if n < previous:
            raise ValueError(f"orders must ascend, got {n} after {previous}")
    orders = np.asarray(ns, dtype=np.int64)
    spec = f.spec
    _check_orders("t", orders, spec, w)
    if not ns:
        return
    fh = forward(f).coeffs
    top = ns[-1]
    q, Q = w.q_array(top), w.Q_array(top)
    # order 1 reads step 0, where every sum is still zero
    first = bisect_left(ns, 2)
    if first:
        zero = np.zeros((first, spec.size), dtype=np.complex128)
        yield ns[:first], zero, zero.copy()
    # S_{a-1}, R_{a-1}, the direct sum and the Abel terms j <= a - 1
    S, R, direct, abel = (np.zeros(spec.size, dtype=np.complex128) for _ in range(4))
    for a in range(1, top, _chunk_rows(spec.size)):
        k = np.arange(a, min(a + _chunk_rows(spec.size), top))  # the steps of this chunk
        Ss = _characters(spec, k - 1)
        np.multiply(fh[k - 1][:, None], Ss, out=Ss)
        _accumulate(S, Ss)
        Rs = Ss.copy()
        _accumulate(R, Rs)
        As = np.empty_like(Rs)
        np.multiply(q[a - 1] - q[a], R, out=As[0])
        np.multiply((q[k[1:] - 1] - q[k[1:]])[:, None], Rs[:-1], out=As[1:])
        if a == 1:
            As[0] = 0  # the Abel sum starts at j = 1, step 2
        _accumulate(abel, As)
        S, R, abel = Ss[-1].copy(), Rs[-1].copy(), As[-1].copy()
        np.multiply(q[k][:, None], Ss, out=Ss)
        _accumulate(direct, Ss)
        direct = Ss[-1].copy()
        # the orders n with n - 1 among the steps; R_{n-1} is q_{n-1}'s term
        first, last = bisect_left(ns, k[0] + 1), bisect_left(ns, k[-1] + 2)
        if first == last:
            continue
        n = orders[first:last]
        at = n - 1 - a
        whole = np.array_equal(at, np.arange(len(k)))
        Ds, Rs, As = (rows if whole else rows[at] for rows in (Ss, Rs, As))
        np.multiply(q[n - 1][:, None], Rs, out=Rs)
        np.add(As, Rs, out=Rs)
        del As
        np.divide(Ds, Q[n][:, None], out=Ds)
        np.divide(Rs, Q[n][:, None], out=Rs)
        yield ns[first:last], Ds, Rs


def _accumulate(start: np.ndarray, terms: np.ndarray) -> None:
    """Running sums start + terms[0], ... + terms[i] down a stack, in place, in loop order."""
    np.add(start, terms[0], out=terms[0])
    np.cumsum(terms, axis=0, out=terms)


def norlund_mean(f: GridFunction, w: WeightSequence, n: int) -> GridFunction:
    """Reversed-frame mean t_n f = (1/Q_n) sum_{k=1}^{n} q_{n-k} S_k f."""
    lam = multiplier("norlund", n, f.spec, w)
    return synthesize(f.spec, _analyse(f, n) * lam)


_NAMED = {
    "fejer": ("norlund", "constant", False),
    "cesaro": ("norlund", "cesaro", True),
    "inverse-cesaro": ("t", "inverse-cesaro", True),
    "v-alpha": ("t", "power", True),
    "riesz": ("t", "riesz-log", False),
    "norlund-log": ("norlund", "norlund-log", False),
    "b-alpha": ("t", "log-power", True),
}


def named_mean(
    name: str, f: GridFunction, n: int, alpha: float | None = None
) -> GridFunction:
    """Classical summability methods, dispatched onto the two frames."""
    if name not in _NAMED:
        raise ValueError(f"unknown mean {name!r}; expected one of {sorted(_NAMED)}")
    frame, kind, needs_alpha = _NAMED[name]
    if needs_alpha and alpha is None:
        raise ValueError(f"mean {name!r} needs alpha")
    if not needs_alpha and alpha is not None:
        raise ValueError(f"mean {name!r} takes no alpha")
    w = WeightSequence(kind=kind, alpha=alpha)
    if frame == "t":
        return t_mean(f, w, n)
    return norlund_mean(f, w, n)


def abel_weight_residual(w: WeightSequence, n: int) -> float:
    """|Q_n - (q_0 + sum_{j=1}^{n-2} (q_j - q_{j+1}) j + q_{n-1} (n-1))|.

    Summation by parts rewrites Q_n in the form the kernel estimates use;
    the residual should be at machine-noise level for every family.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    q = w.q_array(n)
    rhs = q[0]
    if n >= 2:
        j = np.arange(1, n - 1)
        rhs += float(np.sum((q[j] - q[j + 1]) * j)) + q[n - 1] * (n - 1)
    return abs(w.Q(n) - rhs)
