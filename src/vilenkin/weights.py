"""Weight sequences and their classification.

A weight sequence (q_k) has cumulative sums Q_n = q_0 + ... + q_{n-1}.  It
drives the forward- and reversed-frame means t_mean and norlund_mean, which
sit beside the multiplier core in vilenkin.kernels.

Built-in families (alpha always in (0, 1)), each with the frame of the
classical mean it gives:

    constant        q_k = 1                       reversed frame: Fejer means (both Fejer-type)
    cesaro          q_k = A_k^(alpha-1), q_0 = 0  reversed frame: (C, alpha) means
    inverse-cesaro  same weights as cesaro        forward frame
    power           q_k = k^(alpha-1), q_0 = 0    forward frame: V-alpha means
    riesz-log       q_k = 1/k, q_0 = 0            forward frame: Riesz log means
    norlund-log     q_k = 1/k, q_0 = 0            reversed frame: Norlund log means
    log-power       q_k = log(k+1)**alpha         forward frame: B-alpha means

So the Riesz mean of order n is t_mean(f, WeightSequence("riesz-log"), n)
and the (C, alpha) mean norlund_mean(f, WeightSequence("cesaro", alpha), n).

A_k^beta is the generalized binomial coefficient prod_{i=1..k} (beta+i)/i,
taken to be 0 at k = 0 so that every family normalizes by the plain sum of
the weights it actually uses; this keeps t_n(1) = 1 and T_n(1) = (Q_n-q_0)/Q_n
exact for every family.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .group import _Value, _check_type

__all__ = [
    "Classification", "WeightSequence", "binomial_sequence", "classify", "parse_weights",
    "passes_gate",
]

# canonical kind -> (CLI spelling, whether it takes an alpha)
_KINDS = {
    "constant": ("constant", False),
    "cesaro": ("cesaro", True),
    "inverse-cesaro": ("icesaro", True),
    "power": ("power", True),
    "riesz-log": ("riesz", False),
    "norlund-log": ("nlog", False),
    "log-power": ("logpow", True),
}
_ALIASES = {alias: kind for kind, (alias, _) in _KINDS.items()}
# The most weights or weight sums one array holds, 512 MiB of floats, so that
# a larger count is refused before numpy tries to allocate it.  The CLI's
# largest grid, 2^22 cells, reads Q_array(2^22), cached at 2^23 + 1 sums.
_MAX_WEIGHTS = 1 << 26


def binomial_sequence(order: float, count: int) -> np.ndarray:
    """A_k^order = prod_{i=1..k} (order+i)/i for k < count, with A_0 = 0.

    The 0 at k = 0 reflects the truncated convention used throughout: the
    k = 0 term never participates in a mean because S_0 f = 0.  An order
    whose coefficients overflow, such as 1e308, raises ValueError; no weight
    family reaches that, since each passes alpha - 1 in (-1, 0).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > _MAX_WEIGHTS:
        raise ValueError(f"count {count} needs more than {_MAX_WEIGHTS} weights")
    if not np.isfinite(order):
        raise ValueError(f"order must be finite, got {order}")
    # built in place: out and i are the only count-sized arrays
    out = np.zeros(count)
    i = np.arange(1, count, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        np.add(order, i, out=out[1:])
        out[1:] /= i
        np.cumprod(out[1:], out=out[1:])
    if not np.isfinite(out[-1]):  # an inf or nan of the product stays to its end
        raise ValueError(f"order {order} overflows the binomial coefficients at count {count}")
    return out


class WeightSequence(_Value):
    """One named weight family, hashable so derived arrays can be cached."""

    __slots__ = ("kind", "alpha")
    kind: str
    alpha: float | None

    def __init__(self, kind: str, alpha: float | None = None) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown weight kind {kind!r}")
        if _KINDS[kind][1]:
            if alpha is None or not 0 < alpha < 1:
                raise ValueError(f"{kind} needs alpha in (0, 1), got {alpha}")
            if kind in ("cesaro", "inverse-cesaro") and alpha - 1.0 == -1.0:
                raise ValueError(
                    f"{kind} alpha {alpha} too small: alpha - 1 rounds to -1, every q_k to 0"
                )
        elif alpha is not None:
            raise ValueError(f"{kind} takes no alpha")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "alpha", alpha)

    def _fields(self) -> tuple:
        return self.kind, self.alpha

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
        short = _KINDS[self.kind][0]
        if self.alpha is None:
            return short
        return f"{short}:{self.alpha:g}"


def _capacity(count: int) -> int:
    """The power of two above count: the cached length serving it."""
    count = operator.index(count)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count >= _MAX_WEIGHTS:  # its cache would hold more
        raise ValueError(f"count {count} needs more than {_MAX_WEIGHTS} weights")
    return 1 << count.bit_length()


@lru_cache(maxsize=512)
def _q_cache(w: WeightSequence, count: int) -> np.ndarray:
    k = np.arange(count, dtype=np.float64)
    if w.kind == "constant":
        q = np.ones(count)
    elif w.kind in ("cesaro", "inverse-cesaro"):
        # _capacity never asks for 0 weights, but the uncached _q_cache.__wrapped__(w, 0) may
        q = binomial_sequence(w.alpha - 1.0, count) if count else np.zeros(0)
    elif w.kind == "power":
        q = np.zeros(count)
        q[1:] = k[1:] ** (w.alpha - 1.0)
    elif w.kind in ("riesz-log", "norlund-log"):
        q = np.zeros(count)
        q[1:] = 1.0 / k[1:]
    elif w.kind == "log-power":
        q = np.log(k + 1.0) ** w.alpha
    else:  # pragma: no cover - WeightSequence.__init__ admits only _KINDS
        raise ValueError(w.kind)
    q.setflags(write=False)
    return q


@lru_cache(maxsize=512)
def _Q_cache(w: WeightSequence, n: int) -> np.ndarray:
    out = np.zeros(n + 1)
    out[1:] = np.cumsum(_q_cache(w, n))  # n is a cached length already
    out.setflags(write=False)
    return out


def parse_weights(text: str) -> WeightSequence:
    """Parse a CLI weight spec like 'riesz', 'cesaro:0.5' or 'logpow:0.5'."""
    _check_type("parse_weights: text", text, str)
    name, _, alpha_s = text.partition(":")
    kind = _ALIASES.get(name, name if name in _KINDS else None)
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


class Classification(NamedTuple):
    """Numerical evidence for the summability hypotheses on one family.

    The fields are the columns of a classify-weights CSV row, in order.
    """

    label: str
    n_max: int
    q0: float
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
    pattern the family matches: 'a' (non-increasing), 'b' (non-decreasing;
    its fn01_sup is finite, since Q_n > 0 from n0 on), 'a+b', or 'none'.
    """
    _check_type("classify: w", w, WeightSequence)
    if operator.index(n_max) < w.n0 + 1:
        raise ValueError(f"n_max {n_max} too small for this family")
    q = w.q_array(n_max)
    Q = w.Q_array(n_max)
    tail = q[np.argmax(q > 0) :]  # q_1 > 0 for every family WeightSequence admits
    diffs = np.diff(tail)
    mono, gate = {
        (True, True): ("both", "a+b"),
        (True, False): ("non-increasing", "a"),
        (False, True): ("non-decreasing", "b"),
        (False, False): ("neither", "none"),
    }[bool(np.all(diffs <= 0)), bool(np.all(diffs >= 0))]
    ns = np.arange(w.n0, n_max + 1)
    fn01 = float(np.max(ns * q[ns - 1] / Q[ns]))
    fn011 = float(np.max(ns * q[0] / Q[ns]))
    half = max(n_max // 2, w.n0)
    growth = float(Q[n_max] / Q[half])
    return Classification(
        label=w.label(),
        n_max=n_max,
        q0=float(q[0]),
        monotonicity=mono,
        fn01_sup=fn01,
        fn011_sup=fn011,
        regular=growth > 1.0,
        growth_ratio=growth,
        gate=gate,
    )


def passes_gate(c: Classification) -> bool:
    _check_type("passes_gate: c", c, Classification)
    return c.gate != "none"
