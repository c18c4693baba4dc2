"""Tail-probability envelopes for the scaled KPZ height.

Every function here evaluates a printed envelope formula, never an equality:
the underlying statements are asymptotic with absolute constants that are not
pinned down, so the constants (K, K1, K2, s0) are explicit user parameters
with defaults in DEFAULT_CONSTANTS (K = K1 = K2 = 1, s0 = 0), and all
comparisons against simulation are one-sided non-violation checks.  Raw
envelope values may exceed 1; clamping is the caller's job.

Conventions
-----------
_FAMILIES is the theorem table: for each family, in the order of
BoundQuery.THEOREMS, the tail of the scaled height it bounds and the
envelope call that evaluate_query makes.  Lower-tail envelopes bound
P(height <= -s); upper-tail envelopes bound P(height >= s); the
Laplace-route family bounds no tail probability.  Each query gives one
BoundResult: value bounds the family's quantity from above, and
value_lower bounds it from below when the statement is two-sided (the
upper tails, e^(-c1 s^(3/2)) <= P <= e^(-c2 s^(3/2)) with c1 > c2; the
narrow-wedge lower tail; the Laplace route).  The coefficient
regimes i/ii/iii split on how s compares to T^(2/3); they are only asserted
for T > pi, and below that the result carries regime "none" with a vacuous
envelope (inf raw, clamping to 1).  Lower-tail results are labelled by the
dominant of the three summands: I_low (deep, s >> T^(2/3)), II_low
(intermediate), III_low (shallow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Optional

NOTE_CONSTANTS = "asymptotic statement; absolute constants not specified"
NOTE_SMALL_T = ("coefficient regimes require T > pi; only qualitative "
                "envelopes exist here (vacuous value returned)")
NOTE_BELOW_S0 = "s below the validity threshold s0; envelope vacuous"

LOWER_TAIL_REGIMES = ("I_low", "II_low", "III_low")

# the envelopes' unspecified absolute constants; s0 is the validity threshold
# of the upper-tail coefficient statements
DEFAULT_CONSTANTS = MappingProxyType({"K": 1.0, "K1": 1.0, "K2": 1.0,
                                      "s0": 0.0})


@dataclass(frozen=True)
class BoundResult:
    """One theorem statement's envelope plus regime/coefficient metadata.

    value bounds the family's quantity from above; value_lower, when the
    statement is two-sided, bounds it from below.
    """

    value: float
    regime: str
    c1: Optional[float] = None
    c2: Optional[float] = None
    value_lower: Optional[float] = None
    validity_note: str = NOTE_CONSTANTS

    def __post_init__(self) -> None:
        # mathematically > 0; exact 0.0 is float underflow at huge s, +inf
        # a vacuous envelope; NaN fails the comparison
        if not self.value >= 0:
            raise ValueError(
                f"envelope value must be nonnegative, got {self.value}")
        lower = self.value_lower
        if lower is not None and not 0 <= lower <= self.value:
            raise ValueError(f"lower envelope must lie in [0, {self.value}], "
                             f"got {lower}")
        if self.c1 is not None and self.c2 is not None and not self.c1 > self.c2:
            raise ValueError(f"need c1 > c2, got {self.c1} <= {self.c2}")


def _check_range(name: str, value: float, lo: float, hi: float) -> None:
    if not lo < value < hi:
        raise ValueError(f"{name} must lie in ({lo}, {hi}), got {value}")


def _pow(s: float, p: float) -> float:
    """s ** p, or inf past the float range, where exp(-c s^p) is exactly 0."""
    try:
        return s ** p
    except OverflowError:
        return math.inf


def _lower_tail_terms(s: float, T: float, eps: float, delta: float, K: float):
    """The three summands of the general lower-tail envelope."""
    t13 = T ** (1.0 / 3.0)
    e1 = t13 * 4.0 * (1.0 - eps) * _pow(s, 2.5) / (15.0 * math.pi)
    e2 = K * _pow(s, 3.0 - delta) + eps * s * t13
    e3 = (1.0 - eps) * _pow(s, 3) / 12.0
    return (math.exp(-e1), math.exp(-e2), math.exp(-e3))


def lower_tail_upper_general(s: float, T: float, eps: float, delta: float,
                             K: float = DEFAULT_CONSTANTS["K"]) -> BoundResult:
    """Upper envelope for the lower tail P(h(0) <= -s), general initial data.

    Three-term sum exp(-T^(1/3) 4(1-eps) s^(5/2) / (15 pi))
    + exp(-K s^(3-delta) - eps s T^(1/3)) + exp(-(1-eps) s^3 / 12).
    The regime label reports which summand dominates.
    """
    _check_range("eps", eps, 0.0, 1.0 / 3.0)
    _check_range("delta", delta, 0.0, 1.0 / 3.0)
    if K <= 0:
        raise ValueError("K must be positive")
    if s <= 0 or T <= 0:
        raise ValueError("s and T must be positive")
    terms = _lower_tail_terms(s, T, eps, delta, K)
    regime = LOWER_TAIL_REGIMES[max(range(3), key=lambda i: terms[i])]
    return BoundResult(value=sum(terms), regime=regime)


def nw_lower_tail(s: float, T: float, eps: float, delta: float,
                  K1: float = DEFAULT_CONSTANTS["K1"],
                  K2: float = DEFAULT_CONSTANTS["K2"]) -> BoundResult:
    """Narrow-wedge lower tail, two-sided.

    value is the same three-term sum with constant K1; value_lower is
    exp(-T^(1/3) 4 s^(5/2) (1+eps) / (15 pi)) + exp(-K2 s^3).
    """
    upper = lower_tail_upper_general(s, T, eps, delta, K1)
    if K2 <= 0:
        raise ValueError("K2 must be positive")
    t13 = T ** (1.0 / 3.0)
    lo = (math.exp(-t13 * 4.0 * _pow(s, 2.5) * (1.0 + eps) / (15.0 * math.pi))
          + math.exp(-K2 * _pow(s, 3)))
    return BoundResult(value=upper.value, regime=upper.regime, value_lower=lo)


def _regime(s: float, T: float, s0: float, lo: float, hi: float) -> str:
    """Regime label i/ii/iii for the upper-tail coefficient statements.

    Regime i for s < lo, regime ii for s >= hi (ties at hi belong to ii,
    the printed interval being closed there), iii between.  T <= pi (or s
    below s0) has no coefficient statement and maps to "none".
    """
    if T <= math.pi or s < s0:
        return "none"
    if s >= hi:
        return "ii"
    if s < lo:
        return "i"
    return "iii"


def _vacuous(T: float) -> BoundResult:
    """The regime "none" result: no coefficient statement applies."""
    note = NOTE_SMALL_T if T <= math.pi else NOTE_BELOW_S0
    return BoundResult(value=math.inf, regime="none", value_lower=0.0,
                       validity_note=f"{NOTE_CONSTANTS}; {note}")


def _upper_tail_pair(s: float, regime: str, c1: float,
                     c2: float) -> BoundResult:
    """The pair e^(-c1 s^(3/2)) <= P <= e^(-c2 s^(3/2))."""
    s32 = _pow(s, 1.5)
    return BoundResult(value=math.exp(-c2 * s32), regime=regime, c1=c1, c2=c2,
                       value_lower=math.exp(-c1 * s32))


def nw_upper_tail(s: float, T: float, eps: float,
                  s0: float = DEFAULT_CONSTANTS["s0"]) -> BoundResult:
    """Narrow-wedge upper tail: e^(-c1 s^(3/2)) <= P(upsilon(0) >= s)
    <= e^(-c2 s^(3/2)) with regime-dependent coefficients.

    i:   c1 = (4/3)(1+eps),  c2 = (4/3)(1-eps)
    ii:  c1 = 4 sqrt(3)(1+eps), c2 = (4/3)(1-eps)
    iii: c1 = 2^(7/2) eps^(-3), c2 = (4/3) eps
    """
    _check_range("eps", eps, 0.0, 0.5)
    t23 = T ** (2.0 / 3.0)
    regime = _regime(s, T, s0, eps**2 * t23 / 8.0, (9.0 / 16.0) * t23 / eps**2)
    if regime == "none":
        return _vacuous(T)
    if regime == "i":
        c1, c2 = (4.0 / 3.0) * (1.0 + eps), (4.0 / 3.0) * (1.0 - eps)
    elif regime == "ii":
        c1, c2 = 4.0 * math.sqrt(3.0) * (1.0 + eps), (4.0 / 3.0) * (1.0 - eps)
    else:
        c1, c2 = 2.0**3.5 / eps**3, (4.0 / 3.0) * eps
    return _upper_tail_pair(s, regime, c1, c2)


def general_upper_tail(s: float, T: float, eps: float, mu: float,
                       s0: float = DEFAULT_CONSTANTS["s0"]) -> BoundResult:
    """Upper tail for general initial data, two-sided coefficient pair.

    The regime thresholds carry the (1 - 2 mu/3)^(-1) factor, and regime i
    uses eps^3 in place of eps^2.

    i:   c1 = (8/3)(1+mu)(1+eps),   c2 = (sqrt(2)/3)(1-mu)(1-eps)
    ii:  c1 = 8 sqrt(3)(1+mu)(1+eps), c2 as in i
    iii: c1 = 2^(9/2) eps^(-3) (1+mu), c2 = (sqrt(2)/3)(1-mu) eps
    """
    _check_range("eps", eps, 0.0, 0.5)
    _check_range("mu", mu, 0.0, 0.5)
    t23 = T ** (2.0 / 3.0)
    fac = 1.0 / (1.0 - 2.0 * mu / 3.0)
    regime = _regime(s, T, s0, eps**3 * fac * t23 / 8.0,
                     (9.0 / 16.0) * fac * t23 / eps**2)
    if regime == "none":
        return _vacuous(T)
    root2_3 = math.sqrt(2.0) / 3.0
    if regime == "i":
        c1 = (8.0 / 3.0) * (1.0 + mu) * (1.0 + eps)
        c2 = root2_3 * (1.0 - mu) * (1.0 - eps)
    elif regime == "ii":
        c1 = 8.0 * math.sqrt(3.0) * (1.0 + mu) * (1.0 + eps)
        c2 = root2_3 * (1.0 - mu) * (1.0 - eps)
    else:
        c1 = 2.0**4.5 / eps**3 * (1.0 + mu)
        c2 = root2_3 * (1.0 - mu) * eps
    return _upper_tail_pair(s, regime, c1, c2)


def brownian_upper_tail(s: float, T: float, eps: float, mu: float,
                        s0: float = DEFAULT_CONSTANTS["s0"]) -> BoundResult:
    """Upper tail for Brownian initial data.

    Lower envelope e^(-c1 s^(3/2)); upper envelope e^(-c2 s^(3/2))
    + e^(-(mu s)^(3/2)/(9 sqrt 3)), coefficients from the general-data
    regimes.
    """
    base = general_upper_tail(s, T, eps, mu, s0=s0)
    if base.regime == "none":
        return base
    extra = math.exp(-_pow(mu * s, 1.5) / (9.0 * math.sqrt(3.0)))
    return BoundResult(value=base.value + extra, regime=base.regime,
                       c1=base.c1, c2=base.c2, value_lower=base.value_lower,
                       validity_note=base.validity_note)


def nw_upper_laplace_bounds(s: float, T: float, eps: float,
                            zeta: float) -> BoundResult:
    """The Laplace-functional route to the narrow-wedge upper tail.

    value       = e^(-T^(1/3) zeta s) + e^(-(4/3)(1-eps) s^(3/2))
    value_lower = e^(-T^(1/3)(1+zeta) s) + e^(-(4/3)(1+eps) s^(3/2))
    Requires 0 < zeta <= eps < 1.
    """
    if not 0.0 < zeta <= eps < 1.0:
        raise ValueError(f"need 0 < zeta <= eps < 1, got zeta={zeta}, eps={eps}")
    t13 = T ** (1.0 / 3.0)
    s32 = _pow(s, 1.5)
    upper = math.exp(-t13 * zeta * s) + math.exp(-(4.0 / 3.0) * (1.0 - eps) * s32)
    lower = (math.exp(-t13 * (1.0 + zeta) * s)
             + math.exp(-(4.0 / 3.0) * (1.0 + eps) * s32))
    return BoundResult(value=upper, regime="none", value_lower=lower)


@dataclass(frozen=True)
class _Family:
    """One theorem family: the tail it bounds and its envelope."""

    side: Optional[str]  # "lower", "upper", or None (no tail probability)
    envelope: Callable  # (query, constants) -> BoundResult


def _general_lower(q, c) -> BoundResult:
    return lower_tail_upper_general(q.s, q.T, q.eps, q.delta, c["K"])


# the theorem table; its order is the row order of bounds.csv
_FAMILIES = {
    "general_lower": _Family("lower", _general_lower),
    "nw_lower": _Family("lower", lambda q, c: nw_lower_tail(
        q.s, q.T, q.eps, q.delta, c["K1"], c["K2"])),
    "nw_upper": _Family("upper", lambda q, c: nw_upper_tail(
        q.s, q.T, q.eps, s0=c["s0"])),
    "general_upper": _Family("upper", lambda q, c: general_upper_tail(
        q.s, q.T, q.eps, q.mu, s0=c["s0"])),
    # term for term the general-data envelope
    "brownian_lower": _Family("lower", _general_lower),
    "brownian_upper": _Family("upper", lambda q, c: brownian_upper_tail(
        q.s, q.T, q.eps, q.mu, s0=c["s0"])),
    "nw_upper_laplace": _Family(None, lambda q, c: nw_upper_laplace_bounds(
        q.s, q.T, q.eps, q.zeta)),
}


@dataclass(frozen=True)
class BoundQuery:
    """Envelope request: theorem family, tail location, and parameters."""

    theorem: str
    s: float
    T: float
    eps: float = 0.1
    delta: float = 0.1
    mu: float = 0.1
    zeta: float = 0.1
    constants: dict = field(default_factory=lambda: dict(DEFAULT_CONSTANTS))

    THEOREMS = tuple(_FAMILIES)

    def __post_init__(self) -> None:
        if self.theorem not in self.THEOREMS:
            raise ValueError(f"unknown theorem family {self.theorem!r}")
        if not all(math.isfinite(v) and v > 0 for v in (self.s, self.T)):
            raise ValueError(
                f"s and T must be finite and positive, got s={self.s}, T={self.T}")
        if not all(math.isfinite(v) for v in self.constants.values()):
            raise ValueError(f"constants must be finite, got {self.constants}")

    @property
    def side(self) -> Optional[str]:
        """The tail of the scaled height the family bounds, if any."""
        return _FAMILIES[self.theorem].side


def evaluate_query(q: BoundQuery) -> BoundResult:
    """Evaluate a BoundQuery's envelope through the theorem table.

    value bounds the family's quantity from above; value_lower bounds it
    from below when the statement is two-sided.
    """
    return _FAMILIES[q.theorem].envelope(q, {**DEFAULT_CONSTANTS, **q.constants})
