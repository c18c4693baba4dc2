"""Exact binomial tail estimation and envelope-violation verdicts.

Every Monte Carlo tail probability is reported with a Clopper-Pearson
interval (normal approximations are useless near 0, which is where tail
checks live).  Verdicts compare the interval against a theorem envelope
clamped to [0, 1]:

    upper-bound claim P <= env   violated iff  ci_lo > env
    lower-bound claim P >= env   violated iff  ci_hi < env

Cells whose envelope cannot produce 10 expected hits at the given sample
size are labeled UNTESTABLE-AT-SCALE instead of silently passing: vanilla
Monte Carlo cannot see that far into the tail.  A decisive contradiction
(the whole interval on the wrong side of the envelope) is still reported
as VIOLATION even in that regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import betaincinv

from .bounds import BoundQuery, evaluate_query

__all__ = [
    "TailEstimate",
    "CellVerdict",
    "mc_tail",
    "clopper_pearson",
    "bound_violation_report",
    "THEOREM_TAIL_SIDE",
    "MIN_EXPECTED_HITS",
]

CONSISTENT = "CONSISTENT"
VIOLATION = "VIOLATION"
UNTESTABLE = "UNTESTABLE-AT-SCALE"

MIN_EXPECTED_HITS = 10.0

# which tail of the scaled height each theorem family talks about
THEOREM_TAIL_SIDE = {
    "general_lower": "lower",
    "nw_lower": "lower",
    "brownian_lower": "lower",
    "nw_upper": "upper",
    "general_upper": "upper",
    "brownian_upper": "upper",
}


def clopper_pearson(hits: int, n: int, alpha: float = 0.01):
    """Exact binomial (1 - alpha) interval for a proportion.

    "Exact" names the Clopper-Pearson method (beta quantiles, coverage at
    least 1 - alpha).  The quantiles come from ``scipy.special.betaincinv``,
    the routine behind ``scipy.stats.beta.ppf``, called directly so that
    importing this module does not load ``scipy.stats``; the endpoints are
    as accurate as that routine (a few ULP), not bit-reproducible across
    scipy versions.
    """
    if not 0 <= hits <= n:
        raise ValueError("hits must lie in [0, n]")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    lo = 0.0 if hits == 0 else float(betaincinv(hits, n - hits + 1,
                                                alpha / 2.0))
    hi = 1.0 if hits == n else float(betaincinv(hits + 1, n - hits,
                                                1.0 - alpha / 2.0))
    return lo, hi


@dataclass(frozen=True)
class TailEstimate:
    """Empirical tail probability with an exact binomial interval.

    side "lower" counts events {X <= -s}; side "upper" counts {X >= s}.
    """

    s: float
    side: str
    n: int
    hits: int
    alpha: float = 0.01

    def __post_init__(self) -> None:
        if self.side not in ("lower", "upper"):
            raise ValueError("side must be 'lower' or 'upper'")
        if self.n < 1:
            raise ValueError("need at least one sample")
        if not 0 <= self.hits <= self.n:
            raise ValueError("hits must lie in [0, n]")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")

    @property
    def estimate(self) -> float:
        return self.hits / self.n

    @property
    def ci(self):
        return clopper_pearson(self.hits, self.n, self.alpha)


def mc_tail(samples, s: float, side: str, alpha: float = 0.01) -> TailEstimate:
    """Count tail events in a 1-d sample and wrap the exact interval."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("samples must be a nonempty 1-d array")
    if side == "lower":
        hits = int(np.sum(x <= -s))
    elif side == "upper":
        hits = int(np.sum(x >= s))
    else:
        raise ValueError("side must be 'lower' or 'upper'")
    return TailEstimate(s=s, side=side, n=int(x.size), hits=hits, alpha=alpha)


@dataclass(frozen=True)
class CellVerdict:
    """Outcome of one (estimate, theorem-envelope) comparison."""

    theorem: str
    direction: str  # "upper": claim P <= envelope; "lower": claim P >= envelope
    s: float
    T: float
    side: str
    envelope_raw: float
    envelope: float
    estimate: float
    ci_lo: float
    ci_hi: float
    n: int
    hits: int
    verdict: str
    slack: float
    regime: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict != VIOLATION


def _clamp01(v: float) -> float:
    return min(max(v, 0.0), 1.0)


def _judge(direction: str, env: float, est: TailEstimate):
    # a decisive contradiction outranks the depth label: an interval that
    # clears the envelope is evidence no matter how few hits were expected
    lo, hi = est.ci
    violated = (lo > env) if direction == "upper" else (hi < env)
    if violated:
        verdict = VIOLATION
    elif est.n * env < MIN_EXPECTED_HITS:
        verdict = UNTESTABLE
    else:
        verdict = CONSISTENT
    slack = (env - lo) if direction == "upper" else (hi - env)
    return verdict, slack, lo, hi


def bound_violation_report(
    estimates: Sequence[TailEstimate],
    queries: Sequence[BoundQuery],
    check_lower: bool = False,
) -> list:
    """Compare tail estimates against the paired theorems' envelopes.

    estimates[i] is checked against queries[i]; the estimate's (s, side)
    must match the query.  By default only the upper envelopes (claims
    P <= env) are judged: the lower envelopes are asymptotic statements
    whose unit-constant versions fail at desk-scale s, so they are opt-in
    via check_lower and reported, never silently dropped.
    """
    if len(estimates) != len(queries):
        raise ValueError(
            f"got {len(estimates)} estimates but {len(queries)} queries")
    out = []
    for est, q in zip(estimates, queries):
        side = THEOREM_TAIL_SIDE.get(q.theorem)
        if side is None:
            raise ValueError(
                f"{q.theorem} is not a tail-probability statement")
        if est.side != side:
            raise ValueError(
                f"estimate side {est.side!r} does not match {q.theorem}")
        if est.s != q.s:
            raise ValueError(
                f"estimate at s = {est.s:g} paired with query at s = {q.s:g}")
        for label, res in evaluate_query(q):
            checks = []
            if label in ("upper", "two_sided"):
                checks.append(("upper", res.value))
            if check_lower:
                if label == "lower":
                    checks.append(("lower", res.value))
                elif label == "two_sided" and res.value_lower is not None:
                    checks.append(("lower", res.value_lower))
            for direction, raw in checks:
                env = _clamp01(raw)
                verdict, slack, lo, hi = _judge(direction, env, est)
                out.append(CellVerdict(
                    theorem=q.theorem, direction=direction, s=q.s, T=q.T,
                    side=side, envelope_raw=float(raw), envelope=env,
                    estimate=est.estimate, ci_lo=lo, ci_hi=hi, n=est.n,
                    hits=est.hits, verdict=verdict, slack=slack,
                    regime=res.regime))
    return out
