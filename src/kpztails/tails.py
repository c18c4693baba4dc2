"""Exact binomial tail estimation and envelope-violation verdicts.

bound_violation_report takes one sample of a scaled height and the
queries to judge it against.  For each query it counts the sample's hits
on the tail the theorem table in bounds gives for the family ({X <= -s}
for a lower tail, {X >= s} for an upper tail) and reports the tail
probability with a Clopper-Pearson interval (normal approximations are
useless near 0, which is where tail checks live).  Verdicts compare the
interval against a theorem envelope clamped to [0, 1]:

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
    "CellVerdict",
    "clopper_pearson",
    "bound_violation_report",
    "MIN_EXPECTED_HITS",
]

CONSISTENT = "CONSISTENT"
VIOLATION = "VIOLATION"
UNTESTABLE = "UNTESTABLE-AT-SCALE"

MIN_EXPECTED_HITS = 10.0


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


def _clamp01(v: float) -> float:
    return min(max(v, 0.0), 1.0)


def _judge(direction: str, env: float, lo: float, hi: float, n: int):
    # a decisive contradiction outranks the depth label: an interval that
    # clears the envelope is evidence no matter how few hits were expected
    violated = (lo > env) if direction == "upper" else (hi < env)
    if violated:
        verdict = VIOLATION
    elif n * env < MIN_EXPECTED_HITS:
        verdict = UNTESTABLE
    else:
        verdict = CONSISTENT
    slack = (env - lo) if direction == "upper" else (hi - env)
    return verdict, slack


def bound_violation_report(
    samples,
    queries: Sequence[BoundQuery],
    alpha: float = 0.01,
    check_lower: bool = False,
) -> list:
    """Judge one 1-d sample against each query's theorem envelopes.

    Each query's hits are counted on its family's tail side, with both
    thresholds inclusive, and carry a (1 - alpha) Clopper-Pearson interval.
    By default only the upper envelopes (claims P <= env) are judged: the
    lower envelopes are asymptotic statements whose unit-constant versions
    fail at desk-scale s, so they are opt-in via check_lower and reported,
    never silently dropped.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("samples must be a nonempty 1-d array")
    n = int(x.size)
    out = []
    for q in queries:
        side = q.side
        if side is None:
            raise ValueError(
                f"{q.theorem} is not a tail-probability statement")
        hits = int(np.sum(x <= -q.s) if side == "lower" else np.sum(x >= q.s))
        lo, hi = clopper_pearson(hits, n, alpha)
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
                verdict, slack = _judge(direction, env, lo, hi, n)
                out.append(CellVerdict(
                    theorem=q.theorem, direction=direction, s=q.s, T=q.T,
                    side=side, envelope_raw=float(raw), envelope=env,
                    estimate=hits / n, ci_lo=lo, ci_hi=hi, n=n,
                    hits=hits, verdict=verdict, slack=slack,
                    regime=res.regime))
    return out
