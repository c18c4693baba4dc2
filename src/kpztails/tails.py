"""Exact binomial tail estimation and envelope-violation verdicts.

bound_violation_report takes one sample of a scaled height and the
queries to judge it against.  For each query it counts the sample's hits
on the tail the theorem table in bounds gives for the family ({X <= -s}
for a lower tail, {X >= s} for an upper tail) and reports the tail
probability with a Clopper-Pearson interval (normal approximations are
useless near 0, which is where tail checks live).  Each query gets one
verdict on its family's claim P <= env, with env = evaluate_query(q).value
clamped to [0, 1]:

    claim P <= env   violated iff  ci_lo > env

The lower bound of a two-sided statement (value_lower) is not judged: its
unit-constant version is an asymptotic statement that fails at desk-scale
s.

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
# every verdict a cell can get; the summaries count each of them
VERDICTS = (CONSISTENT, VIOLATION, UNTESTABLE)

MIN_EXPECTED_HITS = 10.0


def clopper_pearson(hits: int, n: int, alpha: float = 0.01):
    """Exact binomial (1 - alpha) interval for a proportion.

    "Exact" names the Clopper-Pearson method (beta quantiles, coverage at
    least 1 - alpha).  The quantiles come from ``scipy.special.betaincinv``,
    the routine behind ``scipy.stats.beta.ppf``, called directly so that
    a call does not load ``scipy.stats``; the endpoints are as accurate as
    that routine (a few ULP), not bit-reproducible across scipy versions.
    """
    # imported here so that importing kpztails does not load scipy
    from scipy.special import betaincinv

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
    """Outcome of one query's claim P <= envelope on one sample."""

    theorem: str
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


def _judge(env: float, lo: float, n: int) -> str:
    # a decisive contradiction outranks the depth label: an interval that
    # clears the envelope is evidence no matter how few hits were expected
    if lo > env:
        return VIOLATION
    if n * env < MIN_EXPECTED_HITS:
        return UNTESTABLE
    return CONSISTENT


def bound_violation_report(
    samples,
    queries: Sequence[BoundQuery],
    alpha: float = 0.01,
) -> list:
    """Judge one 1-d sample against each query's theorem envelope.

    Each query's hits are counted on its family's tail side, with both
    thresholds inclusive, and carry a (1 - alpha) Clopper-Pearson interval;
    each query gives one verdict, in query order.
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
        res = evaluate_query(q)
        env = _clamp01(res.value)
        out.append(CellVerdict(
            theorem=q.theorem, s=q.s, T=q.T, side=side,
            envelope_raw=float(res.value), envelope=env, estimate=hits / n,
            ci_lo=lo, ci_hi=hi, n=n, hits=hits,
            verdict=_judge(env, lo, n), slack=env - lo, regime=res.regime))
    return out
