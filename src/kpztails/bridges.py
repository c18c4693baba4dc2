"""Brownian bridges, the bridge-minimum law, and the soft-wall Gibbs resampler.

A single path on [a, b] pinned at (a, x) and (b, y) plays the role of the top
curve of a line ensemble.  Conditional on a lower curve g, the curve is
reweighted against the free bridge law by the Radon-Nikodym weight

    W = exp(-int_a^b H_T(g(u) - L(u)) du),    H_T(x) = exp(T^{1/3} x),

with the convention H_T(-inf) = 0, so an absent lower curve leaves the free
bridge untouched.  Because the integrand is nonnegative, W lies in (0, 1]
and rejection sampling against free-bridge proposals is exact (up to the
trapezoid discretization of the integral).

A bridge from x to y over length L dips below m <= min(x, y) with
probability exp(-2 (x-m)(y-m) / L), hence below min(x,y) - s with
probability at most exp(-2 s^2 / L).  Its Monte Carlo companion uses the
standard per-segment crossing correction: conditionally on the sampled
grid values, each segment of a Brownian path crosses a linear barrier
with an explicit probability, which removes the discretization bias of a
plain grid minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BridgeSpec",
    "GibbsSpec",
    "GibbsResult",
    "DominanceReport",
    "sample_bridge",
    "bridge_min_tail",
    "bridge_min_tail_mc",
    "gibbs_resample",
    "dominance_test",
]

_THIRD = 1.0 / 3.0
_MIN_ACCEPT_RATE = 1e-4
_MIN_ACCEPT_PROPOSALS = 10**6
# paths per batch of bridge_min_tail_mc and, at most, of gibbs_resample
_MC_CHUNK = 10**5
_GIBBS_CHUNK = 2 * 10**4
# quantile points at which dominance_test compares the two CDFs
_DOMINANCE_GRID = 21


@dataclass(frozen=True)
class BridgeSpec:
    """Single bridge on [a, b] from (a, x) to (b, y), sampled on a uniform grid.

    The step is snapped so that (b - a) is an integer number of steps.
    """

    a: float
    b: float
    x: float
    y: float
    step: float = 1.0 / 64.0

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError("need a < b")
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("entrance and exit values must be finite")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def n_steps(self) -> int:
        return max(1, round(self.length / self.step))

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n_steps + 1)


def _sample_bridges(spec: BridgeSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent bridge paths, shape (n, n_steps + 1), endpoints exact."""
    m = spec.n_steps
    dt = spec.length / m
    incr = rng.standard_normal((n, m)) * math.sqrt(dt)
    w = np.concatenate([np.zeros((n, 1)), np.cumsum(incr, axis=1)], axis=1)
    frac = np.linspace(0.0, 1.0, m + 1)
    paths = spec.x + w - frac * (w[:, -1:] - (spec.y - spec.x))
    paths[:, 0] = spec.x
    paths[:, -1] = spec.y
    return paths


def sample_bridge(spec: BridgeSpec, seed: int, n: int) -> np.ndarray:
    """n bridge paths stacked row-wise, shape (n, n_steps + 1)."""
    return _sample_bridges(spec, np.random.default_rng(seed), int(n))


def bridge_min_tail(x: float, y: float, L: float, s: float) -> tuple[float, float]:
    """(exact, upper) for P(inf of the bridge <= min(x, y) - s).

    exact = exp(-2 (x-m)(y-m)/L) with m = min(x,y) - s, valid because
    m <= min(x, y); upper = exp(-2 s^2 / L) >= exact always.
    """
    if not L > 0.0:
        raise ValueError("L must be positive")
    if s < 0.0:
        raise ValueError("s must be >= 0")
    m = min(x, y) - s
    exact = math.exp(-2.0 * (x - m) * (y - m) / L)
    upper = math.exp(-2.0 * s * s / L)
    return exact, upper


def _segment_lower_crossing(paths: np.ndarray, barrier: np.ndarray, dt) -> np.ndarray:
    """Per-path probability that a piecewise Brownian path dips below a
    (piecewise linear) lower barrier, given the grid values.

    Conditionally on endpoints above the barrier, each segment crosses with
    probability exp(-2 (a - u_a)(b - u_b) / dt); endpoints at or below the
    barrier cross surely.  Segments are conditionally independent.
    """
    ga = paths[:, :-1] - barrier[:-1]
    gb = paths[:, 1:] - barrier[1:]
    with np.errstate(over="ignore"):
        p_seg = np.where((ga > 0) & (gb > 0),
                         np.exp(-2.0 * np.maximum(ga, 0) * np.maximum(gb, 0) / dt),
                         1.0)
    no_cross = np.prod(1.0 - p_seg, axis=1)
    return 1.0 - no_cross


def bridge_min_tail_mc(
    x: float,
    y: float,
    L: float,
    s: float,
    n: int = 10**5,
    seed: int = 0,
    n_steps: int = 64,
) -> tuple[float, float]:
    """Unbiased Monte Carlo companion of bridge_min_tail: (estimate, se).

    Estimates P(inf B <= min(x,y) - s) by averaging, over sampled grid
    paths, the exact conditional crossing probability of the level
    m = min(x,y) - s (per-segment correction; no discretization bias).
    """
    if s < 0.0:
        raise ValueError("s must be >= 0")
    spec = BridgeSpec(a=0.0, b=L, x=x, y=y, step=L / n_steps)
    m = min(x, y) - s
    barrier = np.full(spec.n_steps + 1, m)
    dt = L / spec.n_steps
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n:
        take = min(_MC_CHUNK, n - done)
        paths = _sample_bridges(spec, rng, take)
        p = _segment_lower_crossing(paths, barrier, dt)
        total += float(np.sum(p))
        total_sq += float(np.sum(p * p))
        done += take
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


@dataclass(frozen=True)
class GibbsSpec:
    """Single-curve soft-wall specification: free bridge reweighted by the
    lower curve g through W = exp(-int H_T(g - L)).

    lower_curve is a constant wall level g, finite or -inf (no wall, the
    default).  The upper neighbor is +inf (its interaction term vanishes
    identically).
    """

    bridge: BridgeSpec
    T: float
    lower_curve: float = -math.inf

    def __post_init__(self) -> None:
        if not self.T > 0.0:
            raise ValueError("T must be positive")
        g = self.lower_curve
        if g is None or math.isnan(g) or g == math.inf:
            raise ValueError("lower_curve must be finite or -inf")


@dataclass(frozen=True)
class GibbsResult:
    """Accepted paths with acceptance statistics."""

    paths: np.ndarray
    grid: np.ndarray
    n_proposals: int
    n_accepted: int
    mean_weight: float
    max_weight: float

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_proposals if self.n_proposals else 0.0


def _gibbs_weights(spec: GibbsSpec, paths: np.ndarray) -> np.ndarray:
    """W = exp(-trapezoid of H_T(g - L)) per path; W in (0, 1]."""
    grid = spec.bridge.grid
    with np.errstate(over="ignore"):
        h = np.exp(spec.T**_THIRD * (spec.lower_curve - paths))
        integral = np.trapezoid(h, grid, axis=1)
        w = np.exp(-integral)
    return w


def gibbs_resample(
    spec: GibbsSpec,
    seed: int,
    n: int = 1,
) -> GibbsResult:
    """Draw n paths from the soft-wall Gibbs law by rejection sampling.

    Proposals are free bridges; each is accepted with probability equal to
    its weight W <= 1, which makes accepted paths exact draws (up to the
    trapezoid discretization of the interaction integral).  If after 10^6
    proposals the running acceptance rate is below 10^{-4}, the boundary
    data is declared too constraining and a RuntimeError with diagnostics
    is raised.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    accepted: list[np.ndarray] = []
    n_acc = 0
    n_prop = 0
    w_sum = 0.0
    w_max = 0.0
    while n_acc < n:
        take = min(_GIBBS_CHUNK, max(1024, 2 * (n - n_acc)))
        paths = _sample_bridges(spec.bridge, rng, take)
        w = _gibbs_weights(spec, paths)
        u = rng.random(take)
        keep = u < w
        n_prop += take
        n_acc += int(np.sum(keep))
        w_sum += float(np.sum(w))
        w_max = max(w_max, float(np.max(w)))
        if np.any(keep):
            accepted.append(paths[keep])
        if n_prop >= _MIN_ACCEPT_PROPOSALS and n_acc < _MIN_ACCEPT_RATE * n_prop:
            raise RuntimeError(
                "boundary too constraining: acceptance rate "
                f"{n_acc / n_prop:.3g} after {n_prop} proposals "
                f"(mean weight {w_sum / n_prop:.3g}, max weight {w_max:.3g})")
    paths = np.concatenate(accepted, axis=0)[:n]
    return GibbsResult(paths=paths, grid=spec.bridge.grid, n_proposals=n_prop,
                       n_accepted=n_acc, mean_weight=w_sum / n_prop,
                       max_weight=w_max)


@dataclass(frozen=True)
class DominanceReport:
    """First-order stochastic dominance check of midpoint marginals.

    passed means F_B(t) >= F_A(t) - 3 SE(t) across the grid: the Gibbs spec with
    lower boundary data produces stochastically smaller midpoints.
    """

    passed: bool
    max_deficit: float
    worst_t: float
    grid: np.ndarray
    cdf_a: np.ndarray
    cdf_b: np.ndarray
    n: int


def _boundary_leq(spec_b: GibbsSpec, spec_a: GibbsSpec) -> bool:
    return (spec_b.bridge.x <= spec_a.bridge.x
            and spec_b.bridge.y <= spec_a.bridge.y
            and spec_b.lower_curve <= spec_a.lower_curve)


def dominance_test(
    spec_a: GibbsSpec,
    spec_b: GibbsSpec,
    n: int = 10**5,
    seed: int = 0,
) -> DominanceReport:
    """Check that spec_b (pointwise-lower boundary data) yields midpoint
    marginals stochastically below spec_a's.

    Both specs must share the interval, grid, and T.  The check compares
    empirical CDFs on a quantile grid of the pooled samples: dominance in
    law means F_B >= F_A pointwise, and the test allows a 3-standard-error
    slack on each grid point.
    """
    if (spec_a.bridge.a, spec_a.bridge.b, spec_a.bridge.n_steps) != (
            spec_b.bridge.a, spec_b.bridge.b, spec_b.bridge.n_steps):
        raise ValueError("specs must share the interval and grid")
    if spec_a.T != spec_b.T:
        raise ValueError("specs must share T")
    if not _boundary_leq(spec_b, spec_a):
        raise ValueError("spec_b boundary data must lie pointwise below spec_a's")

    mid = spec_a.bridge.n_steps // 2
    samp_a = gibbs_resample(spec_a, seed=seed, n=n).paths[:, mid]
    samp_b = gibbs_resample(spec_b, seed=seed + 1, n=n).paths[:, mid]
    pooled = np.concatenate([samp_a, samp_b])
    grid = np.quantile(pooled, np.linspace(0.02, 0.98, _DOMINANCE_GRID))
    cdf_a = np.searchsorted(np.sort(samp_a), grid, side="right") / n
    cdf_b = np.searchsorted(np.sort(samp_b), grid, side="right") / n
    se = np.sqrt(cdf_a * (1.0 - cdf_a) / n + cdf_b * (1.0 - cdf_b) / n)
    deficit = cdf_a - cdf_b - 3.0 * se  # positive means dominance violated
    worst = int(np.argmax(deficit))
    return DominanceReport(
        passed=bool(np.all(deficit <= 0.0)),
        max_deficit=float(deficit[worst]),
        worst_t=float(grid[worst]),
        grid=grid,
        cdf_a=cdf_a,
        cdf_b=cdf_b,
        n=n,
    )
