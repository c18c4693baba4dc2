"""Brownian bridges, the bridge-minimum law, and the soft-wall Gibbs resampler.

A single path on [a, b] pinned at (a, x) and (b, y) plays the role of the top
curve of a line ensemble.  Conditional on a lower curve g, the curve is
reweighted against the free bridge law by the Radon-Nikodym weight

    W = exp(-int_a^b H_T(g(u) - L(u)) du),    H_T(x) = exp(T^{1/3} x),

with the convention H_T(-inf) = 0, so an absent lower curve leaves the free
bridge untouched: gibbs_resample with no wall accepts every proposal and
returns free bridges.  Because the integrand is nonnegative, W lies in
(0, 1] and rejection sampling against free-bridge proposals is exact (up to
the trapezoid discretization of the integral).

A bridge from x to y over length L dips below m <= min(x, y) with
probability exp(-2 (x-m)(y-m) / L), hence below min(x,y) - s with
probability at most exp(-2 s^2 / L).  Its Monte Carlo companion uses the
standard per-segment crossing correction: conditionally on the sampled
grid values, each segment of a Brownian path crosses a linear barrier
with an explicit probability, which removes the discretization bias of a
plain grid minimum.

Both samplers here run one pipeline (_PathKernel).  The calling thread
draws each batch's standard normals from the one default_rng stream, in
row order, one block of _BLOCK_ROWS rows at a time, into two blocks it
alternates between.  One worker thread turns each block, in place, into
bridge paths and then into Gibbs weights or crossing probabilities, while
the calling thread draws the next block; a Gibbs batch's uniforms are
drawn after its last block of normals.  The outputs do not depend on the
block size, bit for bit: standard_normal fills sequentially, so blocks of
it are the draws of one whole-batch call; every other step acts row by
row, with the same ufuncs in the same order as a whole-batch computation;
the row reductions (cumsum, sum, prod) read contiguous rows; and each
batch's sums over paths run over one batch-sized array.  Memory is one
batch of Gibbs proposals (up to 20,000 paths, 10 MB at 64 steps) written
in place, plus three row blocks of about 1 MB: two of normals and one of
worker scratch.  The Monte Carlo keeps no paths beyond one more row block,
and one batch of crossing probabilities.  The row steps work in place in
these buffers on purpose: the whole-batch expressions applied block by
block give the same bits, but their fresh 1 MB temporaries cost about
twenty times the page faults and make the Gibbs step no faster than one
whole-batch pass.
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
# grid steps of each bridge_min_tail_mc path
_MC_STEPS = 64
# rows per block of the path pipeline (_PathKernel): one block of normals
# is about 1 MB at 64 steps
_BLOCK_ROWS = 2048
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
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval ends must be finite")
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


def _scratch(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The first rows x cols entries of a flat scratch buffer, C-contiguous."""
    return buf[:rows * cols].reshape(rows, cols)


def _bridge_rows(spec: BridgeSpec, z: np.ndarray, paths: np.ndarray,
                 tmp: np.ndarray) -> None:
    """Write into paths (rows, n_steps + 1) the bridges whose increments are
    sqrt(dt) z, for standard normals z (rows, n_steps).

    Each path is W - frac (W_end - (y - x)) + x for the walk W of the
    increments, with both endpoints set exactly.  z is scaled in place and
    tmp, a C-contiguous (rows, n_steps + 1) block, is overwritten.
    """
    m = spec.n_steps
    np.multiply(z, math.sqrt(spec.length / m), out=z)
    paths[:, 0] = 0.0
    np.cumsum(z, axis=1, out=paths[:, 1:])
    shift = paths[:, -1:] - (spec.y - spec.x)
    np.multiply(np.linspace(0.0, 1.0, m + 1), shift, out=tmp)
    np.add(paths, spec.x, out=paths)
    np.subtract(paths, tmp, out=paths)
    paths[:, 0] = spec.x
    paths[:, -1] = spec.y


class _PathKernel:
    """The path pipeline of one call: normals drawn on the calling thread,
    rows finished on one worker thread.

    Its buffers are allocated once, on the calling thread: two blocks of
    normals that fill() alternates between, and one flat worker scratch
    block of (n_steps + 1) doubles per row that _scratch() reshapes.
    """

    def __init__(self, spec: BridgeSpec, max_rows: int) -> None:
        from concurrent.futures import ThreadPoolExecutor

        m = spec.n_steps
        self.block = max(1, min(_BLOCK_ROWS, max_rows))
        self.normals = (np.empty((self.block, m)), np.empty((self.block, m)))
        self.scratch = np.empty(self.block * (m + 1))
        self.pool = ThreadPoolExecutor(1, thread_name_prefix="bridges")

    def __enter__(self) -> "_PathKernel":
        return self

    def __exit__(self, *exc) -> None:
        self.pool.shutdown()

    def fill(self, rng: np.random.Generator, n_rows: int, finish) -> None:
        """Call finish(lo, hi, z) on the worker for the normals z of rows
        [lo, hi), for every block of rows of [0, n_rows) in order.

        The normals are drawn from rng in row order, so they are the draws
        of one rng.standard_normal((n_rows, n_steps)); while the worker
        finishes a block, this thread draws the next.  finish owns z until
        it returns and may overwrite it.  A worker error is raised here.
        """
        pending = None
        for k, lo in enumerate(range(0, n_rows, self.block)):
            hi = min(lo + self.block, n_rows)
            z = self.normals[k % 2][:hi - lo]
            rng.standard_normal(out=z)
            if pending is not None:
                pending.result()
            pending = self.pool.submit(finish, lo, hi, z)
        if pending is not None:
            pending.result()


def bridge_min_tail(x: float, y: float, L: float, s: float) -> tuple[float, float]:
    """(exact, upper) for P(inf of the bridge <= min(x, y) - s).

    exact = exp(-2 (x-m)(y-m)/L) with m = min(x,y) - s, valid because
    m <= min(x, y); upper = exp(-2 s^2 / L) >= exact always.
    """
    if not L > 0.0:
        raise ValueError("L must be positive")
    if not s >= 0.0:
        raise ValueError("s must be >= 0")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("entrance and exit values must be finite")
    m = min(x, y) - s
    exact = math.exp(-2.0 * (x - m) * (y - m) / L)
    upper = math.exp(-2.0 * s * s / L)
    return exact, upper


def _crossing_rows(paths: np.ndarray, level: float, dt: float, p: np.ndarray,
                   ga: np.ndarray, gb: np.ndarray, both: np.ndarray) -> None:
    """Write into p (rows,) the probability that each piecewise Brownian
    path of paths (rows, n_steps + 1) dips below the constant level, given
    its grid values.

    Conditionally on endpoints above the level, each segment crosses with
    probability exp(-2 (a - m)(b - m) / dt); endpoints at or below it cross
    surely.  Segments are conditionally independent.  ga, gb (rows, n_steps)
    C-contiguous and both, a boolean array of two such blocks, are
    overwritten.
    """
    np.subtract(paths[:, :-1], level, out=ga)
    np.subtract(paths[:, 1:], level, out=gb)
    above = np.greater(ga, 0, out=both[0])
    np.logical_and(above, np.greater(gb, 0, out=both[1]), out=above)
    with np.errstate(over="ignore"):
        np.maximum(ga, 0, out=ga)
        np.multiply(ga, -2.0, out=ga)
        np.maximum(gb, 0, out=gb)
        np.multiply(ga, gb, out=ga)
        np.divide(ga, dt, out=ga)
        np.exp(ga, out=ga)
    # 1 - P(segment crosses); a sure crossing leaves 1 - 1 = 0
    np.subtract(1.0, ga, out=ga)
    np.copyto(ga, 0.0, where=np.logical_not(above, out=above))
    np.prod(ga, axis=1, out=p)
    np.subtract(1.0, p, out=p)


def bridge_min_tail_mc(
    x: float,
    y: float,
    L: float,
    s: float,
    n: int = 10**5,
    seed: int = 0,
) -> tuple[float, float]:
    """Unbiased Monte Carlo companion of bridge_min_tail: (estimate, se).

    Estimates P(inf B <= min(x,y) - s) by averaging, over paths sampled
    on _MC_STEPS grid steps, the exact conditional crossing probability of
    the level m = min(x,y) - s (per-segment correction; no discretization
    bias).
    """
    if not s >= 0.0:
        raise ValueError("s must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    spec = BridgeSpec(a=0.0, b=L, x=x, y=y, step=L / _MC_STEPS)
    level = min(x, y) - s
    m = spec.n_steps
    dt = L / m
    rng = np.random.default_rng(seed)
    p_batch = np.empty(min(_MC_CHUNK, n))
    total = 0.0
    total_sq = 0.0
    done = 0
    with _PathKernel(spec, len(p_batch)) as kernel:
        path_block = np.empty(kernel.block * (m + 1))
        both = np.empty((2, kernel.block * m), dtype=bool)

        def finish(lo, hi, z):
            r = hi - lo
            paths = _scratch(path_block, r, m + 1)
            _bridge_rows(spec, z, paths, _scratch(kernel.scratch, r, m + 1))
            _crossing_rows(paths, level, dt, p_batch[lo:hi],
                           _scratch(kernel.scratch, r, m), z,
                           both[:, :r * m].reshape(2, r, m))

        while done < n:
            take = min(_MC_CHUNK, n - done)
            kernel.fill(rng, take, finish)
            p = p_batch[:take]
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
    n_proposals: int
    n_accepted: int
    mean_weight: float

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_proposals if self.n_proposals else 0.0


def _weight_rows(spec: GibbsSpec, paths: np.ndarray, w: np.ndarray,
                 h: np.ndarray, t: np.ndarray) -> None:
    """Write into w (rows,) the weights W = exp(-trapezoid of H_T(g - L)) of
    paths (rows, n_steps + 1); W in (0, 1].  h (rows, n_steps + 1) and
    t (rows, n_steps), both C-contiguous, are overwritten.
    """
    with np.errstate(over="ignore"):
        np.subtract(spec.lower_curve, paths, out=h)
        np.multiply(h, spec.T**_THIRD, out=h)
        np.exp(h, out=h)
        # np.trapezoid's steps: d (h_right + h_left) / 2 summed along the row
        np.add(h[:, 1:], h[:, :-1], out=t)
        np.multiply(t, np.diff(spec.bridge.grid), out=t)
        np.divide(t, 2.0, out=t)
        np.sum(t, axis=1, out=w)
        np.negative(w, out=w)
        np.exp(w, out=w)


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
    bridge = spec.bridge
    m = bridge.n_steps
    # batches never grow, so the first one sizes the buffers
    size = min(_GIBBS_CHUNK, max(1024, 2 * n))
    paths_batch = np.empty((size, m + 1))
    w_batch = np.empty(size)
    accepted: list[np.ndarray] = []
    n_acc = 0
    n_prop = 0
    w_sum = 0.0
    w_max = 0.0
    with _PathKernel(bridge, size) as kernel:
        def finish(lo, hi, z):
            r = hi - lo
            h = _scratch(kernel.scratch, r, m + 1)
            _bridge_rows(bridge, z, paths_batch[lo:hi], h)
            _weight_rows(spec, paths_batch[lo:hi], w_batch[lo:hi], h, z)

        while n_acc < n:
            take = min(_GIBBS_CHUNK, max(1024, 2 * (n - n_acc)))
            kernel.fill(rng, take, finish)
            paths = paths_batch[:take]
            w = w_batch[:take]
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
    return GibbsResult(paths=paths, n_proposals=n_prop, n_accepted=n_acc,
                       mean_weight=w_sum / n_prop)


@dataclass(frozen=True)
class DominanceReport:
    """First-order stochastic dominance check of midpoint marginals.

    passed means F_B(t) >= F_A(t) - 3 SE(t) across the grid: the Gibbs spec with
    lower boundary data produces stochastically smaller midpoints.
    """

    passed: bool
    max_deficit: float
    worst_t: float


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

    The call uses two seeds: spec_a is sampled from seed and spec_b from
    seed + 1.  Calls meant to be independent must therefore use seeds at
    least 2 apart.
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
    )
