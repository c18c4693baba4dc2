"""Lattice solver for the multiplicative-noise stochastic heat equation.

The field obeys dZ = (1/2) Z'' dt + Z dW per site.  Each step applies an
explicit heat update Z <- Z + lam (Z_{i+1} - 2 Z_i + Z_{i-1}) with
lam = dt/(2 dx^2), then a per-site exponential noise factor
exp(sigma g - sigma^2/2) with sigma^2 = dt/dx and g standard normal.  The
update keeps Z strictly positive (required for the log transform), the
noise factor has mean exactly 1, and the heat step is linear, so the
expectation of Z solves the discrete heat equation exactly: first-moment
readouts are unbiased up to spatial discretization and the Dirichlet
truncation of the line.

Observables: H = log Z; for delta initial data (total mass 1/dx at the
origin site) the centered/scaled height (H(2T,0) + T/12)/T^{1/3} is the
quantity whose moments and tails the rest of the package bounds.

One narrow-wedge ensemble serves every initial condition: the steps are
linear, the heat step symmetric and the noise diagonal, so Z(2T, 0) of any
initial data is an exact sum over the wedge field (convolve_upsilon_with_f).

Boundary truncation is Dirichlet zero.  It is certified post hoc: for a
readout at X the relative effect on E Z is at most the chance a Brownian
path from X touches L or -L before the final time, which the reflection
principle bounds by 2 Phi_bar((L-|X|)/sqrt t) + 2 Phi_bar((L+|X|)/sqrt t)
(general data), or the reflection-image correction
2 exp(-((2L-|X|)^2 - X^2)/(2t)) of the killed kernel (delta data at the
origin).

Replicas own independent PCG64 streams seeded by (master seed, replica
index), and every noise and stencil operation acts row by row, so every
ensemble readout is a pure function of (seed, replica count) whatever the
chunking and whatever the number of worker threads.  The ensemble solver
splits each chunk of replicas into one contiguous row block per usable
core and evolves the blocks in threads; numpy's ufuncs and uniform fills
release the interpreter lock, so the blocks run in parallel.  Memory is one
chunk's noise window, written in place, plus one uniform scratch per block.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr

from .initial_data import InitialData, NarrowWedge, make_unscaled_initial

__all__ = [
    "SolverConfig",
    "EnsembleResult",
    "solve_she_ensemble",
    "boundary_bias_bound",
    "wedge_readout_times",
    "convolve_upsilon_with_f",
    "StationarityReport",
    "stationarity_report",
    "FKGReport",
    "fkg_joint_vs_product",
    "snap_to_grid",
]

# the field's float type; readouts accumulate in float64
_DTYPE = "float32"

# replicas in flight, across all worker threads together
_CHUNK = 512


@dataclass(frozen=True)
class SolverConfig:
    """Lattice resolution and scheme parameters.

    dt defaults to dx^2/4; the explicit heat step requires dt <= dx^2/2.
    The field is evolved in _DTYPE whatever the lattice.
    """

    dx: float = 0.05
    dt: Optional[float] = None
    extent: float = 8.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dx) and self.dx > 0.0):
            raise ValueError(f"dx must be finite and positive, got {self.dx}")
        if not (math.isfinite(self.extent) and self.extent >= self.dx):
            raise ValueError("extent must be finite and cover one step")
        if self.dt is not None and not 0.0 < self.dt <= self.dx**2 / 2.0:
            raise ValueError(
                f"stability requires 0 < dt <= dx^2/2 = {self.dx**2 / 2:g}, "
                f"got dt = {self.dt:g}")

    @property
    def dt_value(self) -> float:
        return self.dx**2 / 4.0 if self.dt is None else self.dt

    @property
    def n_sites(self) -> int:
        return 2 * round(self.extent / self.dx) + 1

    @property
    def x_grid(self) -> np.ndarray:
        half = round(self.extent / self.dx)
        return self.dx * np.arange(-half, half + 1)


def _initial_Z(initial: InitialData, T: float, cfg: SolverConfig) -> np.ndarray:
    if isinstance(initial, NarrowWedge):
        Z0 = np.zeros(cfg.n_sites)
        Z0[cfg.n_sites // 2] = 1.0 / cfg.dx  # lattice delta, mass 1
        return Z0
    H0 = make_unscaled_initial(initial, T, cfg.x_grid)
    with np.errstate(over="raise"):
        return np.exp(H0)


def _time_steps(T: float, cfg: SolverConfig) -> tuple:
    """(steps, dt): whole steps of size dt <= cfg.dt_value reaching 2T."""
    if not T > 0.0:
        raise ValueError("T must be positive")
    t_final = 2.0 * T
    steps = max(1, math.ceil(t_final / cfg.dt_value - 1e-9))
    return steps, t_final / steps


def _heat_step(Z: np.ndarray, out: np.ndarray, lam) -> None:
    """out = Z + lam * discrete Laplacian with Dirichlet zero ghosts.

    Z and out are C-contiguous.  The neighbour sums run over their flattened
    rows, one contiguous sweep instead of one short sweep per row; the end
    sites of each row, which mix in the next row there, are then set from
    the ghosts.
    """
    z = Z.reshape(-1)
    o = out.reshape(-1)
    np.add(z[2:], z[:-2], out=o[1:-1])
    o[1:-1] -= 2.0 * z[1:-1]
    out[..., 0] = Z[..., 1] - 2.0 * Z[..., 0]
    out[..., -1] = Z[..., -2] - 2.0 * Z[..., -1]
    out *= lam
    out += Z


# Noise is drawn in fixed windows of this many steps so that replica
# streams are independent of chunking: replica r always consumes its
# uniforms in the same order for a given (steps, n_sites).
_WINDOW = 256

# Replicas per block of the noise transform, few enough that a block's
# uniforms and their transforms stay in cache.
_NOISE_ROWS = 8


def _window_multipliers(gens, w: int, n_sites: int, sigma, out, u):
    """exp(sigma g - sigma^2/2) for w steps: out's view (len(gens), w, n_sites).

    Normals come from Box-Muller on per-replica uniform streams drawn into
    the scratch u; out and u need w * n_sites columns rounded up to even.
    The transcendental math runs on _NOISE_ROWS replicas at a time, so the
    uniforms and their transforms stay in cache, and writes straight into
    their rows of out; every operation is elementwise, so the blocking
    leaves the bits unchanged.  The f32 pairing truncates |g| around 5.8
    sigma, which perturbs the multiplier mean by under 1e-8 relative.
    """
    dtype = out.dtype
    count = w * n_sites
    even = count + (count & 1)
    half = even // 2
    n = len(gens)
    for lo in range(0, n, _NOISE_ROWS):
        hi = min(n, lo + _NOISE_ROWS)
        ub = u[:hi - lo, :even]
        for i in range(lo, hi):
            gens[i].random(out=ub[i - lo], dtype=dtype)
        u1 = ub[:, :half]
        u2 = ub[:, half:]
        np.subtract(dtype.type(1.0), u1, out=u1)  # (0, 1]: log never sees 0
        np.log(u1, out=u1)
        u1 *= dtype.type(-2.0)
        np.sqrt(u1, out=u1)  # r = sqrt(-2 log(1-u))
        u2 *= dtype.type(2.0 * math.pi)
        zb = out[lo:hi, :even]
        np.cos(u2, out=zb[:, :half])
        np.sin(u2, out=zb[:, half:])
        zb[:, :half] *= u1
        zb[:, half:] *= u1
        zb *= sigma
        zb -= dtype.type(0.5) * sigma * sigma
        np.exp(zb, out=zb)
    return out[:, :count].reshape(n, w, n_sites)


def _replica_generators(seed: int, start: int, count: int) -> list:
    return [np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        (seed, start + i)))) for i in range(count)]


def _evolve(Z: np.ndarray, gens: list, steps: int, dt: float, dx: float):
    """Yield the field after each of `steps` heat-then-noise steps.

    Z holds one row per generator and is consumed as scratch.  A yielded
    array is overwritten two steps later, so callers copy what they keep.
    Every window's noise goes into one buffer sized by the first, the largest.
    """
    dtype = Z.dtype
    lam = dtype.type(dt / (2.0 * dx**2))
    sigma = dtype.type(math.sqrt(dt / dx))
    buf = np.empty_like(Z)
    n, n_sites = Z.shape
    count = min(_WINDOW, steps) * n_sites
    noise = np.empty((n, count + (count & 1)), dtype=dtype)
    u = np.empty((min(n, _NOISE_ROWS), noise.shape[1]), dtype=dtype)
    for start in range(0, steps, _WINDOW):
        w = min(_WINDOW, steps - start)
        mult = _window_multipliers(gens, w, n_sites, sigma, noise, u)
        for j in range(w):
            _heat_step(Z, buf, lam)
            Z, buf = buf, Z
            Z *= mult[:, j]
            yield Z


@dataclass(frozen=True)
class EnsembleResult:
    """Per-replica field readouts Z at probe (time, position) pairs.

    Z has shape (n_replicas, n_times, n_positions) in float64; probe_x
    holds the grid-snapped positions actually read.
    """

    probe_times: np.ndarray
    probe_x: np.ndarray
    Z: np.ndarray

    @property
    def H(self) -> np.ndarray:
        if np.any(self.Z <= 0.0):
            raise FloatingPointError(
                "numerical fault: nonpositive field value in readout")
        return np.log(self.Z)


def snap_to_grid(values: Sequence[float], dx: float) -> np.ndarray:
    """Nearest lattice positions for the requested readout coordinates."""
    return dx * np.round(np.asarray(values, dtype=float) / dx)


# cgroup v2 holds the CPU quota in <root>/cpu.max, v1 in
# <root>/cpu/cpu.cfs_quota_us and cpu.cfs_period_us
_CGROUP = Path("/sys/fs/cgroup")


def _quota_cores() -> Optional[int]:
    """ceil(quota / period) of the cgroup CPU quota, None without a quota.

    A quota of "max" or -1, or a file that cannot be read or parsed,
    means no quota.
    """
    try:
        fields = (_CGROUP / "cpu.max").read_text().split()
    except OSError:
        v1 = _CGROUP / "cpu"
        try:
            fields = [(v1 / "cpu.cfs_quota_us").read_text(),
                      (v1 / "cpu.cfs_period_us").read_text()]
        except OSError:
            return None
    try:
        quota, period = int(fields[0]), int(fields[1])
    except (IndexError, ValueError):
        return None
    if quota <= 0 or period <= 0:
        return None
    return -(-quota // period)


def usable_cores() -> int:
    """Cores this process may use: the worker thread count of run_row_blocks.

    The smaller of the affinity mask's size and the cgroup CPU quota
    rounded up to whole cores, so a container limited to 1.5 CPUs on a
    64-core host runs 2 workers, not 64.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        cores = os.cpu_count() or 1
    quota = _quota_cores()
    return cores if quota is None else min(cores, quota)


def run_row_blocks(run_block, n_rows: int, chunk: int) -> None:
    """Call run_block(lo, hi) over the rows [0, n_rows) on every usable core.

    Each chunk of rows is split into min(usable_cores(), rows) contiguous
    blocks that run in parallel threads, and the next chunk starts when
    all of them are done.  run_block writes only its own rows, so the
    worker count cannot change the result.  The ensemble solver and the
    GUE edge sampler (airy.sample_gue_edge_many) both split their rows
    here.
    """
    cores = usable_cores()
    with ThreadPoolExecutor(cores) as pool:
        for start in range(0, n_rows, chunk):
            r = min(chunk, n_rows - start)
            w = min(cores, r)
            edges = [start + r * i // w for i in range(w + 1)]
            # list() reads every result, re-raising a block's error
            list(pool.map(run_block, edges[:-1], edges[1:]))


def solve_she_ensemble(
    initial: InitialData,
    T: float,
    cfg: SolverConfig,
    seed: int,
    n_replicas: int,
    probe_times: Optional[Sequence[float]] = None,
    probe_x: Sequence[float] = (0.0,),
) -> EnsembleResult:
    """Evolve n_replicas independent fields, reading out Z at probe points.

    Results are a pure function of (seed, n_replicas): replica r draws all
    of its noise from PCG64 seeded with SeedSequence((seed, r)) in fixed
    windows of _WINDOW steps, every operation on the field acts row by
    row, and readouts are stored in replica order, so neither _CHUNK nor
    the worker count can change them.  Brownian initial data is
    held fixed across replicas (quenched path from the initial condition's
    own seed); the dynamical noise varies.  A run makes one call, for the
    narrow wedge, and composes the other initial data from its readout.

    _CHUNK bounds the replicas in flight across all workers together:
    run_row_blocks splits each chunk into W = min(usable_cores(), rows)
    contiguous row blocks that are evolved in parallel threads, and the
    next chunk starts when all of them are done.  Memory is one chunk's
    noise window, written in place into one buffer per block, plus W
    Box-Muller scratch blocks of _NOISE_ROWS replicas' uniforms (about
    2 MB each in float32 on a 241-site lattice), plus the float64 readout.
    """
    steps, dt = _time_steps(T, cfg)
    if n_replicas < 1:
        raise ValueError("need at least one replica")
    t_final = 2.0 * T
    times = np.array([t_final] if probe_times is None else probe_times, float)
    step_of = np.round(times / dt).astype(int)
    # a step fills one readout column: a repeated time would leave one unset
    if (np.any(np.abs(step_of * dt - times) > 1e-9) or np.any(step_of < 1)
            or np.any(step_of > steps)
            or np.unique(step_of).size < times.size):
        raise ValueError(f"probe times must be distinct step multiples in "
                         f"(0, {t_final:g}], dt = {dt:g}")

    x_snap = snap_to_grid(probe_x, cfg.dx)
    half = cfg.n_sites // 2
    x_idx = np.round(x_snap / cfg.dx).astype(int) + half
    if np.any(np.abs(x_idx - half) > half):
        raise ValueError("probe positions outside the lattice extent")

    Z0 = _initial_Z(initial, T, cfg).astype(_DTYPE)
    out = np.empty((n_replicas, times.size, x_snap.size), dtype=np.float64)
    probe_set = {int(s): i for i, s in enumerate(step_of)}

    def run_block(lo: int, hi: int) -> None:
        gens = _replica_generators(seed, lo, hi - lo)
        fields = _evolve(np.tile(Z0, (hi - lo, 1)), gens, steps, dt, cfg.dx)
        for step, Z in enumerate(fields, 1):
            hit = probe_set.get(step)
            if hit is not None:
                out[lo:hi, hit, :] = Z[:, x_idx]

    run_row_blocks(run_block, n_replicas, _CHUNK)
    return EnsembleResult(probe_times=step_of * dt, probe_x=x_snap, Z=out)


def boundary_bias_bound(extent: float, t: float, X: float = 0.0,
                        delta_init: bool = False) -> float:
    """Relative effect of the Dirichlet truncation on E Z(t, X).

    General data: the truncation kills every path from X that touches L or
    -L before time t.  By the reflection principle each wall is touched
    with chance 2 Phi_bar(distance/sqrt t), so the bound is
    2 Phi_bar((L-|X|)/sqrt t) + 2 Phi_bar((L+|X|)/sqrt t), capped at 1.
    Delta data at the origin: the smaller of that and the reflection-image
    correction of the killed heat kernel, 2 exp(-((2L-|X|)^2 - X^2)/(2t)).
    """
    if not (extent > 0.0 and t > 0.0):
        raise ValueError("extent and t must be positive")
    if abs(X) >= extent:
        raise ValueError("readout outside the domain")
    root_t = math.sqrt(t)
    exit_bound = min(1.0, 2.0 * ndtr((abs(X) - extent) / root_t)
                     + 2.0 * ndtr((-abs(X) - extent) / root_t))
    if not delta_init:
        return float(exit_bound)
    image = 2.0 * math.exp(-((2.0 * extent - abs(X)) ** 2 - X * X) / (2.0 * t))
    return float(min(exit_bound, image))


def wedge_readout_times(T: float, cfg: SolverConfig) -> tuple:
    """(2T - dt, 2T), the wedge readouts that convolve_upsilon_with_f needs."""
    steps, dt = _time_steps(T, cfg)
    if steps < 2:
        raise ValueError(f"2T = {2.0 * T:g} must span two or more steps")
    return (2.0 * T - dt, 2.0 * T)


def convolve_upsilon_with_f(wedge: EnsembleResult, initial: InitialData,
                            T: float, cfg: SolverConfig) -> EnsembleResult:
    """Readout at (2T, 0) for initial data Z_0, composed from the wedge
    field W read on every site at wedge_readout_times(T, cfg):

        Z(2T, 0) = dx d sum_x Z_0(x) (H W_{n-1})(x),  d = W_n(0) / (H W_{n-1})(0),

    H one heat step: the lattice form of h^f(0) = T^{-1/3} log int
    exp(T^{1/3}(Upsilon(y) + f(-y))) dy.  H is symmetric and the noise
    diagonal, so this is exactly the direct run under the wedge's noise
    E_{n-1}, ..., E_1, E_n; d is E_n at the origin, independent of W_{n-1},
    so each replica has a direct readout's law.  The narrow wedge returns
    W_n(0) as read.
    """
    times = wedge_readout_times(T, cfg)
    if wedge.Z.shape[1:] != (2, cfg.n_sites) or not np.allclose(
            wedge.probe_times, times):
        raise ValueError("need the wedge field on every site at (2T - dt, 2T)")
    origin = cfg.n_sites // 2
    Z = wedge.Z[:, 1, origin]
    if not isinstance(initial, NarrowWedge):
        _, dt = _time_steps(T, cfg)
        HW = np.empty_like(wedge.Z[:, 0])
        _heat_step(np.ascontiguousarray(wedge.Z[:, 0]), HW,
                   dt / (2.0 * cfg.dx**2))
        Z = cfg.dx * (Z / HW[:, origin]) * (HW @ _initial_Z(initial, T, cfg))
    return EnsembleResult(probe_times=np.array(times[1:]),
                          probe_x=np.zeros(1), Z=Z.reshape(-1, 1, 1))


@dataclass(frozen=True)
class StationarityReport:
    """Pairwise two-sample KS results between probe locations."""

    locations: tuple
    statistics: np.ndarray  # upper-triangular pairs, row-major
    pvalues: np.ndarray
    pairs: tuple

    @property
    def min_pvalue(self) -> float:
        return float(np.min(self.pvalues))


def stationarity_report(samples: dict) -> StationarityReport:
    """Pairwise KS tests across locations; input maps y -> 1-d sample array."""
    # imported here so that importing kpztails does not load scipy.stats
    from scipy.stats import ks_2samp

    if len(samples) < 2:
        raise ValueError("need samples at two or more locations")
    for y, arr in samples.items():
        if np.asarray(arr).size < 10**3:
            raise ValueError(f"need >= 1000 samples per location, y={y}")
    locs = tuple(sorted(samples))
    pairs, ks_stats, pvals = [], [], []
    for i in range(len(locs)):
        for j in range(i + 1, len(locs)):
            res = ks_2samp(samples[locs[i]], samples[locs[j]])
            pairs.append((locs[i], locs[j]))
            ks_stats.append(res.statistic)
            pvals.append(res.pvalue)
    return StationarityReport(locations=locs, statistics=np.array(ks_stats),
                              pvalues=np.array(pvals), pairs=tuple(pairs))


@dataclass(frozen=True)
class FKGReport:
    """Joint vs product-of-marginals estimate for level events."""

    side: str
    levels: np.ndarray
    joint: float
    product: float
    se_joint: float
    se_product: float
    marginals: np.ndarray

    @property
    def passed(self) -> bool:
        slack = 3.0 * (self.se_joint + self.se_product)
        return self.joint >= self.product - slack


def fkg_joint_vs_product(H: np.ndarray, levels: Sequence[float],
                         side: str = "lower") -> FKGReport:
    """Positive-association check on shared-noise height readouts.

    H has one row per replica and one column per space-time point; side
    "lower" tests events {H_l <= s_l} (the joint should dominate the
    product), side "upper" tests {H_l > s_l}.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 2:
        raise ValueError("H must be (replicas, points)")
    levels = np.asarray(levels, dtype=float)
    if levels.size != H.shape[1]:
        raise ValueError("one level per probe point required")
    if side not in ("lower", "upper"):
        raise ValueError("side must be 'lower' or 'upper'")
    n = H.shape[0]
    ind = (H <= levels[None, :]) if side == "lower" else (H > levels[None, :])
    marg = ind.mean(axis=0)
    joint = float(np.all(ind, axis=1).mean())
    if np.any(marg == 0.0) or np.any(marg == 1.0):
        warnings.warn("degenerate estimate: a level sits outside the simulated "
                      "support", RuntimeWarning, stacklevel=2)
    product = float(np.prod(marg))
    se_joint = math.sqrt(joint * (1.0 - joint) / n)
    # delta method: Var(prod p_hat) ~ prod^2 * sum (1-p)/(n p)
    with np.errstate(divide="ignore"):
        rel = np.where(marg > 0.0, (1.0 - marg) / (n * marg), 0.0)
    se_product = product * math.sqrt(float(np.sum(rel)))
    return FKGReport(side=side, levels=levels, joint=joint, product=product,
                     se_joint=se_joint, se_product=se_product, marginals=marg)
