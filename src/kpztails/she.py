"""Lattice solver for the multiplicative-noise stochastic heat equation.

The field obeys dZ = (1/2) Z'' dt + Z dW per site.  Each step applies an
explicit heat update Z <- Z + lam (Z_{i+1} - 2 Z_i + Z_{i-1}) with
lam = dt/(2 dx^2), then an independent noise factor m per site.  m takes
one of two positive values, with probabilities chosen so that its first
three moments are those of exp(sigma g - sigma^2/2), sigma^2 = dt/dx and
g standard normal: E m = 1, E m^2 = e^{sigma^2} and E m^3 = e^{3 sigma^2}
(_two_point_law states the law and its float32 residuals).  Lattice
moments E Z^k for k <= 3 read the noise only through E m^j for j <= k, so
they are those of the log-normal factor; the continuum limit is the same
SHE, since a directed polymer's intermediate-disorder limit reads its
weights only through their mean and variance (Alberts, Khanin and
Quastel, Ann. Probab. 42 (2014)).  The update keeps Z strictly positive
(required for the log transform) and the heat step is linear, so the
expectation of Z solves the discrete heat equation exactly: first-moment
readouts are unbiased up to spatial discretization and the Dirichlet
truncation of the line.

Observables: the solver reads out Z.  One narrow-wedge ensemble (delta
initial data, total mass 1/dx at the origin site) serves every initial
condition: the steps are linear, the heat step symmetric and the noise
diagonal, so Z(2T, 0) of any initial data is an exact sum over the wedge
field, and convolve_upsilon_with_f returns it, one value per replica.  The
Cole-Hopf map H = log Z and the centering and T^{1/3} scaling that give the
heights whose moments and tails the rest of the package bounds live in
initial_data.scale_center_height.

Boundary truncation is Dirichlet zero, and no run certifies its effect;
exact lattice flows that measure it are left to ROADMAP direction 15.

Replicas own independent PCG64 streams seeded by (master seed, replica
index), and every noise and stencil operation acts row by row, so every
ensemble readout is a pure function of (seed, replica count) whatever the
chunking and whatever the number of worker threads.  The ensemble solver
splits each chunk of replicas into one contiguous row block per usable
core and evolves the blocks in threads; numpy's ufuncs and raw draws
release the interpreter lock, so the blocks run in parallel.  Memory is one
chunk's noise window, written in place.
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

from .initial_data import InitialData, NarrowWedge, make_unscaled_initial

__all__ = [
    "SolverConfig",
    "EnsembleResult",
    "solve_she_ensemble",
    "wedge_readout_times",
    "convolve_upsilon_with_f",
    "StationarityReport",
    "stationarity_report",
    "FKGReport",
    "fkg_joint_vs_product",
]

# the field's float type; readouts accumulate in float64
_DTYPE = "float32"

# replicas in flight, across all worker threads together
_CHUNK = 512


@dataclass(frozen=True)
class SolverConfig:
    """The lattice, sites dx * k on [-extent, extent], and its time step.

    dt defaults to dx^2/2, the explicit heat step's stability bound, which
    a set dt may not exceed.  The field is evolved in _DTYPE.
    """

    dx: float
    extent: float
    dt: Optional[float] = None

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
        return self.dx**2 / 2.0 if self.dt is None else self.dt

    @property
    def n_sites(self) -> int:
        return 2 * round(self.extent / self.dx) + 1

    @property
    def x_grid(self) -> np.ndarray:
        half = round(self.extent / self.dx)
        return self.dx * np.arange(-half, half + 1)


def _initial_Z(initial: InitialData, cfg: SolverConfig) -> np.ndarray:
    if isinstance(initial, NarrowWedge):
        Z0 = np.zeros(cfg.n_sites)
        Z0[cfg.n_sites // 2] = 1.0 / cfg.dx  # lattice delta, mass 1
        return Z0
    H0 = make_unscaled_initial(initial, cfg.x_grid)
    with np.errstate(over="raise"):
        return np.exp(H0)


def _time_steps(T: float, cfg: SolverConfig) -> tuple:
    """(steps, dt): whole steps of size dt <= cfg.dt_value reaching 2T."""
    if not T > 0.0:
        raise ValueError("T must be positive")
    t_final = 2.0 * T
    ratio = t_final / cfg.dt_value
    if not math.isfinite(ratio):
        raise ValueError(f"2T/dt = {ratio} must be finite")
    steps = max(1, math.ceil(ratio - 1e-9))
    return steps, t_final / steps


def _lattice_index(values, unit: float, lo: int, hi: int,
                   what: str) -> np.ndarray:
    """The whole k in [lo, hi] with k * unit within 1e-9 of each value;
    a ValueError that states `what` and lists the values without one.
    Checked in float, so that an index past int64 is rejected, not
    wrapped; every test reads False on NaN."""
    v = np.asarray(values, dtype=float)
    k = np.round(v / unit)
    off = ~((np.abs(k * unit - v) <= 1e-9) & (k >= lo) & (k <= hi))
    if off.any():
        raise ValueError(f"{what}: got {v[off].tolist()}")
    return k.astype(int)


def _probe_steps(times, steps: int, dt: float) -> np.ndarray:
    """The step of each readout time, which must be a distinct step in
    [1, steps]: a step fills one readout column, so a repeated time would
    leave one unset."""
    what = (f"probe times must be distinct step multiples in "
            f"(0, {steps * dt:g}], dt = {dt:g}")
    k = _lattice_index(times, dt, 1, steps, what)
    # a set, since np.unique imports numpy.ma, 14 ms of cold start for
    # every ExperimentConfig user
    if len(set(k.tolist())) < k.size:
        raise ValueError(what)
    return k


def _heat_step(Z: np.ndarray, out: np.ndarray, dt: float, dx: float) -> None:
    """out = H Z = Z + lam * discrete Laplacian with Dirichlet zero ghosts,
    lam = dt/(2 dx^2) in Z's float type.

    Z and out are C-contiguous.  The neighbour sums run over their flattened
    rows, one contiguous sweep instead of one short sweep per row; the end
    sites of each row, which mix in the next row there, are then set from
    the ghosts.
    """
    z = Z.reshape(-1)
    o = out.reshape(-1)
    lam = Z.dtype.type(dt / (2.0 * dx**2))
    np.add(z[2:], z[:-2], out=o[1:-1])
    o[1:-1] -= 2.0 * z[1:-1]
    out[..., 0] = Z[..., 1] - 2.0 * Z[..., 0]
    out[..., -1] = Z[..., -2] - 2.0 * Z[..., -1]
    out *= lam
    out += Z


# Noise is drawn in fixed windows of this many steps so that replica
# streams are independent of chunking: replica r always consumes its
# draws in the same order for a given (steps, n_sites).
_WINDOW = 256

# Replicas per block of the noise select, few enough that a block's rows
# stay in cache between the compare and the select.
_NOISE_ROWS = 8

# One noise draw: a little-endian 16-bit lane of a raw 64-bit PCG64 word.
_LANE = np.dtype("<u2")


def _two_point_law(sigma2: float, dtype) -> tuple:
    """(threshold, lo, hi) of the two-point multiplier at variance sigma2.

    m = hi with probability p = threshold / 2^16 and lo otherwise, with p
    the root below 1/2 of the skewness equation that gives E m = 1,
    E m^2 = e^{sigma2} and E m^3 = e^{3 sigma2}, the first three moments
    of exp(sigma g - sigma2/2).  p is quantised to the 16-bit draw first,
    and lo and hi solve the first two moments at the quantised p, then
    round to dtype.  In exact rationals from the float32 values,
    |E m - 1| <= 1.3e-8 and E m^2 is within 2.6e-8 relative at dx 0.05,
    0.1 and 0.2 (sigma2 = dt/dx at dt = dx^2/2); E m^3 is within 8e-8
    relative at dx 0.05 and 6.4e-7 at dx 0.2.  lo stays above 0.74 for
    sigma2 <= 2, so the field stays positive; from sigma2 = 4 on, p rounds
    to 0 and the law is rejected.
    """
    a = math.exp(sigma2)
    skew = math.sqrt(a - 1.0) * (a + 2.0)
    p = 0.5 * (1.0 - skew / math.sqrt(4.0 + skew * skew))
    levels = 2.0 ** (8 * _LANE.itemsize)
    threshold = round(p * levels)
    p = threshold / levels
    if threshold == 0 or (a - 1.0) * p >= 1.0 - p:  # p = 0 or lo <= 0
        raise ValueError(f"noise variance dt/dx = {sigma2:g} is too large "
                         f"for a two-point multiplier on 16-bit draws")
    lo = 1.0 - math.sqrt((a - 1.0) * p / (1.0 - p))
    hi = 1.0 + math.sqrt((a - 1.0) * (1.0 - p) / p)
    return threshold, dtype.type(lo), dtype.type(hi)


def _window_multipliers(gens, w: int, n_sites: int, sigma2: float, out):
    """Two-point multipliers for w steps: out's view (len(gens), w, n_sites).

    Replica r's multipliers are hi where a 16-bit draw is below
    _two_point_law's threshold and lo elsewhere; its draws are the four
    16-bit lanes of each raw word of its own PCG64, low lanes first, a
    fresh word per window.  Each replica's compare writes 0 or 1 into its
    row of out, read as unsigned integers of the field's width, and then
    _NOISE_ROWS rows at a time turn in place into lo's or hi's bit
    pattern; every operation is elementwise, so the blocking leaves the
    bits unchanged.
    """
    threshold, lo, hi = _two_point_law(sigma2, out.dtype)
    count = w * n_sites
    words = -(-count // (8 // _LANE.itemsize))
    bits = out.view(f"u{out.dtype.itemsize}")
    lo_bits = lo.view(bits.dtype)
    flip = hi.view(bits.dtype) ^ lo_bits
    n = len(gens)
    for start in range(0, n, _NOISE_ROWS):
        stop = min(n, start + _NOISE_ROWS)
        for i in range(start, stop):
            raw = gens[i].random_raw(words)
            draws = raw.astype("<u8", copy=False).view(_LANE)
            np.less(draws[:count], threshold, out=bits[i, :count])
        block = bits[start:stop, :count]
        block *= flip
        block ^= lo_bits
    return out[:, :count].reshape(n, w, n_sites)


def _replica_generators(seed: int, start: int, count: int) -> list:
    """Rows' PCG64 streams, row r's seeded by SeedSequence((seed, r))."""
    return [np.random.PCG64(np.random.SeedSequence((seed, start + i)))
            for i in range(count)]


def _evolve(Z: np.ndarray, gens: list, steps: int, dt: float, dx: float):
    """Yield the field after each of `steps` heat-then-noise steps.

    Z holds one row per generator and is consumed as scratch.  A yielded
    array is overwritten two steps later, so callers copy what they keep.
    Every window's noise goes into one buffer sized by the first, the
    largest, which is all the noise memory but one replica's raw draws:
    the multipliers are written in place.
    """
    buf = np.empty_like(Z)
    n, n_sites = Z.shape
    noise = np.empty((n, min(_WINDOW, steps) * n_sites), dtype=Z.dtype)
    for start in range(0, steps, _WINDOW):
        w = min(_WINDOW, steps - start)
        mult = _window_multipliers(gens, w, n_sites, dt / dx, noise)
        for j in range(w):
            _heat_step(Z, buf, dt, dx)
            Z, buf = buf, Z
            Z *= mult[:, j]
            yield Z


@dataclass(frozen=True)
class EnsembleResult:
    """Per-replica field readouts Z at probe (time, position) pairs.

    Z has shape (n_replicas, n_times, n_positions) in float64; probe_x
    holds the lattice sites dx * k read.
    """

    probe_times: np.ndarray
    probe_x: np.ndarray
    Z: np.ndarray


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
    here.  The bridge samplers do not: all their rows draw from one random
    stream, so they keep it on the calling thread and finish the rows on
    one worker of their own (bridges._PathKernel), whatever the core count.
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

    Probe times must be step multiples and probe positions lattice sites;
    neither is rounded.  Results are a pure function of (seed, n_replicas):
    replica r draws all of its noise from its _replica_generators stream in
    fixed windows of _WINDOW steps, every operation on the field acts row
    by row, and readouts are stored in replica order, so neither _CHUNK nor
    the worker count can change them.  Brownian initial data is held fixed
    across replicas (quenched path from the initial condition's own seed);
    the dynamical noise varies.  A run makes one call, for the narrow
    wedge, and composes the other initial data from its readout.

    _CHUNK bounds the replicas in flight across all workers together:
    run_row_blocks splits each chunk into W = min(usable_cores(), rows)
    contiguous row blocks that are evolved in parallel threads, and the
    next chunk starts when all of them are done.  Memory is one chunk's
    noise window, written in place into one buffer per block, plus one
    replica's raw draws per block (2 bytes per multiplier), plus the
    float64 readout.
    """
    steps, dt = _time_steps(T, cfg)
    if n_replicas < 1:
        raise ValueError("need at least one replica")
    step_of = _probe_steps([2.0 * T] if probe_times is None else probe_times,
                           steps, dt)

    half = cfg.n_sites // 2
    k = _lattice_index(probe_x, cfg.dx, -half, half,
                       f"probe positions must be lattice sites within the "
                       f"extent, dx = {cfg.dx:g}")
    x_idx = k + half

    Z0 = _initial_Z(initial, cfg).astype(_DTYPE)
    out = np.empty((n_replicas, step_of.size, x_idx.size), dtype=np.float64)
    probe_set = {int(s): i for i, s in enumerate(step_of)}

    def run_block(lo: int, hi: int) -> None:
        gens = _replica_generators(seed, lo, hi - lo)
        fields = _evolve(np.tile(Z0, (hi - lo, 1)), gens, steps, dt, cfg.dx)
        for step, Z in enumerate(fields, 1):
            hit = probe_set.get(step)
            if hit is not None:
                out[lo:hi, hit, :] = Z[:, x_idx]

    run_row_blocks(run_block, n_replicas, _CHUNK)
    return EnsembleResult(probe_times=step_of * dt, probe_x=cfg.dx * k, Z=out)


def wedge_readout_times(T: float, cfg: SolverConfig) -> tuple:
    """(2T - dt, 2T), the wedge readouts that convolve_upsilon_with_f needs;
    raises where solve_she_ensemble would reject them."""
    steps, dt = _time_steps(T, cfg)
    times = (2.0 * T - dt, 2.0 * T)
    try:
        _probe_steps(times, steps, dt)
    except ValueError as exc:
        raise ValueError(f"2T = {2.0 * T:g} must span two or more distinct "
                         f"steps: {exc}") from None
    return times


def convolve_upsilon_with_f(wedge: EnsembleResult, initial: InitialData,
                            T: float, cfg: SolverConfig) -> np.ndarray:
    """Z(2T, 0) for initial data Z_0, one float64 value per replica, composed
    from the wedge field W read on every site of cfg, in order, at the steps
    of wedge_readout_times(T, cfg):

        Z(2T, 0) = dx d sum_x Z_0(x) (H W_{n-1})(x),  d = W_n(0) / (H W_{n-1})(0),

    H one heat step: the lattice form of h^f(0) = T^{-1/3} log int
    exp(T^{1/3}(Upsilon(y) + f(-y))) dy.  H is symmetric and the noise
    diagonal, so this is exactly the direct run under the wedge's noise
    E_{n-1}, ..., E_1, E_n; d is E_n at the origin, independent of W_{n-1},
    so each replica has a direct readout's law.  The narrow wedge returns
    W_n(0) as read.  initial_data.scale_center_height maps the values to
    heights.
    """
    steps, dt = _time_steps(T, cfg)
    origin = cfg.n_sites // 2
    need = "need the wedge field on every site, in order, at (2T - dt, 2T)"
    if wedge.Z.shape[1:] != (2, cfg.n_sites):
        raise ValueError(need)
    sites = _lattice_index(wedge.probe_x, cfg.dx, -origin, origin, need)
    at = _lattice_index(wedge.probe_times, dt, 1, steps, need)
    if not (np.array_equal(sites, np.arange(-origin, origin + 1))
            and np.array_equal(at, (steps - 1, steps))):
        raise ValueError(need)
    Z = wedge.Z[:, 1, origin]
    if isinstance(initial, NarrowWedge):
        return Z.copy()  # a view would keep the whole field alive
    HW = np.empty_like(wedge.Z[:, 0])
    _heat_step(np.ascontiguousarray(wedge.Z[:, 0]), HW, dt, cfg.dx)
    return cfg.dx * (Z / HW[:, origin]) * (HW @ _initial_Z(initial, cfg))


@dataclass(frozen=True)
class StationarityReport:
    """Pairwise two-sample KS p-values between probe locations, one per
    pair of sorted locations, row-major."""

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
    pairs = tuple((a, b) for i, a in enumerate(locs) for b in locs[i + 1:])
    pvals = [ks_2samp(samples[a], samples[b]).pvalue for a, b in pairs]
    return StationarityReport(pvalues=np.array(pvals), pairs=pairs)


@dataclass(frozen=True)
class FKGReport:
    """Joint vs product-of-marginals estimate for level events."""

    joint: float
    product: float
    se_joint: float
    se_product: float

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
    return FKGReport(joint=joint, product=product, se_joint=se_joint,
                     se_product=se_product)
