"""Acceptance suite: one test per shipped claim, heavy runs shared.

Each test prints one pass/fail line under pytest -v.  Claims with stated
runtime budgets assert them.  The Monte Carlo claims pin seeds, so the
suite is deterministic end to end.

Three solver ensembles back the Monte Carlo claims: c01's, c11's, and
one narrow-wedge field at T = 1 (nw_t1) that c10, c12 and c13 share.
c13 composes its flat and Brownian samples from that field with
she.convolve_upsilon_with_f, the identity every run uses.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from kpztails.airy import laplace_exact, laplace_lhs
from kpztails.bounds import BoundQuery
from kpztails.bridges import (BridgeSpec, GibbsSpec, bridge_min_tail,
                              bridge_min_tail_mc, dominance_test,
                              gibbs_resample)
from kpztails.experiment import preset_config, run_all
from kpztails.initial_data import (BrownianTwoSided, Flat, NarrowWedge,
                                   scale_center_height)
from kpztails.moments import (Partition, cauchy_det_check,
                              enumerate_partitions, moment_exact,
                              partition_cubic_gap, psi, siegel_check)
from kpztails.she import (EnsembleResult, SolverConfig,
                          convolve_upsilon_with_f, fkg_joint_vs_product,
                          solve_she_ensemble, stationarity_report,
                          wedge_readout_times)
from kpztails.tails import UNTESTABLE, VIOLATION, bound_violation_report

DX = 0.05
DT = 1.25e-3  # stability boundary dx^2/2; halves the step count
CONSTANTS = {"K": 1.0, "K1": 1.0, "K2": 1.0, "s0": 0.0}
NW_CFG = SolverConfig(dx=DX, dt=DT, extent=6.0)  # nw_t1's lattice
# the lattice indices of the positions X in {0, 0.8, 1.6} that c10 and
# c12 read
NW_IDX = [NW_CFG.n_sites // 2 + round(x / DX) for x in (0.0, 0.8, 1.6)]


def _nw_heights(nw, time_idx):
    """log Z of nw_t1 at one probe time and the sites NW_IDX.

    Only these columns are logged: far sites of the field may read 0.
    """
    return np.log(nw.Z[:, time_idx, NW_IDX])


def _composed(nw, initial, rows=slice(None)):
    """Scaled heights of `initial` at T = 1 on the replicas `rows`, composed
    from nw_t1's field at (2 - dt, 2) as every run composes its samples."""
    wedge = EnsembleResult(probe_times=nw.probe_times[1:], probe_x=nw.probe_x,
                           Z=nw.Z[rows, 1:])
    return scale_center_height(
        convolve_upsilon_with_f(wedge, initial, 1.0, NW_CFG), 1.0, initial)


# ----------------------------------------------------------- shared runs


@pytest.fixture(scope="module")
def first_moment_run():
    # probes at t in {1, 2} give Z(2T, 0) for T in {0.5, 1} in one sweep
    t0 = time.monotonic()
    res = solve_she_ensemble(
        NarrowWedge(), 1.0, SolverConfig(dx=DX, dt=DT, extent=3.0),
        seed=101, n_replicas=10**5, probe_times=[1.0, 2.0], probe_x=[0.0])
    return res, time.monotonic() - t0


@pytest.fixture(scope="module")
def nw_t1():
    # narrow wedge at T=1 on every site at t in {1, 2 - dt, 2}: c10 and c12
    # read its columns NW_IDX, and c13 composes general data from the
    # field at the last two times
    return solve_she_ensemble(
        NarrowWedge(), 1.0, NW_CFG, seed=2024, n_replicas=10**4,
        probe_times=[1.0, *wedge_readout_times(1.0, NW_CFG)],
        probe_x=NW_CFG.x_grid)


@pytest.fixture(scope="module")
def laplace_samples():
    t0 = time.monotonic()
    res = solve_she_ensemble(
        NarrowWedge(), 2.0, SolverConfig(dx=DX, dt=DT, extent=4.0),
        seed=404, n_replicas=10**4)
    return (scale_center_height(res.Z[:, -1, 0], 2.0, NarrowWedge()),
            time.monotonic() - t0)


# ------------------------------------------------------------- criteria


def test_c01_first_moment_oracle(first_moment_run):
    """Narrow-wedge sample mean of Z(2T, 0) matches the heat kernel."""
    res, elapsed = first_moment_run
    for time_idx, T in ((0, 0.5), (1, 1.0)):
        z = res.Z[:, time_idx, 0]
        exact = 1.0 / (2.0 * math.sqrt(math.pi * T))
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - exact) <= 3.0 * se, f"T={T}"
    assert elapsed < 300.0


def test_c02_first_moment_closed_form():
    """moment_exact(1, T) equals e^{T/12}/(2 sqrt(pi T)) to 1e-8."""
    t0 = time.monotonic()
    for T in (0.5, 1.0, math.pi, 4.0):
        closed = math.exp(T / 12.0) / (2.0 * math.sqrt(math.pi * T))
        assert abs(moment_exact(1, T).value - closed) <= 1e-8
    assert time.monotonic() - t0 < 30.0


def test_c03_psi_sandwich():
    """moment_exact(k, T) lies in [psi, 69 psi] for k <= 3, T in {4, 8}."""
    t0 = time.monotonic()
    for T in (4.0, 8.0):
        for k in (1, 2, 3):
            res = moment_exact(k, T)
            lo = psi(k, T)
            tol = res.quad_error + res.skipped_mass_bound
            assert lo - tol <= res.value <= 69.0 * lo + tol, (k, T)
            assert res.in_sandwich
    assert time.monotonic() - t0 < 120.0


def test_c04_partition_cubic_inequality():
    """Cube-sum gap >= (k^2-k)/4 for every partition but (k), equality at (k-1,1)."""
    t0 = time.monotonic()
    for k in range(2, 13):
        for lam in enumerate_partitions(k):
            if lam.parts == (k,):
                continue
            _, meets, equal = partition_cubic_gap(lam)
            assert meets, lam
            assert equal == (lam.parts == (k - 1, 1)), lam
    assert time.monotonic() - t0 < 1.0


@pytest.mark.xfail(strict=True, reason=(
    "the displayed inequality k^{3/2} e^{-(k^2-k)/4 + pi sqrt(2k/3)} <= 68 "
    "fails at k=3 (value 98.5734): the partition-count relaxation "
    "e^{pi sqrt(2k/3)} overshoots p(3)=3 by a factor ~28; the chain with "
    "true partition counts does stay below 68 (max ~3.48 at k=3, covered "
    "in the moments suite)"))
def test_c05_siegel_bound():
    """k^{3/2} e^{-(k^2-k)/4 + pi sqrt(2k/3)} <= 68 up to k=200, peak at k=2."""
    values = {k: siegel_check(k)[0] for k in range(1, 201)}
    assert max(values.values()) == values[2]
    assert all(v <= 68.0 for v in values.values())


def test_c06_cauchy_determinant():
    """det[1/(w_i + lambda_i - w_j)] matches its product form to 1e-10."""
    rng = np.random.default_rng(66)
    checked = 0
    while checked < 100:
        ell = int(rng.integers(1, 5))
        parts = tuple(sorted(rng.integers(1, 9, size=ell).tolist(),
                             reverse=True))
        w = 1j * rng.uniform(-2.0, 2.0, size=ell)
        # near-coincident w with equal parts gives nearly duplicate matrix
        # rows; the float64 determinant then cannot resolve 1e-10, so the
        # instance distribution keeps the points apart
        if ell > 1 and np.min(np.abs(w[:, None] - w[None, :])
                              + np.eye(ell)) < 0.25:
            continue
        assert cauchy_det_check(Partition(parts), w) <= 1e-10
        checked += 1


def test_c07_bridge_min_tail():
    """Bridge minimum tail MC matches exp(-2(x-m)(y-m)/L) and its cap."""
    t0 = time.monotonic()
    sets = [(0.0, 0.5, 1.0, 1.0), (0.0, 1.0, 1.0, 1.0), (1.0, 0.0, 2.0, 0.5),
            (-0.5, 0.5, 0.5, 0.8), (0.3, 1.2, 3.0, 1.5)]
    for x, y, L, s in sets:
        exact, cap = bridge_min_tail(x, y, L, s)
        est, se = bridge_min_tail_mc(x, y, L, s, n=10**6, seed=11)
        assert abs(est - exact) <= 3.0 * se, (x, y, L, s)
        assert exact <= cap
        assert est <= cap + 3.0 * se
    assert time.monotonic() - t0 < 120.0


def test_c08_gibbs_degenerate_case():
    """With no wall the resampler draws the free bridge: its midpoint has
    the exact law N((x + y)/2, (b - a)/4), here N(0.05, 0.5^2)."""
    bridge = BridgeSpec(a=0.0, b=1.0, x=0.3, y=-0.2, step=1.0 / 64.0)
    spec = GibbsSpec(bridge=bridge, T=1.0, lower_curve=-math.inf)
    mid = bridge.n_steps // 2
    resampled = gibbs_resample(spec, seed=21, n=10**4).paths[:, mid]
    assert sps.kstest(resampled, "norm", args=(0.05, 0.5)).pvalue >= 0.01


def test_c09_monotone_dominance():
    """Lower boundary data pushes Gibbs midpoint marginals down in law."""
    step = 1.0 / 64.0
    pairs = [
        (GibbsSpec(BridgeSpec(0.0, 1.0, 0.5, 0.5, step), 1.0, -0.5),
         GibbsSpec(BridgeSpec(0.0, 1.0, 0.0, 0.0, step), 1.0, -0.5)),
        (GibbsSpec(BridgeSpec(0.0, 1.0, 0.0, 0.0, step), 1.0, -0.2),
         GibbsSpec(BridgeSpec(0.0, 1.0, 0.0, 0.0, step), 1.0, -0.8)),
        (GibbsSpec(BridgeSpec(0.0, 1.0, 0.3, 0.5, step), 1.0, -0.4),
         GibbsSpec(BridgeSpec(0.0, 1.0, 0.0, 0.2, step), 1.0, -math.inf)),
    ]
    # dominance_test draws spec_b from seed + 1, so the pairs' seeds are 2
    # apart and no two pairs share a stream
    for i, (spec_a, spec_b) in enumerate(pairs):
        report = dominance_test(spec_a, spec_b, n=10**5, seed=31 + 2 * i)
        assert report.passed, (i, report.max_deficit, report.worst_t)


def test_c10_stationarity(nw_t1):
    """Upsilon(y) + y^2/2^{2/3} has the same one-point law across y."""
    # y sits at X/2^{2/3} for the lattice sites X of NW_IDX; the statement
    # holds for every y
    y = NW_CFG.x_grid[NW_IDX] / 2.0 ** (2.0 / 3.0)
    vals = scale_center_height(nw_t1.Z[:, 2, NW_IDX], 1.0, NarrowWedge())
    samples = {float(yj): vals[:, j] + yj**2 / 2.0 ** (2.0 / 3.0)
               for j, yj in enumerate(y)}
    report = stationarity_report(samples)
    assert report.min_pvalue > 0.01, list(zip(report.pairs, report.pvalues))


def test_c11_laplace_identity(laplace_samples):
    """E exp(-e^{T^{1/3}(Upsilon-s)}) matches the Airy Fredholm determinant."""
    ups, elapsed = laplace_samples
    for s in (-1.0, 0.0, 1.0):
        lhs = laplace_lhs(ups, s=s, T=2.0)
        det, quad_error, _ = laplace_exact(s, T=2.0)
        gap = abs(lhs.value - det)
        assert gap <= 3.0 * lhs.se + quad_error, (s, gap, lhs.se)
    assert elapsed < 900.0


def test_c12_fkg_association(nw_t1):
    """Shared-noise height events are positively associated."""
    H1, H2 = _nw_heights(nw_t1, 0), _nw_heights(nw_t1, 2)  # t = 1, t = 2
    pairs = {
        "equal-time": np.column_stack([H2[:, 0], H2[:, 1]]),
        "equal-position": np.column_stack([H1[:, 0], H2[:, 0]]),
    }
    for name, cols in pairs.items():
        levels = np.quantile(cols, 0.4, axis=0)
        for side in ("lower", "upper"):
            report = fkg_joint_vs_product(cols, levels, side=side)
            assert report.passed, (name, side, report.joint, report.product)


def test_c13_bound_non_violation(nw_t1):
    """Tail CIs never contradict the clamped envelopes; deep cells labeled."""
    # the Brownian-data theorems average over the initial path as well as
    # the noise, so 10 quenched paths each take 1000 replicas of their own
    brownian = np.concatenate([
        _composed(nw_t1, BrownianTwoSided(seed=7000 + j),
                  rows=slice(1000 * j, 1000 * (j + 1)))
        for j in range(10)])
    datasets = {
        ("nw_lower", "nw_upper"): _composed(nw_t1, NarrowWedge()),
        ("general_lower", "general_upper"): _composed(nw_t1, Flat()),
        ("brownian_lower", "brownian_upper"): brownian,
    }
    s_grid = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)
    verdicts = []
    for theorems, samples in datasets.items():
        queries = [BoundQuery(theorem=theorem, s=s, T=1.0,
                              constants=dict(CONSTANTS))
                   for theorem in theorems for s in s_grid]
        verdicts.extend(bound_violation_report(samples, queries))
    assert not any(v.verdict == VIOLATION for v in verdicts), [
        (v.theorem, v.s, v.ci_lo, v.envelope)
        for v in verdicts if v.verdict == VIOLATION]
    testable = [v for v in verdicts if v.verdict != UNTESTABLE]
    assert len(testable) >= 30  # the grid is not vacuously out of reach
    for v in verdicts:
        if v.n * v.envelope < 10.0:
            assert v.verdict in (UNTESTABLE, VIOLATION)


def test_c14_smoke_determinism(tmp_path):
    """Rerunning the smoke preset with one seed reproduces every byte."""
    cfg = preset_config("smoke")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_all(cfg, seed=0, out_dir=out1)
    run_all(cfg, seed=0, out_dir=out2)
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert any(n.endswith(".csv") for n in names)
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
