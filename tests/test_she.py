"""Tests for the lattice stochastic-heat-equation solver.

Deterministic runs (the ensemble solver with its noise multipliers
patched to exactly 1) are checked against closed-form heat kernel oracles
in float64; noisy runs are checked against the exact first-moment
identity E Z^nw(2T, 0) = 1/(2 sqrt(pi T)) at Monte Carlo scale.
Dirichlet truncation effects are asserted where they are provably
negligible and documented where they are not.
"""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from kpztails.initial_data import (
    BrownianTwoSided,
    Flat,
    GeneralScaled,
    HypParams,
    NarrowWedge,
    Profile,
)
from kpztails import she
from kpztails.she import (
    EnsembleResult,
    SolverConfig,
    boundary_bias_bound,
    convolve_upsilon_with_f,
    fkg_joint_vs_product,
    snap_to_grid,
    solve_she_ensemble,
    stationarity_report,
    wedge_readout_times,
)

LOG_INV_SQRT_2PI = -0.9189385332046727


def heat_kernel(x, t):
    return np.exp(-np.asarray(x) ** 2 / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)


def final_field(initial, T, cfg, seed=0):
    """The whole lattice at time 2T of one ensemble replica, read out in
    float64."""
    res = solve_she_ensemble(initial, T=T, cfg=cfg, seed=seed, n_replicas=1,
                             probe_x=cfg.x_grid)
    return res.Z[0, -1]


@pytest.fixture
def zero_noise(monkeypatch):
    """Every noise multiplier exactly 1.0: the solver runs the heat flow."""
    def ones(gens, w, n_sites, sigma, out, u):
        return np.ones((len(gens), w, n_sites), dtype=out.dtype)

    monkeypatch.setattr(she, "_window_multipliers", ones)


@pytest.fixture
def float64(monkeypatch):
    """The solver evolves the field in float64, for deterministic oracles."""
    monkeypatch.setattr(she, "_DTYPE", "float64")


def readout(Z):
    return EnsembleResult(probe_times=np.array([1.0]),
                          probe_x=np.zeros(np.shape(Z)[-1]),
                          Z=np.asarray(Z, dtype=float).reshape(1, 1, -1))


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.dx == 0.05
        assert cfg.dt_value == pytest.approx(0.05**2 / 4.0, rel=0, abs=0)
        assert cfg.extent == 8.0
        assert cfg.n_sites == 321

    def test_x_grid_symmetric(self):
        cfg = SolverConfig(dx=0.1, extent=2.0)
        x = cfg.x_grid
        assert x.size == cfg.n_sites == 41
        assert x[0] == -2.0 and x[-1] == 2.0
        np.testing.assert_allclose(x + x[::-1], 0.0, atol=1e-15)
        np.testing.assert_allclose(np.diff(x), 0.1, rtol=1e-12)

    def test_stability_boundary_value_accepted(self):
        SolverConfig(dx=0.05, dt=0.05**2 / 2.0)

    @pytest.mark.parametrize("bad", [0.05**2 / 2.0 + 1e-9, 0.0, -1e-3])
    def test_unstable_dt_rejected(self, bad):
        with pytest.raises(ValueError, match="stability"):
            SolverConfig(dx=0.05, dt=bad)

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(dx=0.0)
        with pytest.raises(ValueError):
            SolverConfig(dx=0.1, extent=0.05)
        # an infinite extent would end in an OverflowError in the solver
        for bad in (dict(extent=math.inf), dict(dx=math.inf),
                    dict(dx=math.nan)):
            with pytest.raises(ValueError, match="finite"):
                SolverConfig(**bad)


class TestColeHopf:
    def test_ones_map_to_zeros(self):
        assert np.all(readout(np.ones(21)).H == 0.0)

    def test_e_maps_to_one(self):
        np.testing.assert_allclose(readout(np.full(21, math.e)).H, 1.0,
                                   rtol=1e-15)

    def test_heat_kernel_height_at_origin(self):
        x = SolverConfig(dx=0.05, extent=4.0).x_grid
        H = readout(heat_kernel(x, 1.0)).H[0, 0]
        assert H[x.size // 2] == pytest.approx(LOG_INV_SQRT_2PI, rel=1e-12)


@pytest.mark.usefixtures("zero_noise", "float64")
class TestZeroNoise:
    def test_flat_interior_fixed_exactly(self):
        # The Dirichlet edge decays from step one, but the contamination
        # spreads a single site per step, so after k steps everything more
        # than k sites from either wall is still bitwise 1.0.
        cfg = SolverConfig(dx=0.05, extent=4.0)
        steps = 50
        T = steps * cfg.dt_value / 2.0
        Z = final_field(Flat(), T, cfg)
        assert np.all(Z[steps:-steps] == 1.0)
        assert Z[0] < 0.5  # boundary layer is real, not an artifact

    def test_flat_constant_away_from_boundary(self):
        cfg = SolverConfig(dx=0.05, extent=8.0)
        Z = final_field(Flat(), 0.5, cfg)
        center = Z.size // 2
        assert abs(Z[center] - 1.0) <= 1e-12
        inner = np.abs(cfg.x_grid) <= 4.0
        assert np.max(np.abs(Z[inner] - 1.0)) <= 1e-4

    def test_narrow_wedge_matches_heat_kernel(self):
        cfg = SolverConfig(dx=0.05, extent=4.0)
        Z = final_field(NarrowWedge(), 0.5, cfg)
        x = cfg.x_grid
        kern = heat_kernel(x, 1.0)
        mask = np.abs(x) <= cfg.extent - 1.0
        rel = np.abs(Z[mask] - kern[mask]) / kern[mask]
        assert rel.max() <= 0.02  # contract tolerance
        assert rel.max() <= 2e-3  # regression headroom at dx = 0.05
        origin = x.size // 2
        assert abs(Z[origin] - kern[origin]) / kern[origin] <= 2e-4

    def test_mass_conserved_for_decaying_data(self):
        cfg = SolverConfig(dx=0.05, extent=8.0)
        Z = final_field(NarrowWedge(), 0.5, cfg)
        assert abs(np.sum(Z) * cfg.dx - 1.0) <= 1e-10
        edge = np.sum(Z[:10]) + np.sum(Z[-10:])  # within 10 sites of a wall
        assert edge / np.sum(Z) <= 1e-8
        assert np.min(Z) > 0.0

    @pytest.mark.parametrize("initial", [Flat(), NarrowWedge()])
    def test_equals_repeated_heat_steps_bitwise(self, initial):
        # with every noise multiplier exactly 1.0 the solver is the plain
        # heat step, bit for bit; 300 steps span two noise windows
        cfg = SolverConfig(dx=0.1, dt=2.5e-3, extent=2.0)
        steps, T = 300, 0.375
        Z = np.ones(cfg.n_sites)
        if isinstance(initial, NarrowWedge):
            Z = np.zeros(cfg.n_sites)
            Z[cfg.n_sites // 2] = 1.0 / cfg.dx
        lam = (2.0 * T / steps) / (2.0 * cfg.dx**2)
        buf = np.empty_like(Z)
        for _ in range(steps):
            she._heat_step(Z, buf, lam)
            Z, buf = buf, Z
        assert np.array_equal(final_field(initial, T, cfg), Z)

    def test_time_step_override(self):
        cfg = SolverConfig(dx=0.1, dt=0.1**2 / 2.0, extent=2.0)
        res = solve_she_ensemble(Flat(), T=0.25, cfg=cfg, seed=0, n_replicas=1,
                                 probe_x=cfg.x_grid)
        assert res.probe_times[-1] == pytest.approx(0.5)

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            solve_she_ensemble(Flat(), T=0.0, cfg=SolverConfig(), seed=0,
                               n_replicas=1)


class TestNoiseMoments:
    def test_narrow_wedge_first_moment(self):
        cfg = SolverConfig(dx=0.05, dt=1.25e-3, extent=3.0)
        res = solve_she_ensemble(NarrowWedge(), T=0.5, cfg=cfg, seed=4,
                                 n_replicas=3000)
        z = res.Z[:, 0, 0]
        se = z.std(ddof=1) / math.sqrt(z.size)
        exact = 1.0 / (2.0 * math.sqrt(math.pi * 0.5))
        assert abs(z.mean() - exact) <= 3.0 * se

    def test_flat_first_moment(self):
        cfg = SolverConfig(dx=0.05, dt=1.25e-3, extent=4.0)
        res = solve_she_ensemble(Flat(), T=0.5, cfg=cfg, seed=3,
                                 n_replicas=3000)
        z = res.Z[:, 0, 0]
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - 1.0) <= 3.0 * se

    def test_noisy_field_stays_positive(self):
        cfg = SolverConfig(dx=0.1, extent=2.0)
        assert np.min(final_field(NarrowWedge(), 0.5, cfg, seed=9)) > 0.0


class TestEnsemble:
    CFG = SolverConfig(dx=0.1, dt=2e-3, extent=2.0)

    def test_deterministic_rerun(self):
        a = solve_she_ensemble(NarrowWedge(), T=0.5, cfg=self.CFG, seed=7,
                               n_replicas=16)
        b = solve_she_ensemble(NarrowWedge(), T=0.5, cfg=self.CFG, seed=7,
                               n_replicas=16)
        assert np.array_equal(a.Z, b.Z)

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr(she, "_CHUNK", 3)
        a = solve_she_ensemble(NarrowWedge(), T=0.5, cfg=self.CFG, seed=7,
                               n_replicas=10)
        monkeypatch.setattr(she, "_CHUNK", 512)
        b = solve_she_ensemble(NarrowWedge(), T=0.5, cfg=self.CFG, seed=7,
                               n_replicas=10)
        assert np.array_equal(a.Z, b.Z)

    @pytest.mark.parametrize("n, T", [
        # 293 steps: a full window, then a partial one of odd count 37 * 21
        (11, 0.293),
        # 255 steps: one window of odd count, fewer rows than a noise block
        (5, 0.255),
    ])
    def test_window_layout_matches_per_replica_box_muller(self, monkeypatch,
                                                          n, T):
        # each window is replica-major, and each replica's row is a plain
        # Box-Muller transform of its own fresh stream in the same order of
        # operations, whatever the noise block, the reused buffer and the
        # odd uniform count do
        cfg = SolverConfig(dx=0.1, dt=2e-3, extent=1.0)
        windows = []
        real = she._window_multipliers

        def spy(*args):
            mult = real(*args)
            windows.append((mult, mult.copy()))
            return mult

        monkeypatch.setattr(she, "usable_cores", lambda: 1)
        monkeypatch.setattr(she, "_window_multipliers", spy)
        solve_she_ensemble(Flat(), T=T, cfg=cfg, seed=6, n_replicas=n)
        steps = round(2.0 * T / cfg.dt)
        sizes = [min(she._WINDOW, steps - s)
                 for s in range(0, steps, she._WINDOW)]
        assert [m.shape for _, m in windows] == [
            (n, w, cfg.n_sites) for w in sizes]
        assert all(np.shares_memory(v, windows[0][0]) for v, _ in windows)
        f32 = np.float32
        sigma = f32(math.sqrt(cfg.dt / cfg.dx))
        for r, gen in enumerate(she._replica_generators(6, 0, n)):
            for w, (_, got) in zip(sizes, windows):
                count = w * cfg.n_sites
                half = (count + count % 2) // 2
                u = gen.random(2 * half, dtype=np.float32)
                radius = np.sqrt(np.log(f32(1.0) - u[:half]) * f32(-2.0))
                angle = u[half:] * f32(2.0 * math.pi)
                g = np.concatenate((np.cos(angle) * radius,
                                    np.sin(angle) * radius))
                mult = np.exp(g * sigma - f32(0.5) * sigma * sigma)
                assert np.array_equal(got[r].reshape(-1), mult[:count])

    def test_noise_memory_is_one_window(self, monkeypatch):
        # 800 steps: three full windows and a partial one.  Filling a new
        # window while the last is still referenced, or copying it into a
        # second layout, peaks above two windows.
        cfg = SolverConfig(dx=0.1, dt=2.5e-3, extent=4.0)
        n = 64
        window = she._WINDOW * n * cfg.n_sites * 4
        monkeypatch.setattr(she, "usable_cores", lambda: 1)
        tracemalloc.start()
        try:
            solve_she_ensemble(NarrowWedge(), T=1.0, cfg=cfg, seed=2,
                               n_replicas=n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * window

    def test_noise_blocking_does_not_change_results(self, monkeypatch):
        # 255 steps make the window's uniform count odd
        cfg = SolverConfig(dx=0.1, dt=2e-3, extent=1.0)
        a = solve_she_ensemble(Flat(), T=0.255, cfg=cfg, seed=3, n_replicas=10)
        monkeypatch.setattr(she, "_NOISE_ROWS", 3)
        b = solve_she_ensemble(Flat(), T=0.255, cfg=cfg, seed=3, n_replicas=10)
        assert np.array_equal(a.Z, b.Z)

    @pytest.mark.parametrize("initial, T, cfg, n, chunk", [
        # odd replica count, float64 field (cfg names the field's dtype)
        (NarrowWedge(), 0.5, (SolverConfig(dx=0.1, dt=2e-3, extent=2.0),
                              "float64"), 11, 512),
        # chunks of two rows, fewer than three workers
        (Flat(), 0.5, (SolverConfig(dx=0.1, dt=2e-3, extent=2.0),
                       "float32"), 7, 2),
        (BrownianTwoSided(seed=5), 0.5, (SolverConfig(dx=0.1, dt=2e-3,
                                                      extent=2.0),
                                         "float32"), 9, 4),
    ])
    def test_worker_count_does_not_change_results(self, monkeypatch, initial,
                                                  T, cfg, n, chunk):
        cfg, dtype = cfg
        monkeypatch.setattr(she, "_DTYPE", dtype)
        monkeypatch.setattr(she, "_CHUNK", chunk)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(she, "usable_cores", lambda: workers)
            runs.append(solve_she_ensemble(initial, T=T, cfg=cfg, seed=4,
                                           n_replicas=n).Z)
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0], runs[2])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_in_a_block_propagates(self, monkeypatch, workers):
        def broken(*args, **kwargs):
            raise FloatingPointError("injected block failure")

        monkeypatch.setattr(she, "usable_cores", lambda: workers)
        monkeypatch.setattr(she, "_window_multipliers", broken)
        with pytest.raises(FloatingPointError, match="injected"):
            solve_she_ensemble(NarrowWedge(), T=0.5, cfg=self.CFG, seed=1,
                               n_replicas=4)

    def test_heat_step_matches_per_row_stencil(self):
        rng = np.random.default_rng(0)
        Z = rng.random((3, 7), dtype=np.float32) + np.float32(0.5)
        lam = np.float32(0.25)
        out = np.empty_like(Z)
        she._heat_step(Z, out, lam)
        for row, got in zip(Z, out):
            padded = np.concatenate(([0.0], row, [0.0])).astype(np.float32)
            lap = padded[2:] + padded[:-2] - np.float32(2.0) * row
            assert np.array_equal(got, lam * lap + row)

    def test_replica_prefix_property(self, monkeypatch):
        monkeypatch.setattr(she, "_CHUNK", 4)
        a = solve_she_ensemble(NarrowWedge(), T=0.5, cfg=self.CFG, seed=7,
                               n_replicas=10)
        monkeypatch.undo()
        b = solve_she_ensemble(NarrowWedge(), T=0.5, cfg=self.CFG, seed=7,
                               n_replicas=6)
        assert np.array_equal(a.Z[:6], b.Z)

    def test_single_solve_matches_replica_zero(self):
        Z = final_field(NarrowWedge(), 0.5, self.CFG, seed=7)
        r = solve_she_ensemble(NarrowWedge(), T=0.5, cfg=self.CFG, seed=7,
                               n_replicas=3, probe_x=(0.0, 0.5))
        i0 = self.CFG.n_sites // 2
        i5 = i0 + 5
        assert Z[i0] == r.Z[0, 0, 0]
        assert Z[i5] == r.Z[0, 0, 1]

    def test_default_probe_is_final_time(self):
        r = solve_she_ensemble(NarrowWedge(), T=0.5, cfg=self.CFG, seed=1,
                               n_replicas=2)
        np.testing.assert_allclose(r.probe_times, [1.0], rtol=1e-12)

    def test_intermediate_probe_times(self):
        r = solve_she_ensemble(NarrowWedge(), T=0.5, cfg=self.CFG, seed=1,
                               n_replicas=2, probe_times=(0.5, 1.0))
        np.testing.assert_allclose(r.probe_times, [0.5, 1.0], rtol=1e-12)
        assert r.Z.shape == (2, 2, 1)

    def test_misaligned_probe_time_rejected(self):
        with pytest.raises(ValueError, match="step multiples"):
            solve_she_ensemble(NarrowWedge(), T=0.5, cfg=self.CFG, seed=1,
                               n_replicas=2, probe_times=(0.0013,))

    @pytest.mark.parametrize("times", [(1.0, 1.0, 0.5), (0.5, 0.5)])
    def test_duplicate_probe_times_rejected(self, times):
        # each step fills one readout column, so the first of two equal
        # times would be left as uninitialized memory
        with pytest.raises(ValueError, match="distinct"):
            solve_she_ensemble(NarrowWedge(), T=0.5, cfg=self.CFG, seed=1,
                               n_replicas=3, probe_times=times)

    @pytest.mark.parametrize("bad", [(-0.5,), (0.0,), (1.5,)])
    def test_out_of_range_probe_time_rejected(self, bad):
        with pytest.raises(ValueError, match="step multiples"):
            solve_she_ensemble(NarrowWedge(), T=0.5, cfg=self.CFG, seed=1,
                               n_replicas=2, probe_times=bad)

    def test_probe_positions_snap_to_grid(self):
        r = solve_she_ensemble(NarrowWedge(), T=0.5, cfg=self.CFG, seed=1,
                               n_replicas=2, probe_x=(0.249, -1.02))
        np.testing.assert_allclose(r.probe_x, [0.2, -1.0], atol=1e-12)

    def test_probe_position_outside_extent_rejected(self):
        with pytest.raises(ValueError, match="extent"):
            solve_she_ensemble(NarrowWedge(), T=0.5, cfg=self.CFG, seed=1,
                               n_replicas=2, probe_x=(2.5,))

    @pytest.mark.parametrize("dx,extent", [(0.06, 4.0), (0.05, 4.03),
                                           (0.1, 0.3)])
    def test_every_lattice_site_is_a_probe(self, dx, extent):
        # the end site dx * round(extent / dx) may lie just past extent
        cfg = SolverConfig(dx=dx, extent=extent)
        r = solve_she_ensemble(NarrowWedge(), T=0.5, cfg=cfg, seed=1,
                               n_replicas=2, probe_x=cfg.x_grid)
        np.testing.assert_array_equal(r.probe_x, cfg.x_grid)
        with pytest.raises(ValueError, match="extent"):
            solve_she_ensemble(NarrowWedge(), T=0.5, cfg=cfg, seed=1,
                               n_replicas=2, probe_x=(cfg.x_grid[-1] + dx,))

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="replica"):
            solve_she_ensemble(NarrowWedge(), T=0.5, cfg=self.CFG, seed=1,
                               n_replicas=0)
        with pytest.raises(ValueError, match="positive"):
            solve_she_ensemble(NarrowWedge(), T=-1.0, cfg=self.CFG, seed=1,
                               n_replicas=2)

    def test_height_readout_guards_positivity(self):
        res = EnsembleResult(probe_times=np.array([1.0]),
                             probe_x=np.array([0.0]),
                             Z=np.array([[[0.0]]]))
        with pytest.raises(FloatingPointError, match="nonpositive"):
            _ = res.H

    def test_brownian_initial_data_runs(self):
        r = solve_she_ensemble(BrownianTwoSided(seed=5), T=0.5, cfg=self.CFG,
                               seed=2, n_replicas=4)
        assert np.all(r.Z > 0.0)


class TestUsableCores:
    # a fake cgroup root under an 8-core affinity mask
    @pytest.mark.parametrize("files,expected", [
        ({}, 8),
        ({"cpu.max": "150000 100000\n"}, 2),
        ({"cpu.max": "400000 100000\n"}, 4),
        ({"cpu.max": "1600000 100000\n"}, 8),
        ({"cpu.max": "max 100000\n"}, 8),
        ({"cpu.max": ""}, 8),
        ({"cpu/cpu.cfs_quota_us": "50000\n",
          "cpu/cpu.cfs_period_us": "100000\n"}, 1),
        ({"cpu/cpu.cfs_quota_us": "250000\n",
          "cpu/cpu.cfs_period_us": "100000\n"}, 3),
        ({"cpu/cpu.cfs_quota_us": "-1\n",
          "cpu/cpu.cfs_period_us": "100000\n"}, 8),
        ({"cpu/cpu.cfs_quota_us": "50000\n"}, 8),
        ({"cpu/cpu.cfs_quota_us": "garbage\n",
          "cpu/cpu.cfs_period_us": "100000\n"}, 8),
    ])
    def test_quota_caps_affinity(self, tmp_path, monkeypatch, files, expected):
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        monkeypatch.setattr(she, "_CGROUP", tmp_path)
        monkeypatch.setattr(she.os, "sched_getaffinity",
                            lambda pid: set(range(8)), raising=False)
        assert she.usable_cores() == expected

    def test_this_process(self):
        assert 1 <= she.usable_cores() <= (os.cpu_count() or 1)


class TestBoundaryBias:
    def test_frozen_values(self):
        assert boundary_bias_bound(3.0, 2.0, delta_init=True) == pytest.approx(
            2.0 * math.exp(-9.0), rel=1e-12)
        # both walls at distance 3/sqrt(2) standard deviations
        assert boundary_bias_bound(3.0, 2.0) == pytest.approx(
            0.06778970704937854, rel=1e-9)
        assert boundary_bias_bound(0.5, 8.0) == 1.0  # the cap

    def test_bitwise_against_norm_sf_and_image(self):
        # ndtr(-x) is what stats.norm.sf(x) computes, called directly to
        # keep scipy.stats out of the package import; the grid takes both
        # sides of each min
        for L, t, X in [(0.5, 8.0, 0.0), (0.5, 0.1, 0.2), (2.0, 1.0, 0.0),
                        (3.0, 2.0, -1.5), (8.0, 2.0, 0.0), (8.0, 8.0, 7.9),
                        (6.0, 1.0, 0.5), (12.0, 1.0, 0.0)]:
            exit_bound = min(
                1.0, 2.0 * stats.norm.sf((L - abs(X)) / math.sqrt(t))
                + 2.0 * stats.norm.sf((L + abs(X)) / math.sqrt(t)))
            image = 2.0 * math.exp(-((2.0 * L - abs(X)) ** 2 - X * X)
                                   / (2.0 * t))
            assert boundary_bias_bound(L, t, X) == exit_bound, (L, t, X)
            assert boundary_bias_bound(L, t, X, delta_init=True) == min(
                exit_bound, image), (L, t, X)

    def test_delta_bound_never_looser_than_exit_bound(self):
        for L, t, X in [(2.0, 1.0, 0.0), (3.0, 2.0, 1.0), (4.0, 4.0, -2.0),
                        (1.0, 8.0, 0.5)]:
            general = boundary_bias_bound(L, t, X)
            assert boundary_bias_bound(L, t, X, delta_init=True) <= general
            assert general <= 1.0

    # 1 - Z and the relative gaps below carry the float64 rounding of up
    # to 6400 heat steps, far below this slack
    ROUNDING = 1e-12

    @pytest.mark.usefixtures("zero_noise", "float64")
    @pytest.mark.parametrize("L", [4.0, 6.0])
    def test_bounds_flat_lattice_loss(self, L):
        # with unit noise the solver runs the heat flow, whose flat data
        # stays exactly 1 on the whole line, so 1 - Z(t, X) is the
        # truncation's loss of E Z; the endpoint chance 2 Phi_bar((L-|X|)/
        # sqrt t) alone is below it (at L, t, X = 4, 2, 0: 0.468% < 0.837%)
        cfg = SolverConfig(dx=0.05, dt=1.25e-3, extent=L)
        X = np.arange(0.0, L, 0.5)
        res = solve_she_ensemble(Flat(), 4.0, cfg, seed=0, n_replicas=1,
                                 probe_times=[2.0, 8.0], probe_x=X)
        for i, t in enumerate(res.probe_times):
            for x, z in zip(res.probe_x, res.Z[0, i]):
                assert 1.0 - z <= boundary_bias_bound(L, t, x) + self.ROUNDING, (
                    L, t, x)

    @pytest.mark.usefixtures("zero_noise", "float64")
    @pytest.mark.parametrize("L", [2.0, 3.0, 4.0])
    def test_bounds_delta_lattice_loss(self, L):
        # the wedge on extent L + 8 stands in for the untruncated line
        X = np.arange(0.0, L, 0.25)
        Z_L, Z_far = (solve_she_ensemble(
            NarrowWedge(), 4.0, SolverConfig(dx=0.05, dt=1.25e-3, extent=e),
            seed=0, n_replicas=1, probe_times=[1.0, 2.0, 4.0, 8.0],
            probe_x=X).Z[0] for e in (L, L + 8.0))
        for i, t in enumerate((1.0, 2.0, 4.0, 8.0)):
            for j, x in enumerate(X):
                loss = 1.0 - Z_L[i, j] / Z_far[i, j]
                assert loss <= boundary_bias_bound(
                    L, t, x, delta_init=True) + self.ROUNDING, (L, t, x)

    def test_monotone_in_extent(self):
        vals = [boundary_bias_bound(L, 2.0, delta_init=True)
                for L in (2.0, 3.0, 4.0, 6.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_offcenter_readout_larger_bias(self):
        assert boundary_bias_bound(3.0, 1.0, X=1.5) > boundary_bias_bound(
            3.0, 1.0, X=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            boundary_bias_bound(0.0, 1.0)
        with pytest.raises(ValueError):
            boundary_bias_bound(2.0, -1.0)
        with pytest.raises(ValueError, match="outside"):
            boundary_bias_bound(2.0, 1.0, X=2.0)


def fixed_noise(monkeypatch, mult):
    """Every replica draws the (steps, n_sites) multipliers mult."""
    def fixed(gens, w, n_sites, sigma, out, u):
        return np.broadcast_to(mult, (len(gens), w, n_sites))

    monkeypatch.setattr(she, "_window_multipliers", fixed)


HYP = HypParams(C=1.0, nu=0.5, theta=0.5, kappa=1.0, M=1.0)


def profile(y, f):
    return GeneralScaled(Profile(y=np.asarray(y, float),
                                 f=np.asarray(f, float)), HYP)


class TestConvolve:
    CFG = SolverConfig(dx=0.2, extent=2.0)
    T = 0.3  # 60 steps, one noise window

    def wedge(self, n_replicas=1, seed=0, cfg=None, T=None):
        cfg, T = cfg or self.CFG, T or self.T
        return solve_she_ensemble(NarrowWedge(), T, cfg, seed=seed,
                                  n_replicas=n_replicas,
                                  probe_times=wedge_readout_times(T, cfg),
                                  probe_x=cfg.x_grid)

    @pytest.mark.usefixtures("float64")
    @pytest.mark.parametrize("initial", [
        NarrowWedge(), Flat(), BrownianTwoSided(seed=3),
        profile([-1.5, 0.0, 1.0, 2.0], [-0.5, 0.4, -1.0, -np.inf]),
    ])
    def test_equals_direct_run_under_reversed_noise(self, monkeypatch,
                                                    initial):
        # the composed value under wedge noise (E_1, ..., E_n) is the direct
        # run's under (E_{n-1}, ..., E_1, E_n), up to rounding
        steps, _ = she._time_steps(self.T, self.CFG)
        g = np.random.default_rng(1).standard_normal((steps, self.CFG.n_sites))
        mult = np.exp(0.3 * g - 0.045)
        fixed_noise(monkeypatch, mult)
        derived = convolve_upsilon_with_f(self.wedge(), initial, self.T,
                                          self.CFG)
        fixed_noise(monkeypatch, np.concatenate((mult[-2::-1], mult[-1:])))
        direct = solve_she_ensemble(initial, self.T, self.CFG, seed=0,
                                    n_replicas=1)
        assert derived.Z.shape == direct.Z.shape == (1, 1, 1)
        np.testing.assert_array_equal(derived.probe_times, direct.probe_times)
        assert derived.Z[0, 0, 0] == pytest.approx(direct.Z[0, 0, 0],
                                                   rel=1e-12)

    @pytest.mark.parametrize("initial", [Flat(), BrownianTwoSided(seed=8)])
    def test_same_law_as_direct_run(self, initial):
        cfg, T, n = SolverConfig(dx=0.1, extent=3.0), 0.5, 2000
        derived = convolve_upsilon_with_f(self.wedge(n, 1, cfg, T), initial,
                                          T, cfg)
        direct = solve_she_ensemble(initial, T, cfg, seed=2, n_replicas=n)
        res = stats.ks_2samp(derived.H[:, 0, 0], direct.H[:, 0, 0])
        assert res.pvalue > 1e-3

    @pytest.mark.usefixtures("zero_noise", "float64")
    def test_flat_profile_gaussian_integral(self):
        # under the heat flow the flat value is the wedge's total mass, the
        # lattice Gaussian integral dx sum_x p(x) = 1
        cfg = SolverConfig(dx=0.05, extent=8.0)
        z = convolve_upsilon_with_f(self.wedge(1, 0, cfg, 0.5), Flat(), 0.5,
                                    cfg).Z[0, 0, 0]
        assert z == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.usefixtures("zero_noise", "float64")
    def test_constant_on_window(self):
        # f = 0 on |y| <= 1, -inf outside: under the heat flow the value is
        # the chance that B(2T) lands in |x| <= (2T)^{2/3} = 1 at T = 1/2,
        # and the lattice counts both end sites whole
        cfg, T = SolverConfig(dx=0.05, extent=4.0), 0.5
        window = profile([-1.0, 1.0], [0.0, 0.0])
        z = convolve_upsilon_with_f(self.wedge(1, 0, cfg, T), window, T,
                                    cfg).Z[0, 0, 0]
        direct = solve_she_ensemble(window, T, cfg, seed=0, n_replicas=1)
        assert z == pytest.approx(direct.Z[0, 0, 0], rel=1e-12)
        ends = cfg.dx * heat_kernel(1.0, 1.0)
        assert z == pytest.approx(math.erf(1.0 / math.sqrt(2.0)) + ends,
                                  abs=1e-3)

    def test_narrow_window_limit(self):
        # a window holding the origin site alone gives dx times the wedge
        w = self.wedge(n_replicas=3)
        y0 = self.CFG.dx / (2.0 * self.T) ** (2.0 / 3.0) / 2.0
        z = convolve_upsilon_with_f(w, profile([-y0, y0], [0.0, 0.0]),
                                    self.T, self.CFG).Z[:, 0, 0]
        origin = self.CFG.n_sites // 2
        np.testing.assert_allclose(z, self.CFG.dx * w.Z[:, 1, origin],
                                   rtol=1e-14)

    def test_scale_shift_in_T(self):
        # f + c multiplies Z_0 by exp(T^{1/3} c), so h shifts by c exactly
        w, c = self.wedge(n_replicas=3), 0.7
        y, f = [-2.0, 0.5, 3.0], [-0.3, 0.2, -1.0]
        h = [convolve_upsilon_with_f(w, profile(y, np.add(f, shift)), self.T,
                                     self.CFG).H[:, 0, 0]
             for shift in (0.0, c)]
        np.testing.assert_allclose((h[1] - h[0]) / self.T ** (1.0 / 3.0), c,
                                   rtol=1e-12)

    def test_batched_rows_match_scalar_calls(self):
        w = self.wedge(n_replicas=3)
        batch = convolve_upsilon_with_f(w, Flat(), self.T, self.CFG).Z
        for r in range(3):
            row = EnsembleResult(probe_times=w.probe_times,
                                 probe_x=w.probe_x, Z=w.Z[r:r + 1])
            single = convolve_upsilon_with_f(row, Flat(), self.T, self.CFG)
            np.testing.assert_allclose(single.Z, batch[r:r + 1], rtol=1e-15)

    def test_narrow_wedge_is_the_origin_readout(self):
        w = self.wedge(n_replicas=3)
        res = convolve_upsilon_with_f(w, NarrowWedge(), self.T, self.CFG)
        assert np.array_equal(res.Z[:, 0, 0], w.Z[:, 1, self.CFG.n_sites // 2])

    def test_validation(self):
        final_only = solve_she_ensemble(NarrowWedge(), self.T, self.CFG,
                                        seed=0, n_replicas=1,
                                        probe_x=self.CFG.x_grid)
        with pytest.raises(ValueError, match="every site"):
            convolve_upsilon_with_f(final_only, Flat(), self.T, self.CFG)
        origin_only = solve_she_ensemble(
            NarrowWedge(), self.T, self.CFG, seed=0, n_replicas=1,
            probe_times=wedge_readout_times(self.T, self.CFG))
        with pytest.raises(ValueError, match="every site"):
            convolve_upsilon_with_f(origin_only, Flat(), self.T, self.CFG)
        with pytest.raises(ValueError, match="two or more"):
            wedge_readout_times(self.CFG.dt_value / 2.0, self.CFG)


class TestStationarity:
    def test_identical_samples(self):
        a = np.arange(1000, dtype=float)
        rep = stationarity_report({0.0: a, 1.0: a.copy()})
        assert np.all(rep.statistics == 0.0)
        assert np.all(rep.pvalues == 1.0)
        assert rep.min_pvalue == 1.0

    def test_same_distribution_passes(self):
        rng = np.random.default_rng(0)
        rep = stationarity_report({0.0: rng.standard_normal(2000),
                                   1.0: rng.standard_normal(2000)})
        assert rep.min_pvalue > 0.2

    def test_injected_shift_detected(self):
        rng = np.random.default_rng(1)
        rep = stationarity_report({0.0: rng.standard_normal(10000),
                                   1.0: rng.standard_normal(10000) + 0.5})
        assert rep.min_pvalue < 1e-6

    def test_three_locations_pair_count(self):
        rng = np.random.default_rng(2)
        rep = stationarity_report({y: rng.standard_normal(1500)
                                   for y in (0.0, 0.5, 1.0)})
        assert len(rep.pairs) == 3
        assert rep.locations == (0.0, 0.5, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="two or more"):
            stationarity_report({0.0: np.zeros(2000)})
        with pytest.raises(ValueError, match="1000"):
            stationarity_report({0.0: np.zeros(2000), 1.0: np.zeros(50)})


class TestFKG:
    def _assoc(self, n=20000, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        return np.column_stack([x, x + 0.5 * rng.standard_normal(n)])

    def test_single_event_joint_equals_marginal(self):
        H = self._assoc()[:, :1]
        rep = fkg_joint_vs_product(H, [0.3], side="upper")
        assert rep.joint == rep.product == rep.marginals[0]
        assert rep.passed

    def test_positive_association_lower_events(self):
        rep = fkg_joint_vs_product(self._assoc(), [0.0, 0.0], side="lower")
        assert rep.joint > rep.product + 3.0 * (rep.se_joint + rep.se_product)
        assert rep.passed

    def test_positive_association_upper_events(self):
        rep = fkg_joint_vs_product(self._assoc(), [0.0, 0.0], side="upper")
        assert rep.joint > rep.product
        assert rep.passed

    def test_negative_association_fails(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(50000)
        rep = fkg_joint_vs_product(np.column_stack([x, -x]), [0.0, 0.0],
                                   side="lower")
        assert rep.joint == pytest.approx(0.0, abs=1e-12)
        assert rep.product == pytest.approx(0.25, abs=0.01)
        assert not rep.passed

    def test_sure_events_degenerate_warning(self):
        with pytest.warns(RuntimeWarning, match="degenerate"):
            rep = fkg_joint_vs_product(self._assoc(), [1e9, 1e9], side="lower")
        assert rep.joint == 1.0
        assert rep.product == 1.0
        assert rep.se_joint == 0.0
        assert rep.passed

    def test_validation(self):
        H = self._assoc()
        with pytest.raises(ValueError, match="replicas"):
            fkg_joint_vs_product(H[:, 0], [0.0])
        with pytest.raises(ValueError, match="level"):
            fkg_joint_vs_product(H, [0.0])
        with pytest.raises(ValueError, match="side"):
            fkg_joint_vs_product(H, [0.0, 0.0], side="both")


class TestSnapToGrid:
    def test_frozen_cases(self):
        np.testing.assert_allclose(snap_to_grid([0.249, -1.02, 0.0], 0.05),
                                   [0.25, -1.0, 0.0], atol=1e-12)

    @given(v=st.floats(-50.0, 50.0), dx=st.sampled_from([0.01, 0.05, 0.1, 0.25]))
    @settings(max_examples=200, deadline=None)
    def test_snap_is_nearest_and_idempotent(self, v, dx):
        s = snap_to_grid([v], dx)[0]
        assert abs(s - v) <= dx / 2.0 + 1e-12
        assert snap_to_grid([s], dx)[0] == pytest.approx(s, abs=1e-12)
