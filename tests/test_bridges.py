"""Tests for bridge samplers, hitting formulas, and the Gibbs resampler."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from kpztails import bridges
from kpztails.bridges import (
    BridgeSpec,
    GibbsSpec,
    _weight_rows,
    bridge_min_tail,
    bridge_min_tail_mc,
    dominance_test,
    gibbs_resample,
)


def _gibbs_weights(spec, paths):
    """The Gibbs weights of the rows of paths, through the kernel's row step."""
    paths = np.array(paths, dtype=float)
    n, width = paths.shape
    w = np.empty(n)
    _weight_rows(spec, paths, w, np.empty((n, width)), np.empty((n, width - 1)))
    return w


def _free_bridges(bridge, seed, n):
    """n free bridge paths: gibbs_resample with no wall accepts every
    proposal."""
    return gibbs_resample(GibbsSpec(bridge=bridge, T=1.0), seed=seed, n=n).paths


def _midpoint_law_pvalue(bridge, mid):
    """One-sample KS p-value of midpoint samples against the bridge's exact
    midpoint law N((x + y)/2, (b - a)/4)."""
    return stats.kstest(mid, "norm", args=(0.5 * (bridge.x + bridge.y),
                                           0.5 * math.sqrt(bridge.length))).pvalue


class TestHamiltonian:
    """The soft-wall interaction H_T(x) = e^{T^{1/3} x} as _weight_rows
    forms it.  On a two-point grid of length 1 a constant gap x = g - L
    integrates exactly, so the weight is W = exp(-H_T(x))."""

    @staticmethod
    def _weights(gaps, T, lower_curve=0.0):
        # paths sit at -gap, so g - L = gap wherever the wall is at 0
        bridge = BridgeSpec(a=0.0, b=1.0, x=0.0, y=0.0, step=1.0)
        spec = GibbsSpec(bridge=bridge, T=T, lower_curve=lower_curve)
        gaps = np.atleast_1d(np.asarray(gaps, dtype=float))
        return _gibbs_weights(spec, -np.repeat(gaps[:, None], 2, axis=1))

    def test_zero_argument(self):
        assert self._weights(0.0, 1.0)[0] == math.exp(-1.0)
        assert self._weights(0.0, 17.3)[0] == math.exp(-1.0)

    def test_reference_value(self):
        # T = 8 gives T^{1/3} = 2
        assert -math.log(self._weights(1.0, 8.0)[0]) == pytest.approx(
            math.exp(2.0), rel=1e-14)

    def test_absent_neighbor_sentinel(self):
        assert self._weights(0.0, 2.0, lower_curve=-math.inf)[0] == 1.0

    def test_vectorized(self):
        out = self._weights([-math.inf, 0.0, 1.0], 8.0)
        assert out.shape == (3,)
        assert out[0] == 1.0 and out[1] == math.exp(-1.0)
        assert out[2] == pytest.approx(math.exp(-math.exp(2.0)))

    def test_log_variant(self):
        # log H_T(x) = T^{1/3} x
        assert math.log(-math.log(self._weights(1.0, 8.0)[0])) == pytest.approx(
            2.0, rel=1e-14)
        assert math.log(-math.log(self._weights(-3.0, 1.0)[0])) == pytest.approx(
            -3.0, rel=1e-14)

    def test_overflow_goes_to_inf_without_raising(self):
        with np.errstate(over="raise", invalid="raise"):
            assert self._weights(1000.0, 8.0)[0] == 0.0

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            self._weights(0.0, -1.0)


class TestBridgeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BridgeSpec(a=1.0, b=0.0, x=0.0, y=0.0)
        with pytest.raises(ValueError):
            BridgeSpec(a=0.0, b=1.0, x=0.0, y=0.0, step=0.0)
        with pytest.raises(ValueError):
            BridgeSpec(a=0.0, b=1.0, x=math.inf, y=0.0)
        with pytest.raises(ValueError, match="interval ends must be finite"):
            BridgeSpec(a=0.0, b=math.inf, x=0.0, y=0.0)
        with pytest.raises(ValueError, match="interval ends must be finite"):
            BridgeSpec(a=-math.inf, b=0.0, x=0.0, y=0.0)

    def test_grid_endpoints(self):
        spec = BridgeSpec(a=-1.0, b=2.0, x=0.0, y=1.0, step=0.25)
        grid = spec.grid
        assert grid[0] == -1.0 and grid[-1] == 2.0
        assert spec.n_steps == 12
        assert grid.shape == (13,)

    def test_step_snapping(self):
        # 0.3 does not divide 1; the step snaps to the nearest count
        spec = BridgeSpec(a=0.0, b=1.0, x=0.0, y=0.0, step=0.3)
        assert spec.n_steps == 3
        assert spec.grid.shape == (4,)

    def test_length(self):
        assert BridgeSpec(a=-2.0, b=3.0, x=0.0, y=0.0).length == 5.0


class TestSampleBridge:
    """Free bridges, sampled by gibbs_resample with no wall, against the
    bridge's closed forms."""

    def test_endpoints_exact(self):
        spec = BridgeSpec(a=0.0, b=1.0, x=0.3, y=-0.7, step=1 / 64)
        paths = _free_bridges(spec, seed=0, n=32)
        assert paths.shape == (32, 65)
        assert np.all(paths[:, 0] == 0.3)
        assert np.all(paths[:, -1] == -0.7)

    def test_single_path_shape(self):
        spec = BridgeSpec(a=0.0, b=1.0, x=0.0, y=0.0, step=0.5)
        path = _free_bridges(spec, seed=1, n=1)
        assert path.shape == (1, 3)

    def test_coarse_two_point_grid(self):
        spec = BridgeSpec(a=0.0, b=1.0, x=1.0, y=2.0, step=1.0)
        path, = _free_bridges(spec, seed=2, n=1)
        assert path[0] == 1.0 and path[-1] == 2.0

    def test_midpoint_variance(self):
        # Var B(t) = t(L-t)/L = 1/4 at the midpoint of [0, 1]
        n = 10**5
        spec = BridgeSpec(a=0.0, b=1.0, x=0.0, y=0.0, step=1 / 64)
        mid = _free_bridges(spec, seed=3, n=n)[:, 32]
        se_var = 0.25 * math.sqrt(2.0 / (n - 1))
        assert mid.var() == pytest.approx(0.25, abs=3 * se_var)
        assert abs(mid.mean()) <= 3 * math.sqrt(0.25 / n)

    def test_mean_is_linear_interpolation(self):
        n = 10**5
        spec = BridgeSpec(a=0.0, b=1.0, x=0.0, y=1.0, step=1 / 64)
        paths = _free_bridges(spec, seed=4, n=n)
        quarter = paths[:, 16]
        se = math.sqrt(quarter.var() / n)
        assert quarter.mean() == pytest.approx(0.25, abs=3 * se)

    def test_covariance(self):
        # Cov(B(s), B(t)) = s(L-t)/L for s <= t
        n = 10**5
        spec = BridgeSpec(a=0.0, b=1.0, x=0.0, y=0.0, step=1 / 64)
        paths = _free_bridges(spec, seed=5, n=n)
        cov = float(np.mean(paths[:, 16] * paths[:, 32]))
        assert cov == pytest.approx(0.25 * 0.5, abs=3e-3)

    def test_deterministic_given_seed(self):
        spec = BridgeSpec(a=0.0, b=1.0, x=0.0, y=0.0, step=1 / 16)
        assert np.array_equal(_free_bridges(spec, seed=7, n=1),
                              _free_bridges(spec, seed=7, n=1))


class TestBridgeMinTail:
    def test_symmetric_entrance_exit(self):
        exact, upper = bridge_min_tail(0.0, 0.0, 1.0, 1.0)
        assert exact == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert upper == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert exact == pytest.approx(0.13534, abs=1e-5)

    def test_asymmetric_example(self):
        exact, upper = bridge_min_tail(0.0, 1.0, 1.0, 1.0)
        assert exact == pytest.approx(math.exp(-4.0), rel=1e-14)
        assert exact == pytest.approx(0.01832, abs=1e-5)
        assert upper == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_zero_depth(self):
        assert bridge_min_tail(0.3, -0.2, 2.0, 0.0) == (1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            bridge_min_tail(0.0, 0.0, 1.0, -0.5)
        with pytest.raises(ValueError, match="s must be >= 0"):
            bridge_min_tail(0.0, 0.0, 1.0, math.nan)
        with pytest.raises(ValueError):
            bridge_min_tail(0.0, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("x,y", [
        (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
        (0.0, math.nan), (0.0, math.inf), (0.0, -math.inf),
    ])
    def test_nonfinite_endpoint_rejected(self, x, y):
        msg = "entrance and exit values must be finite"
        with pytest.raises(ValueError, match=msg):
            bridge_min_tail(x, y, 1.0, 1.0)
        with pytest.raises(ValueError, match=msg):
            bridge_min_tail_mc(x, y, 1.0, 1.0, n=10)

    @given(
        x=st.floats(-3.0, 3.0),
        y=st.floats(-3.0, 3.0),
        L=st.floats(0.1, 10.0),
        s=st.floats(0.0, 5.0),
    )
    def test_exact_below_upper(self, x, y, L, s):
        # (x-m)(y-m) = (s + (x - min))(s + (y - min)) >= s^2
        exact, upper = bridge_min_tail(x, y, L, s)
        assert exact <= upper * (1.0 + 1e-12)
        if x == y:
            assert exact == pytest.approx(upper, rel=1e-12)


class TestBridgeMinTailMC:
    @pytest.mark.parametrize("x,y,L,s", [
        (0.0, 0.5, 1.0, 1.0),
        (0.0, 1.0, 1.0, 1.0),
        (1.0, 0.0, 2.0, 0.5),
    ])
    def test_matches_exact(self, x, y, L, s):
        exact, upper = bridge_min_tail(x, y, L, s)
        mc, se = bridge_min_tail_mc(x, y, L, s, n=10**5, seed=11)
        assert abs(mc - exact) <= 3 * se
        assert mc <= upper

    def test_coarse_grid_still_unbiased(self, monkeypatch):
        # the per-segment crossing correction removes discretization bias
        monkeypatch.setattr(bridges, "_MC_STEPS", 8)
        exact, _ = bridge_min_tail(0.0, 0.5, 1.0, 1.0)
        mc, se = bridge_min_tail_mc(0.0, 0.5, 1.0, 1.0, n=10**5, seed=3)
        assert abs(mc - exact) <= 3 * se

    def test_zero_depth_is_certain(self):
        mc, se = bridge_min_tail_mc(0.0, 1.0, 1.0, 0.0, n=100, seed=0)
        assert mc == 1.0 and se == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bridge_min_tail_mc(0.0, 0.0, 1.0, -1.0, n=10)
        with pytest.raises(ValueError, match="s must be >= 0"):
            bridge_min_tail_mc(0.0, 0.0, 1.0, math.nan, n=10)
        with pytest.raises(ValueError, match="interval ends must be finite"):
            bridge_min_tail_mc(0.0, 0.0, math.inf, 1.0, n=10)
        with pytest.raises(ValueError, match="n must be >= 1"):
            bridge_min_tail_mc(0.0, 0.0, 1.0, 1.0, n=0)


class TestGibbsSpec:
    def _bridge(self):
        return BridgeSpec(a=0.0, b=1.0, x=0.0, y=0.5, step=1 / 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            GibbsSpec(bridge=self._bridge(), T=0.0)
        with pytest.raises(ValueError):
            GibbsSpec(bridge=self._bridge(), T=1.0, lower_curve=math.inf)
        with pytest.raises(ValueError):
            GibbsSpec(bridge=self._bridge(), T=1.0, lower_curve=None)


class TestGibbsResample:
    def _bridge(self):
        return BridgeSpec(a=0.0, b=1.0, x=0.0, y=0.5, step=1 / 64)

    def test_no_wall_is_free_bridge(self):
        spec = GibbsSpec(bridge=self._bridge(), T=1.0)
        res = gibbs_resample(spec, seed=1, n=10**4)
        assert res.mean_weight == 1.0
        assert res.acceptance_rate == 1.0
        assert res.paths.shape == (10**4, 65)
        assert np.all(res.paths[:, 0] == 0.0)
        assert np.all(res.paths[:, -1] == 0.5)

    def test_no_wall_matches_free_bridge_in_law(self):
        spec = GibbsSpec(bridge=self._bridge(), T=1.0)
        mid = spec.bridge.n_steps // 2
        gibbs_mid = gibbs_resample(spec, seed=1, n=10**4).paths[:, mid]
        assert _midpoint_law_pvalue(spec.bridge, gibbs_mid) > 0.01

    @pytest.mark.parametrize("scale,shift", [(1.05, 0.0), (1.0, 0.03)])
    def test_exact_law_check_has_power(self, scale, shift):
        # claim c08's draws, with the fluctuation about the mean 0.05
        # scaled by 5% or the midpoints shifted by 0.03
        bridge = BridgeSpec(a=0.0, b=1.0, x=0.3, y=-0.2, step=1 / 64)
        mid = _free_bridges(bridge, seed=21, n=10**4)[:, bridge.n_steps // 2]
        assert _midpoint_law_pvalue(bridge, mid) >= 0.01
        wrong = 0.05 + scale * (mid - 0.05) + shift
        assert _midpoint_law_pvalue(bridge, wrong) < 0.01

    def test_distant_wall_accepts_almost_surely(self):
        spec = GibbsSpec(bridge=self._bridge(), T=1.0, lower_curve=-20.0)
        res = gibbs_resample(spec, seed=2, n=10**4)
        assert res.acceptance_rate > 0.99
        assert res.mean_weight > 0.99

    def test_near_wall_pushes_paths_up(self):
        n = 10**4
        spec = GibbsSpec(bridge=self._bridge(), T=8.0, lower_curve=-0.5)
        mid = spec.bridge.n_steps // 2
        res = gibbs_resample(spec, seed=3, n=n)
        wall_mid = res.paths[:, mid]
        # the free bridge's midpoint mean is (x + y)/2 = 0.25
        se = math.sqrt(wall_mid.var() / n)
        assert wall_mid.mean() - 0.25 >= 3 * se
        assert 0.0 < res.acceptance_rate < 1.0

    def test_weights_in_unit_interval(self):
        spec = GibbsSpec(bridge=self._bridge(), T=4.0, lower_curve=-0.4)
        paths = _free_bridges(self._bridge(), seed=6, n=256)
        w = _gibbs_weights(spec, paths)
        assert np.all(w > 0.0) and np.all(w <= 1.0)
        assert np.all(w < 1.0)  # finite wall always costs something

    def test_constraining_boundary_raises(self):
        spec = GibbsSpec(bridge=self._bridge(), T=8.0, lower_curve=3.5)
        with pytest.raises(RuntimeError, match="boundary too constraining"):
            gibbs_resample(spec, seed=5, n=1)

    def test_trapezoid_weight_converges_quadratically(self):
        # closed form for a straight-line path against a constant wall:
        # int_0^1 exp(alpha (g - u)) du with alpha = T^{1/3}
        T, g = 8.0, -0.5
        alpha = T ** (1.0 / 3.0)
        exact = math.exp(alpha * g) * (1.0 - math.exp(-alpha)) / alpha
        errs = []
        for m in (16, 32, 64):
            b = BridgeSpec(a=0.0, b=1.0, x=0.0, y=1.0, step=1.0 / m)
            spec = GibbsSpec(bridge=b, T=T, lower_curve=g)
            line = np.linspace(0.0, 1.0, m + 1)[None, :]
            w = _gibbs_weights(spec, line)[0]
            errs.append(abs(-math.log(w) - exact))
        assert errs[0] > errs[1] > errs[2]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)

    def test_validation(self):
        spec = GibbsSpec(bridge=self._bridge(), T=1.0)
        with pytest.raises(ValueError):
            gibbs_resample(spec, seed=0, n=0)


class TestDominance:
    def _spec(self, x=0.0, y=0.5, T=1.0, g=-math.inf):
        return GibbsSpec(bridge=BridgeSpec(a=0.0, b=1.0, x=x, y=y, step=1 / 64),
                         T=T, lower_curve=g)

    def test_identical_specs(self):
        a = self._spec()
        rep = dominance_test(a, a, n=2 * 10**4, seed=9)
        assert rep.passed
        assert rep.max_deficit <= 0.0

    def test_shifted_endpoints(self):
        lower = self._spec(x=-1.0, y=-0.5)
        rep = dominance_test(self._spec(), lower, n=2 * 10**4, seed=9)
        assert rep.passed
        assert rep.max_deficit < 0.0
        # the shift is visible: at the pooled median of the midpoints the
        # test compared (seeds 9 and 10), the lower spec's CDF sits above
        a = gibbs_resample(self._spec(), seed=9, n=2 * 10**4).paths[:, 32]
        b = gibbs_resample(lower, seed=10, n=2 * 10**4).paths[:, 32]
        t = np.median(np.concatenate([a, b]))
        assert np.mean(b <= t) - np.mean(a <= t) > 0.5

    def test_raised_wall(self):
        rep = dominance_test(self._spec(T=4.0, g=-0.3), self._spec(T=4.0, g=-1.3),
                             n=2 * 10**4, seed=9)
        assert rep.passed

    def test_ordering_precondition(self):
        with pytest.raises(ValueError):
            dominance_test(self._spec(x=-1.0, y=-0.5), self._spec(), n=100)
        with pytest.raises(ValueError):
            dominance_test(self._spec(g=-2.0), self._spec(g=-1.0), n=100)

    def test_mismatched_specs_rejected(self):
        with pytest.raises(ValueError):
            dominance_test(self._spec(), self._spec(T=2.0), n=100)
        other = GibbsSpec(bridge=BridgeSpec(a=0.0, b=2.0, x=0.0, y=0.5, step=1 / 64),
                          T=1.0)
        with pytest.raises(ValueError):
            dominance_test(self._spec(), other, n=100)

    def test_report_fields(self):
        rep = dominance_test(self._spec(), self._spec(), n=5000, seed=1)
        assert rep.passed is (rep.max_deficit <= 0.0)
        # worst_t is a point of the quantile grid, 2% to 98%, of the pooled
        # midpoints of bridges from 0 to 0.5: normal, mean 0.25, SD 1/2
        assert abs(rep.worst_t - 0.25) < 1.2


# ---------------------------------------------------------------------------
# Bit identity of the path kernel.  The reference below builds each batch
# whole, with fresh arrays, in one thread: the same draws and the same
# arithmetic as the kernel's blocks, in the same order.  Every output of the
# kernel must equal it bit for bit, whatever the block size.


def _reference_sample_bridges(spec, rng, n):
    m = spec.n_steps
    dt = spec.length / m
    incr = rng.standard_normal((n, m)) * math.sqrt(dt)
    w = np.concatenate([np.zeros((n, 1)), np.cumsum(incr, axis=1)], axis=1)
    frac = np.linspace(0.0, 1.0, m + 1)
    paths = spec.x + w - frac * (w[:, -1:] - (spec.y - spec.x))
    paths[:, 0] = spec.x
    paths[:, -1] = spec.y
    return paths


def _reference_gibbs_weights(spec, paths):
    grid = spec.bridge.grid
    with np.errstate(over="ignore"):
        h = np.exp(spec.T ** (1.0 / 3.0) * (spec.lower_curve - paths))
        integral = np.trapezoid(h, grid, axis=1)
        w = np.exp(-integral)
    return w


def _reference_segment_lower_crossing(paths, barrier, dt):
    ga = paths[:, :-1] - barrier[:-1]
    gb = paths[:, 1:] - barrier[1:]
    with np.errstate(over="ignore"):
        p_seg = np.where((ga > 0) & (gb > 0),
                         np.exp(-2.0 * np.maximum(ga, 0) * np.maximum(gb, 0) / dt),
                         1.0)
    no_cross = np.prod(1.0 - p_seg, axis=1)
    return 1.0 - no_cross


def _reference_gibbs(spec, seed, n):
    rng = np.random.default_rng(seed)
    accepted, n_acc, n_prop, w_sum = [], 0, 0, 0.0
    while n_acc < n:
        take = min(bridges._GIBBS_CHUNK, max(1024, 2 * (n - n_acc)))
        paths = _reference_sample_bridges(spec.bridge, rng, take)
        w = _reference_gibbs_weights(spec, paths)
        keep = rng.random(take) < w
        n_prop += take
        n_acc += int(np.sum(keep))
        w_sum += float(np.sum(w))
        if np.any(keep):
            accepted.append(paths[keep])
    return (np.concatenate(accepted, axis=0)[:n], n_prop, n_acc,
            w_sum / n_prop)


def _reference_mc(x, y, L, s, n, seed):
    spec = BridgeSpec(a=0.0, b=L, x=x, y=y, step=L / bridges._MC_STEPS)
    barrier = np.full(spec.n_steps + 1, min(x, y) - s)
    dt = L / spec.n_steps
    rng = np.random.default_rng(seed)
    total = total_sq = 0.0
    done = 0
    while done < n:
        take = min(bridges._MC_CHUNK, n - done)
        p = _reference_segment_lower_crossing(
            _reference_sample_bridges(spec, rng, take), barrier, dt)
        total += float(np.sum(p))
        total_sq += float(np.sum(p * p))
        done += take
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


def _gibbs_fields(res):
    return res.paths, res.n_proposals, res.n_accepted, res.mean_weight


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert g.shape == w.shape and g.dtype == w.dtype
            assert np.array_equal(g, w)
        else:
            assert g == w and type(g) is type(w)


_KERNEL_SPECS = {
    "no_wall": GibbsSpec(BridgeSpec(a=0.0, b=1.0, x=0.3, y=-0.2, step=1 / 64),
                         T=1.0),
    "bench_wall": GibbsSpec(BridgeSpec(a=0.0, b=1.0, x=0.0, y=0.0, step=1 / 64),
                            T=2.0, lower_curve=0.5),
    "near_wall": GibbsSpec(BridgeSpec(a=0.0, b=1.0, x=0.0, y=0.5, step=1 / 64),
                           T=8.0, lower_curve=-0.5),
    "coarse_long": GibbsSpec(BridgeSpec(a=-1.0, b=2.0, x=1.0, y=-0.5, step=0.3),
                             T=4.0, lower_curve=-1.0),
    "two_point": GibbsSpec(BridgeSpec(a=0.0, b=1.0, x=0.0, y=0.0, step=1.0),
                           T=1.0, lower_curve=-0.5),
}


class TestKernelBitIdentity:
    @pytest.mark.parametrize("name", sorted(_KERNEL_SPECS))
    @pytest.mark.parametrize("n", [1, 2 * bridges._BLOCK_ROWS + 5])
    def test_gibbs_matches_reference(self, name, n):
        spec = _KERNEL_SPECS[name]
        _assert_same(_gibbs_fields(gibbs_resample(spec, seed=3, n=n)),
                     _reference_gibbs(spec, 3, n))

    @pytest.mark.parametrize("name", ["no_wall", "bench_wall"])
    def test_gibbs_beyond_one_batch(self, name):
        spec = _KERNEL_SPECS[name]
        n = bridges._GIBBS_CHUNK + 7
        _assert_same(_gibbs_fields(gibbs_resample(spec, seed=5, n=n)),
                     _reference_gibbs(spec, 5, n))

    @pytest.mark.parametrize("args,n", [
        ((0.0, 0.5, 1.0, 1.0), 1),
        ((-0.5, 0.5, 0.5, 0.8), bridges._BLOCK_ROWS + 3),
        ((0.3, 1.2, 3.0, 1.5), bridges._MC_CHUNK + 2 * bridges._BLOCK_ROWS + 1),
        ((0.0, 1.0, 1.0, 0.0), 100),
    ])
    def test_mc_matches_reference(self, monkeypatch, args, n):
        monkeypatch.setattr(bridges, "_MC_STEPS", 16)
        _assert_same(bridge_min_tail_mc(*args, n=n, seed=11),
                     _reference_mc(*args, n=n, seed=11))

    @pytest.mark.parametrize("rows", [1, 3, 4096])
    def test_block_rows_do_not_change_outputs(self, monkeypatch, rows):
        # sqrt(dt) is not a power of two here, so scaling the increments
        # before or after the cumsum gives different bits
        spec = _KERNEL_SPECS["coarse_long"]
        want_gibbs = _reference_gibbs(spec, 9, 200)
        want_mc = _reference_mc(0.3, 1.2, 3.0, 0.5, 5000, 9)
        monkeypatch.setattr(bridges, "_BLOCK_ROWS", rows)
        # switch threads often, so a block reused before the worker is done
        # with it would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got_gibbs = _gibbs_fields(gibbs_resample(spec, seed=9, n=200))
            got_mc = bridge_min_tail_mc(0.3, 1.2, 3.0, 0.5, n=5000, seed=9)
        finally:
            sys.setswitchinterval(interval)
        _assert_same(got_gibbs, want_gibbs)
        _assert_same(got_mc, want_mc)


class TestKernelWorker:
    @staticmethod
    def _failing_on(monkeypatch, call):
        calls = []
        real = bridges._bridge_rows

        def bridge_rows(*args):
            calls.append(threading.current_thread().name)
            if len(calls) == call:
                raise MemoryError("block failed")
            real(*args)

        monkeypatch.setattr(bridges, "_bridge_rows", bridge_rows)
        monkeypatch.setattr(bridges, "_BLOCK_ROWS", 103)
        return calls

    @staticmethod
    def _live_workers():
        return [t for t in threading.enumerate() if t.name.startswith("bridges")]

    @pytest.mark.parametrize("call", [2, 10])
    def test_worker_error_propagates_and_pool_shuts_down(self, monkeypatch, call):
        # a no-wall Gibbs call of 500 paths draws one batch of 1,024
        # proposals, in blocks of 103: the second block fails with blocks
        # still to draw, the tenth (97 rows) is the last
        calls = self._failing_on(monkeypatch, call)
        with pytest.raises(MemoryError, match="block failed"):
            gibbs_resample(_KERNEL_SPECS["no_wall"], seed=0, n=500)
        assert len(calls) == call
        assert all(name.startswith("bridges") for name in calls)
        assert self._live_workers() == []

    def test_gibbs_and_mc_errors_propagate(self, monkeypatch):
        self._failing_on(monkeypatch, 3)
        with pytest.raises(MemoryError, match="block failed"):
            gibbs_resample(_KERNEL_SPECS["bench_wall"], seed=0, n=10)
        assert self._live_workers() == []
        self._failing_on(monkeypatch, 1)
        with pytest.raises(MemoryError, match="block failed"):
            bridge_min_tail_mc(0.0, 0.5, 1.0, 1.0, n=1000, seed=0)
        assert self._live_workers() == []
