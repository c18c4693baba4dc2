"""Tests for the Airy Fredholm determinant, the GUE edge sampler and the
Laplace-identity estimators.

The heavy shared fixture draws 10^4 edge samples at N=512 once; the
Tracy-Widom mean reference is -1.7711 with an explicit +-0.05 finite-N
allowance, and the top-point tail is checked one-sided against the
(4/3)(1-eps)s^{3/2} envelope via an exact binomial upper bound.  The same
draws judge the determinant independently of the simulated heights.
"""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.stats import beta

from kpztails import airy, she
from kpztails.airy import (
    LaplaceEstimate,
    laplace_exact,
    laplace_lhs,
    laplace_rhs,
    sample_gue_edge_many,
)

TW_GUE_MEAN = -1.7711
# det(I - K_Ai sigma_s) at (T, s): the presets' T = 1 and c11's T = 2
FREDHOLM = {(1.0, -1.0): 0.598380817, (1.0, 0.0): 0.790690100,
            (1.0, 1.0): 0.905848458, (2.0, -1.0): 0.652942974,
            (2.0, 0.0): 0.846739155, (2.0, 1.0): 0.944444546}


@pytest.fixture(scope="module")
def edge_batch():
    return sample_gue_edge_many(512, 10, seed=2025, n_samples=10**4)


class TestSampleGueEdge:
    def test_single_draw_reproducible_and_decreasing(self):
        a = sample_gue_edge_many(512, 10, seed=0, n_samples=1)
        b = sample_gue_edge_many(512, 10, seed=0, n_samples=1)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a[0]) < 0.0)
        assert a.shape == (1, 10)

    def test_single_matches_batch_row_zero(self):
        a = sample_gue_edge_many(512, 10, seed=0, n_samples=1)
        many = sample_gue_edge_many(512, 10, seed=0, n_samples=2)
        assert np.array_equal(a[0], many[0])

    def test_prefix_stability(self):
        big = sample_gue_edge_many(128, 4, seed=9, n_samples=30)
        small = sample_gue_edge_many(128, 4, seed=9, n_samples=10)
        assert np.array_equal(big[:10], small)

    def test_every_draw_strictly_decreasing(self):
        batch = sample_gue_edge_many(128, 6, seed=5, n_samples=100)
        assert np.all(np.diff(batch, axis=1) < 0.0)

    def test_top_k_matches_full_spectrum(self):
        # the library's top-index bisection against the full solve
        rng = np.random.Generator(np.random.PCG64(3))
        N, K = 128, 5
        diag = rng.standard_normal(N)
        off = np.sqrt(rng.chisquare(2.0 * (N - np.arange(1, N)))) / math.sqrt(2)
        full = np.sort(eigh_tridiagonal(diag, off, eigvals_only=True))[-K:]
        top = airy._top_eigvals(diag, off, K)
        np.testing.assert_allclose(top, full, rtol=1e-12)

    @pytest.mark.parametrize("N, K, split", [
        (64, 1, False), (128, 5, False), (512, 10, False), (100, 16, False),
        (2048, 3, False), (128, 5, True), (512, 10, True)])
    def test_top_eigvals_bitwise_equal_to_scipy(self, N, K, split):
        rng = np.random.Generator(np.random.PCG64(N + K))
        diag = rng.standard_normal(N)
        off = np.sqrt(rng.chisquare(2.0 * (N - np.arange(1, N)))) / math.sqrt(2)
        if split:  # zero couplings split the matrix into blocks (nsplit > 1)
            off[[N // 4, N // 2, N - 2]] = 0.0
        want = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                select_range=(N - K, N - 1))
        got = airy._top_eigvals(diag, off, K)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("N, K, n", [(128, 4, 11), (64, 3, 2), (64, 2, 1)])
    def test_worker_count_does_not_change_results(self, monkeypatch, N, K, n):
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(she, "usable_cores", lambda: workers)
            runs.append(sample_gue_edge_many(N, K, seed=8, n_samples=n))
        assert runs[0].tobytes() == runs[1].tobytes() == runs[2].tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_in_a_block_propagates(self, monkeypatch, workers):
        def broken(diag, off, K):
            raise np.linalg.LinAlgError("injected block failure")

        monkeypatch.setattr(she, "usable_cores", lambda: workers)
        monkeypatch.setattr(airy, "_top_eigvals", broken)
        with pytest.raises(np.linalg.LinAlgError, match="injected"):
            sample_gue_edge_many(64, 2, seed=0, n_samples=4)

    def test_validation(self):
        with pytest.raises(ValueError, match="64"):
            sample_gue_edge_many(32, 4, seed=0, n_samples=1)
        with pytest.raises(ValueError, match="1, 16"):
            sample_gue_edge_many(128, 0, seed=0, n_samples=1)
        with pytest.raises(ValueError, match="1, 16"):
            sample_gue_edge_many(128, 17, seed=0, n_samples=1)
        with pytest.raises(ValueError, match="at least one"):
            sample_gue_edge_many(128, 4, seed=0, n_samples=0)

    def test_mean_top_point_near_tracy_widom(self, edge_batch):
        m = edge_batch[:, 0].mean()
        assert abs(m - TW_GUE_MEAN) <= 0.05  # contract allowance
        assert m == pytest.approx(-1.7680591481934047, abs=1e-6)  # regression

    def test_top_point_tail_envelope(self, edge_batch):
        # one-sided: exact binomial upper confidence vs e^{-(4/3)(1-eps) s^{3/2}}
        s, eps = 2.0, 0.3
        n = edge_batch.shape[0]
        hits = int(np.sum(edge_batch[:, 0] >= s))
        upper = float(beta.ppf(0.975, hits + 1, n - hits))
        envelope = math.exp(-(4.0 / 3.0) * (1.0 - eps) * s**1.5)
        assert upper <= envelope
        assert hits <= 10  # regression: observed 1 hit at this seed


class TestFermiFactors:
    """The Fermi factor I_s(x) = 1/(1 + e^{T^{1/3}(x - s)}) as laplace_rhs
    forms it, in log space as e^{-J_s(x)}.  Two identical K = 1 rows at x,
    placed far enough below zero that the truncation bound vanishes, make
    the estimate equal to the single factor."""

    @staticmethod
    def _factor(x, s, T):
        return laplace_rhs(np.full((2, 1), x), s=s, T=T).value

    def test_at_the_level(self):
        I = self._factor(-20.0, -20.0, 3.0)
        assert I == pytest.approx(0.5, rel=1e-15)
        assert -math.log(I) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_frozen_point(self):
        assert self._factor(-17.0, -20.0, 1.0) == pytest.approx(
            1.0 / (1.0 + math.e**3), rel=1e-14)
        assert self._factor(-17.0, -20.0, 1.0) == pytest.approx(
            0.04742587317756678, rel=1e-12)

    def test_identity_on_grid(self):
        s, T = -200.0, 2.0
        x = s + np.linspace(-50.0, 50.0, 2001)
        I = np.array([self._factor(xi, s, T) for xi in x])
        direct = 1.0 / (1.0 + np.exp(T ** (1.0 / 3.0) * (x - s)))
        np.testing.assert_allclose(I, direct, rtol=1e-14)

    def test_extreme_arguments_stable(self):
        with np.errstate(over="raise", invalid="raise"):
            assert self._factor(-1.0, -1e6 - 1.0, 8.0) == 0.0
            assert self._factor(-1e6, 0.0, 8.0) == 1.0

    def test_monotonicity(self):
        s = -30.0
        I = np.array([self._factor(s + d, s, 2.0)
                      for d in np.linspace(-4.0, 4.0, 101)])
        assert np.all(np.diff(I) < 0.0)
        assert self._factor(-29.0, -28.0, 2.0) > self._factor(-29.0, -30.0, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            self._factor(-1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="positive"):
            self._factor(-1.0, 0.0, -1.0)


class TestLaplaceLhs:
    def test_constant_at_level(self):
        est = laplace_lhs(np.full(100, 0.7), s=0.7, T=2.0)
        assert est.value == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert est.se <= 1e-16  # identical inputs, rounding-level spread only
        assert est.n == 100

    def test_sure_limit(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(500)
        assert laplace_lhs(u, s=1e9, T=2.0).value == 1.0
        assert laplace_lhs(u, s=-1e9, T=2.0).value == 0.0

    def test_overflow_guard(self):
        with np.errstate(over="raise"):
            est = laplace_lhs(np.array([1e8, 1e8, 0.0]), s=0.0, T=8.0)
        assert est.value == pytest.approx(math.exp(-1.0) / 3.0, rel=1e-12)

    def test_se_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(4000)
        est = laplace_lhs(u, s=0.5, T=2.0)
        vals = np.exp(-np.exp(2.0**(1.0 / 3.0) * (u - 0.5)))
        assert est.value == pytest.approx(vals.mean(), rel=1e-14)
        assert est.se == pytest.approx(vals.std(ddof=1) / math.sqrt(4000),
                                       rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            laplace_lhs(np.zeros(10), s=0.0, T=0.0)
        with pytest.raises(ValueError, match="1-d"):
            laplace_lhs(np.zeros((5, 2)), s=0.0, T=1.0)
        with pytest.raises(ValueError, match="at least two"):
            laplace_lhs(np.zeros(1), s=0.0, T=1.0)


class TestLaplaceRhs:
    def test_sure_limit_high_level(self, edge_batch):
        est = laplace_rhs(edge_batch[:200], s=100.0, T=2.0)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.truncation_bound < 1e-30

    def test_vanishing_limit_low_level(self, edge_batch):
        est = laplace_rhs(edge_batch[:200], s=-30.0, T=2.0)
        assert est.value < 1e-100
        # all dropped factors are ~0, but so is the product: the absolute
        # truncation bound contracts with the value instead of exploding
        assert est.truncation_bound <= est.value

    def test_monotone_nondecreasing_in_s(self, edge_batch):
        vals = [laplace_rhs(edge_batch[:2000], s=s, T=2.0).value
                for s in np.linspace(-2.0, 3.0, 11)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_truncation_bound_small_at_k10(self, edge_batch):
        est = laplace_rhs(edge_batch[:2000], s=0.0, T=2.0)
        assert est.truncation_bound < 1e-5
        assert 0.0 < est.value < 1.0

    def test_k_too_small_nonnegative_anchor(self, edge_batch):
        with pytest.raises(ValueError, match="increase K"):
            laplace_rhs(edge_batch[:500, :1], s=0.0, T=2.0)

    def test_k_too_small_tolerance(self, edge_batch):
        with pytest.raises(ValueError, match="truncation bound"):
            laplace_rhs(edge_batch[:500, :2], s=0.0, T=2.0)

    def test_validation(self, edge_batch):
        with pytest.raises(ValueError, match="positive"):
            laplace_rhs(edge_batch[:10], s=0.0, T=0.0)
        with pytest.raises(ValueError, match="at least two"):
            laplace_rhs(edge_batch[:1], s=0.0, T=2.0)


class TestLaplaceEstimateShape:
    def test_default_truncation_zero(self):
        est = LaplaceEstimate(value=0.5, se=0.01, n=100)
        assert est.truncation_bound == 0.0


class TestLaplaceExact:
    @pytest.mark.parametrize("T, s", sorted(FREDHOLM))
    def test_known_values(self, T, s):
        value, err, nodes = laplace_exact(s, T)
        assert abs(value - FREDHOLM[T, s]) <= 1e-8
        assert err <= airy._DET_TOL
        assert nodes <= airy._DET_NODES_MAX

    @pytest.mark.parametrize("s", [-1.0, 0.0, 1.0])
    def test_matches_gue_edge_product(self, edge_batch, s):
        # independent of the solver: the Fermi product over 10^4 GUE edge
        # draws, within 4 SE plus its K-truncation bound
        est = laplace_rhs(edge_batch, s=s, T=2.0)
        value, err, _ = laplace_exact(s, 2.0)
        tol = 4.0 * est.se + est.truncation_bound + err
        assert abs(est.value - value) <= tol

    @pytest.mark.parametrize("T, s", [(1.0, -1.0), (2.0, 0.0), (8.0, -3.0)])
    def test_one_more_doubling_agrees(self, monkeypatch, T, s):
        value, err, nodes = laplace_exact(s, T)
        assert err <= airy._DET_TOL
        # restart at the returned node count: the next rule is 2 * nodes
        monkeypatch.setattr(airy, "_DET_NODES_START", nodes)
        monkeypatch.setattr(airy, "_DET_NODES_MAX", 2 * nodes)
        finer, finer_err, finer_nodes = laplace_exact(s, T)
        assert finer_nodes == 2 * nodes
        assert finer_err <= airy._DET_TOL
        assert abs(finer - value) <= airy._DET_TOL

    def test_unconverged_level_is_nan(self, monkeypatch):
        # 60 and 120 nodes disagree by about 2e-4 at T = 1, s = 0
        monkeypatch.setattr(airy, "_DET_NODES_MAX", 120)
        value, err, nodes = laplace_exact(0.0, 1.0)
        assert math.isnan(value)
        assert err > airy._DET_TOL and nodes == 120

    def test_limits(self):
        assert laplace_exact(30.0, 2.0)[0] == pytest.approx(1.0, abs=1e-12)
        assert laplace_exact(-6.0, 2.0)[0] < 1e-3
        values = [laplace_exact(s, 2.0)[0] for s in (-3.0, -1.0, 0.0, 2.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_validation(self):
        for T in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                laplace_exact(0.0, T)
