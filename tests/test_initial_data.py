import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kpztails.initial_data import (
    BrownianTwoSided,
    Flat,
    GeneralScaled,
    HypParams,
    NarrowWedge,
    Profile,
    make_unscaled_initial,
    scale_center_height,
)


def flat_profile(extent=4.0, n=81):
    y = np.linspace(-extent, extent, n)
    return Profile(y, np.zeros(n))


class TestHypParams:
    def test_accepts_reference_values(self):
        HypParams(C=1.0, nu=0.5, theta=1.0, kappa=1.0, M=1.0)

    @pytest.mark.parametrize("nu", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_nu_outside_open_interval(self, nu):
        with pytest.raises(ValueError):
            HypParams(C=0.0, nu=nu, theta=1.0, kappa=1.0, M=1.0)

    def test_rejects_theta_wider_than_interval(self):
        with pytest.raises(ValueError):
            HypParams(C=0.0, nu=0.5, theta=2.5, kappa=1.0, M=1.0)

    @pytest.mark.parametrize("kw", [{"theta": 0.0}, {"kappa": -1.0}, {"M": 0.0}])
    def test_rejects_nonpositive_scale_params(self, kw):
        base = dict(C=0.0, nu=0.5, theta=1.0, kappa=1.0, M=1.0)
        base.update(kw)
        with pytest.raises(ValueError):
            HypParams(**base)


class TestProfileEvaluation:
    def test_linear_interpolation(self):
        p = Profile(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert p(0.5) == pytest.approx(1.0)

    def test_outside_grid_is_minus_inf(self):
        p = flat_profile(extent=1.0, n=3)
        assert p(1.5) == -np.inf and p(-1.5) == -np.inf

    def test_minus_inf_segment_keeps_finite_node_value(self):
        p = Profile(np.array([-1.0, 0.0, 1.0]), np.array([-np.inf, 3.0, -np.inf]))
        assert p(0.0) == 3.0
        assert p(0.5) == -np.inf
        assert p(-0.25) == -np.inf


class TestMakeUnscaledInitial:
    def test_flat_is_zero(self):
        x = np.linspace(-2, 2, 11)
        H0 = make_unscaled_initial(Flat(), T=0.7, x_grid=x)
        assert H0.shape == x.shape
        assert np.all(H0 == 0.0)

    def test_narrow_wedge_rejected(self):
        # the solver places the narrow wedge's lattice delta itself
        with pytest.raises(TypeError, match="NarrowWedge"):
            make_unscaled_initial(NarrowWedge(), T=1.0, x_grid=np.zeros(3))

    def test_linear_profile_scaling(self):
        # f(y)=y, T=1/2: (2T)^(2/3)=1 so H_0(x) = (1/2)^(1/3) x
        y = np.linspace(-3, 3, 61)
        prof = Profile(y, y.copy())
        hyp = HypParams(C=3.0, nu=0.5, theta=1.0, kappa=3.0, M=1.0)
        T = 0.5
        x = (2 * T) ** (2 / 3) * y
        H0 = make_unscaled_initial(GeneralScaled(prof, hyp), T=T, x_grid=x)
        assert H0 == pytest.approx(0.5 ** (1 / 3) * x)
        assert H0[-1] == pytest.approx(3 * 0.79370, abs=3e-5)

    def test_roundtrip_reproduces_profile(self):
        y = np.linspace(-2, 2, 41)
        prof = Profile(y, np.sin(y))
        hyp = HypParams(C=2.0, nu=0.5, theta=1.0, kappa=2.0, M=1.0)
        T = 1.7
        x = (2 * T) ** (2 / 3) * y
        H0 = make_unscaled_initial(GeneralScaled(prof, hyp), T=T, x_grid=x)
        back = H0 / T ** (1 / 3)
        assert back == pytest.approx(np.sin(y), abs=1e-12)

    def test_brownian_variance_and_pinning(self):
        x = np.linspace(-4, 4, 17)
        draws = np.array([
            make_unscaled_initial(BrownianTwoSided(seed=s), T=1.0, x_grid=x)
            for s in range(4000)
        ])
        i0 = np.argmin(np.abs(x))
        assert np.all(draws[:, i0] == 0.0)
        v = draws.var(axis=0)
        assert v == pytest.approx(np.abs(x), rel=0.12, abs=1e-12)
        # independent increments on opposite sides
        corr = np.corrcoef(draws[:, 0], draws[:, -1])[0, 1]
        assert abs(corr) < 0.06

    def test_brownian_draw_is_seed_deterministic(self):
        x = np.linspace(-1, 1, 9)
        a = make_unscaled_initial(BrownianTwoSided(seed=7), T=1.0, x_grid=x)
        b = make_unscaled_initial(BrownianTwoSided(seed=7), T=1.0, x_grid=x)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("x", [
        np.linspace(-4, 4, 161), np.linspace(-6, 6, 241),
        np.array([0.0, 0.5, 1.0]), np.array([-1.0, -0.3]),
        np.array([-2.0, -0.7, 0.4, 3.0])])
    @pytest.mark.parametrize("seed", [0, 7, 27])
    def test_brownian_path_matches_site_by_site_walk(self, x, seed):
        # the reference walks outward from 0 one site and one normal at a
        # time, positive side first; the arithmetic is the same, so the
        # bits must be too
        rng = np.random.default_rng(seed)
        ref = np.zeros(x.size)
        for side in (np.flatnonzero(x > 0), np.flatnonzero(x < 0)[::-1]):
            prev_x, prev_v = 0.0, 0.0
            for i in side:
                dv = math.sqrt(abs(x[i] - prev_x)) * rng.standard_normal()
                ref[i] = prev_v + dv
                prev_x, prev_v = x[i], ref[i]
        got = make_unscaled_initial(BrownianTwoSided(seed=seed), T=1.0,
                                    x_grid=x)
        assert got.tobytes() == ref.tobytes()

    def test_invalid_T(self):
        with pytest.raises(ValueError):
            make_unscaled_initial(Flat(), T=0.0, x_grid=np.array([0.0, 1.0]))


class TestScaleCenterHeight:
    @pytest.mark.parametrize("initial, general", [
        (NarrowWedge(), False),
        (Flat(), True),
        (BrownianTwoSided(seed=3), True),
        (GeneralScaled(flat_profile(), HypParams(C=1.0, nu=0.5, theta=1.0,
                                                 kappa=1.0, M=1.0)), True),
    ], ids=["NarrowWedge", "Flat", "BrownianTwoSided", "GeneralScaled"])
    def test_centering_follows_initial_type(self, initial, general):
        # Z = 1 reads H = 0 exactly, so the result is the centering alone
        T = 0.8
        center = T / 12 - (2 / 3) * math.log(2 * T) * general
        got = scale_center_height(np.ones(2), T, initial)
        assert got == pytest.approx(center / T ** (1 / 3), rel=1e-15)

    def test_exact_cancellation_general(self):
        T = 0.8
        Z = np.exp([-T / 12 + (2 / 3) * math.log(2 * T)])
        assert scale_center_height(Z, T, Flat())[0] == pytest.approx(
            0.0, abs=1e-14)

    def test_exact_cancellation_upsilon(self):
        T = 1.3
        Z = np.exp([-T / 12])
        assert scale_center_height(Z, T, NarrowWedge())[0] == pytest.approx(
            0.0, abs=1e-14)

    def test_reference_value_at_T_one(self):
        got = scale_center_height(np.array([1.0]), 1.0, Flat())
        assert got[0] == pytest.approx(-0.37876, abs=1e-5)

    def test_nonpositive_readout_raises(self):
        for bad in (0.0, -1.0):
            with pytest.raises(FloatingPointError):
                scale_center_height(np.array([1.0, bad]), 1.0, NarrowWedge())

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ValueError, match="finite"):
            scale_center_height(np.array([1.0, np.inf]), 1.0, NarrowWedge())

    @given(
        c=st.floats(-5, 5),
        T=st.floats(0.1, 8.0),
        initial=st.sampled_from([NarrowWedge(), Flat()]),
    )
    def test_affine_in_height(self, c, T, initial):
        H = np.array([0.3, -0.2, 0.9])
        base = scale_center_height(np.exp(H), T, initial)
        shifted = scale_center_height(np.exp(H + c), T, initial)
        assert shifted == pytest.approx(base + c / T ** (1 / 3), rel=1e-12, abs=1e-12)
