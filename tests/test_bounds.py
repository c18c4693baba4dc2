import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpztails.bounds import (
    BoundQuery,
    BoundResult,
    brownian_upper_tail,
    evaluate_query,
    general_upper_tail,
    lower_tail_upper_general,
    nw_lower_tail,
    nw_upper_laplace_bounds,
    nw_upper_tail,
)

pos_s = st.floats(0.05, 50.0)
pos_T = st.floats(0.05, 1e4)
eps_third = st.floats(0.01, 0.33)
eps_half = st.floats(0.01, 0.49)


class TestGeneralLowerTail:
    def test_reference_three_term_sum(self):
        r = lower_tail_upper_general(1.0, 1.0, 0.1, 0.1, K=1.0)
        assert r.value == pytest.approx(2.18706, abs=1e-5)

    def test_reference_individual_terms(self):
        from kpztails.bounds import _lower_tail_terms
        t = _lower_tail_terms(1.0, 1.0, 0.1, 0.1, 1.0)
        assert t[0] == pytest.approx(0.92645, abs=1e-5)
        assert t[1] == pytest.approx(0.33287, abs=1e-5)
        assert t[2] == pytest.approx(0.92774, abs=1e-5)

    def test_shallow_regime_dominates_at_small_s_large_T(self):
        from kpztails.bounds import _lower_tail_terms
        r = lower_tail_upper_general(4.0, 100.0, 0.1, 0.1, K=1.0)
        t = _lower_tail_terms(4.0, 100.0, 0.1, 0.1, 1.0)
        # deep term ~ e^(-11.347) beats the intermediate term ...
        assert t[0] == pytest.approx(math.exp(-11.347), rel=1e-3)
        assert t[0] > t[1]
        # ... but the shallow cubic term wins outright at s << T^(2/3)
        assert r.regime == "III_low"

    def test_deep_regime_at_large_s_small_T(self):
        assert lower_tail_upper_general(30.0, 0.1, 0.1, 0.1).regime == "I_low"

    # s capped so the envelope stays above float underflow (0.0 == 0.0 otherwise)
    @given(s=st.floats(0.05, 12.0), T=pos_T, eps=eps_third, delta=eps_third)
    def test_strictly_decreasing_in_s(self, s, T, eps, delta):
        v1 = lower_tail_upper_general(s, T, eps, delta).value
        v2 = lower_tail_upper_general(s * 1.25, T, eps, delta).value
        assert v2 < v1

    @given(s=pos_s, T=pos_T, eps=eps_third, delta=eps_third, K=st.floats(0.1, 10))
    def test_brownian_variant_is_identical(self, s, T, eps, delta, K):
        a = lower_tail_upper_general(s, T, eps, delta, K)
        b = evaluate_query(BoundQuery(
            theorem="brownian_lower", s=s, T=T, eps=eps, delta=delta,
            constants={"K": K}))
        assert a == b

    @pytest.mark.parametrize("eps,delta", [(0.4, 0.1), (0.1, 0.34), (0.0, 0.1)])
    def test_parameter_range_enforced(self, eps, delta):
        with pytest.raises(ValueError):
            lower_tail_upper_general(1.0, 1.0, eps, delta)


class TestNwLowerTail:
    def test_upper_matches_general_formula_with_K1(self):
        r = nw_lower_tail(1.0, 1.0, 0.1, 0.1, K1=1.0, K2=1.0)
        assert r.value == pytest.approx(2.18706, abs=1e-5)

    def test_lower_two_term_form(self):
        r = nw_lower_tail(2.0, 1.0, 0.1, 0.1, K1=1.0, K2=1.0)
        expect = (math.exp(-4 * 2**2.5 * 1.1 / (15 * math.pi))
                  + math.exp(-8.0))
        assert r.value_lower == pytest.approx(expect, rel=1e-12)

    def test_lower_below_upper_on_sweep_grid(self):
        for s in np.linspace(1, 10, 10):
            for T in np.geomspace(1, 100, 9):
                r = nw_lower_tail(s, T, 0.1, 0.1, K1=1.0, K2=1.0)
                assert r.value_lower <= r.value

    def test_small_s_raw_values_near_two(self):
        r = nw_lower_tail(1e-4, 1.0, 0.1, 0.1)
        assert r.value == pytest.approx(3.0, abs=0.01)  # three raw terms -> 1 each
        assert r.value_lower == pytest.approx(2.0, abs=0.01)


class TestRegimeClassification:
    def test_reference_regime_i(self):
        assert nw_upper_tail(1.0, 1000.0, 0.3).regime == "i"

    def test_threshold_value_reference(self):
        # eps=0.3, T=1000: lo = 0.09*100/8 = 1.125
        assert nw_upper_tail(1.1249, 1000.0, 0.3).regime == "i"
        assert nw_upper_tail(1.1251, 1000.0, 0.3).regime == "iii"

    def test_tie_at_upper_threshold_is_regime_ii(self):
        eps, T = 0.3, 4.0
        hi = (9 / 16) * T ** (2 / 3) / eps**2
        assert nw_upper_tail(hi, T, eps).regime == "ii"
        assert nw_upper_tail(hi - 1e-9, T, eps).regime == "iii"

    def test_lower_threshold_belongs_to_iii(self):
        eps, T = 0.3, 1000.0
        lo = eps**2 * T ** (2 / 3) / 8
        assert nw_upper_tail(lo, T, eps).regime == "iii"

    def test_small_T_has_no_regime(self):
        assert nw_upper_tail(5.0, 3.0, 0.3).regime == "none"
        assert nw_upper_tail(5.0, math.pi, 0.3).regime == "none"

    def test_general_variant_uses_eps_cubed_and_mu_factor(self):
        # eps=0.1, mu=0.1, T=1000: lo = (1/8)(0.001)(1/0.93333)*100 = 0.013393
        lo_edge = 0.013393
        assert general_upper_tail(lo_edge * 0.99, 1000.0, 0.1, 0.1).regime == "i"
        assert general_upper_tail(lo_edge * 1.01, 1000.0, 0.1,
                                  0.1).regime == "iii"

    @given(s=st.floats(0.01, 1e4), T=st.floats(3.2, 1e4), eps=eps_half,
           mu=eps_half)
    def test_partition_exactly_one_label(self, s, T, eps, mu):
        for r in (nw_upper_tail(s, T, eps), general_upper_tail(s, T, eps, mu)):
            assert r.regime in ("i", "ii", "iii")


class TestNwUpperTail:
    def test_reference_regime_i_pair(self):
        r = nw_upper_tail(1.0, 1000.0, 0.3)
        assert r.regime == "i"
        assert r.c1 == pytest.approx(1.73333, abs=1e-5)
        assert r.c2 == pytest.approx(0.93333, abs=1e-5)
        assert (r.value_lower, r.value) == (
            pytest.approx(math.exp(-4 / 3 * 1.3), rel=1e-12),
            pytest.approx(math.exp(-4 / 3 * 0.7), rel=1e-12))
        # five-digit reference: (0.17669, 0.39324)
        assert (r.value_lower, r.value) == (pytest.approx(0.17668, abs=2e-5),
                                            pytest.approx(0.39326, abs=2e-5))

    def test_reference_regime_ii_coefficient(self):
        r = nw_upper_tail(100.0, 4.0, 0.3)
        assert r.regime == "ii"
        assert r.c1 == pytest.approx(9.00666, abs=1e-5)

    def test_regime_iii_coefficients(self):
        eps, T = 0.3, 1000.0
        r = nw_upper_tail(10.0, T, eps)  # between 1.125 and 625
        assert r.regime == "iii"
        assert r.c1 == pytest.approx(2**3.5 / eps**3)
        assert r.c2 == pytest.approx(4 * eps / 3)

    def test_small_T_is_vacuous(self):
        r = nw_upper_tail(2.0, 1.0, 0.3)
        assert r.regime == "none"
        assert math.isinf(r.value) and r.value_lower == 0.0
        assert "T > pi" in r.validity_note

    @given(s=st.floats(1.0, 40.0), T=st.floats(3.2, 1e4), eps=eps_half)
    def test_c1_exceeds_c2_everywhere(self, s, T, eps):
        r = nw_upper_tail(s, T, eps, s0=0.0)
        assert r.c1 > r.c2
        assert r.value_lower < r.value


class TestGeneralUpperTail:
    def test_regime_i_reference_coefficients(self):
        r = general_upper_tail(0.01, 1000.0, 0.1, 0.1, s0=0.0)
        assert r.regime == "i"
        assert r.c1 == pytest.approx(3.22667, abs=1e-5)
        assert r.c2 == pytest.approx(0.38184, abs=1e-5)

    def test_regime_ii_coefficients(self):
        eps, mu = 0.1, 0.1
        hi = (9 / 16) / eps**2 / (1 - 2 * mu / 3) * 1000 ** (2 / 3)
        r = general_upper_tail(hi + 1.0, 1000.0, eps, mu)
        assert r.regime == "ii"
        assert r.c1 == pytest.approx(8 * math.sqrt(3) * 1.1 * 1.1)

    def test_regime_iii_coefficients(self):
        r = general_upper_tail(10.0, 1000.0, 0.1, 0.1)
        assert r.regime == "iii"
        assert r.c1 == pytest.approx(2**4.5 / 0.1**3 * 1.1)
        assert r.c2 == pytest.approx(math.sqrt(2) / 3 * 0.9 * 0.1)

    @given(s=st.floats(1.0, 40.0), T=st.floats(3.2, 1e4), eps=eps_half,
           mu=eps_half)
    def test_c1_exceeds_c2_everywhere(self, s, T, eps, mu):
        r = general_upper_tail(s, T, eps, mu, s0=0.0)
        assert r.c1 > r.c2


class TestBrownianUpperTail:
    def test_extra_term_reference_value(self):
        r = general_upper_tail(10.0, 1000.0, 0.1, 0.1)
        rb = brownian_upper_tail(10.0, 1000.0, 0.1, 0.1)
        extra = rb.value - r.value
        assert extra == pytest.approx(0.93787, abs=1e-4)

    @given(s=st.floats(1.0, 30.0), T=st.floats(3.2, 1e4), eps=eps_half,
           mu=eps_half)
    def test_dominates_general_upper(self, s, T, eps, mu):
        rg = general_upper_tail(s, T, eps, mu, s0=0.0)
        rb = brownian_upper_tail(s, T, eps, mu, s0=0.0)
        assert rb.value > rg.value
        assert rb.value_lower == rg.value_lower

    def test_upper_vanishes_at_large_s(self):
        # dominated by the extra term exp(-(mu s)^(3/2)/(9 sqrt 3)) ~ e^-64
        assert brownian_upper_tail(500.0, 1000.0, 0.2, 0.2).value < 1e-27


class TestLaplaceRouteBounds:
    def test_reference_upper_value(self):
        r = nw_upper_laplace_bounds(1.0, 1.0, 0.2, 0.2)
        assert r.value == pytest.approx(1.16288, abs=1e-5)

    def test_lower_side_form(self):
        r = nw_upper_laplace_bounds(1.0, 1.0, 0.2, 0.2)
        expect = math.exp(-1.2) + math.exp(-(4 / 3) * 1.2)
        assert r.value_lower == pytest.approx(expect, rel=1e-12)

    def test_gaussian_term_negligible_at_huge_T(self):
        r = nw_upper_laplace_bounds(1.0, 1e6, 0.2, 0.2)
        assert r.value == pytest.approx(math.exp(-(4 / 3) * 0.8), rel=1e-4)

    def test_zeta_above_eps_rejected(self):
        with pytest.raises(ValueError):
            nw_upper_laplace_bounds(1.0, 1.0, 0.1, 0.2)

    def test_zeta_equal_eps_allowed(self):
        nw_upper_laplace_bounds(1.0, 1.0, 0.3, 0.3)

    @given(s=st.floats(0.05, 15.0), T=st.floats(0.05, 500.0),
           eps=st.floats(0.02, 0.9))
    def test_strictly_decreasing_in_s(self, s, T, eps):
        r1 = nw_upper_laplace_bounds(s, T, eps, eps / 2)
        r2 = nw_upper_laplace_bounds(s * 1.25, T, eps, eps / 2)
        assert r2.value < r1.value and r2.value_lower < r1.value_lower


class TestQueryDispatch:
    def test_every_family_evaluates(self):
        for theorem in BoundQuery.THEOREMS:
            q = BoundQuery(theorem=theorem, s=2.0, T=8.0, eps=0.2, delta=0.2,
                           mu=0.2, zeta=0.2)
            assert isinstance(evaluate_query(q), BoundResult)

    def test_constants_flow_through(self):
        q = BoundQuery(theorem="general_lower", s=2.0, T=1.0,
                       constants={"K": 3.0})
        r = evaluate_query(q)
        direct = lower_tail_upper_general(2.0, 1.0, 0.1, 0.1, K=3.0)
        assert r.value == direct.value

    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_each_family_calls_its_own_function(self, s):
        # every parameter and constant differs from its default and from the
        # others, so a family wired to another's function, or a constant
        # passed in another's place, changes some result; s = 0.5 lies below
        # s0 (vacuous upper tails) and s = 2.0 above it
        T, eps, delta, mu, zeta = 8.0, 0.2, 0.15, 0.25, 0.1
        K, K1, K2, s0 = 2.0, 3.0, 5.0, 0.7
        direct = {
            "general_lower": lower_tail_upper_general(s, T, eps, delta, K),
            "nw_lower": nw_lower_tail(s, T, eps, delta, K1, K2),
            "nw_upper": nw_upper_tail(s, T, eps, s0=s0),
            "general_upper": general_upper_tail(s, T, eps, mu, s0=s0),
            "brownian_lower": lower_tail_upper_general(s, T, eps, delta, K),
            "brownian_upper": brownian_upper_tail(s, T, eps, mu, s0=s0),
            "nw_upper_laplace": nw_upper_laplace_bounds(s, T, eps, zeta),
        }
        assert tuple(direct) == BoundQuery.THEOREMS
        for theorem, r in direct.items():
            q = BoundQuery(theorem=theorem, s=s, T=T, eps=eps, delta=delta,
                           mu=mu, zeta=zeta,
                           constants={"K": K, "K1": K1, "K2": K2, "s0": s0})
            assert evaluate_query(q) == r, theorem

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            BoundQuery(theorem="not_a_family", s=1.0, T=1.0)

    @pytest.mark.parametrize("s, T", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_threshold_or_time_rejected(self, s, T):
        # a NaN threshold would count no hits and read CONSISTENT
        with pytest.raises(ValueError, match="finite and positive"):
            BoundQuery("nw_lower", s=s, T=T)

    @pytest.mark.parametrize("constants", [
        {"s0": math.nan}, {"K": math.inf}, {"K1": -math.inf}])
    def test_non_finite_constant_rejected(self, constants):
        # s < NaN is false, so a NaN s0 would drop the validity threshold
        with pytest.raises(ValueError, match="constants must be finite"):
            BoundQuery("nw_upper", s=1.0, T=8.0, constants=constants)

    @pytest.mark.parametrize("T", [1.0, 4.0])
    @pytest.mark.parametrize("s", [1e200, 1e300])
    @pytest.mark.parametrize("theorem", BoundQuery.THEOREMS)
    def test_huge_threshold_envelopes_vanish(self, theorem, s, T):
        # s^3 or s^1.5 passes the float range: every envelope that is not
        # vacuous is exactly 0
        q = BoundQuery(theorem, s=s, T=T)
        r = evaluate_query(q)
        vacuous = r.regime == "none" and q.side == "upper"
        assert r.value == (math.inf if vacuous else 0.0)
        assert r.value_lower in (None, 0.0)

    def test_result_rejects_inverted_coefficients(self):
        with pytest.raises(ValueError):
            BoundResult(value=0.5, regime="i", c1=0.1, c2=0.9)

    @pytest.mark.parametrize("value", [math.nan, -math.inf, -1.0])
    def test_result_rejects_negative_or_nan_value(self, value):
        with pytest.raises(ValueError, match="nonnegative"):
            BoundResult(value=value, regime="i")

    @pytest.mark.parametrize("lower", [math.nan, -math.inf, -1.0, 0.9])
    def test_result_rejects_lower_envelope_outside_zero_to_value(self, lower):
        with pytest.raises(ValueError, match="lower envelope must lie"):
            BoundResult(value=0.5, regime="i", value_lower=lower)

    @pytest.mark.parametrize("value, lower", [
        (0.5, 0.0), (0.5, 0.5), (math.inf, 0.0), (math.inf, 0.3), (0.0, 0.0)])
    def test_result_accepts_lower_envelope_in_zero_to_value(self, value,
                                                            lower):
        assert BoundResult(value=value, regime="i",
                           value_lower=lower).value_lower == lower

    def test_inverted_two_sided_envelope_rejected(self):
        # a small K2 lifts nw_lower's lower envelope (1.207) above its upper
        # one (0.436)
        with pytest.raises(ValueError, match="lower envelope must lie"):
            nw_lower_tail(3.0, 1.0, 0.1, 0.1, K1=1.0, K2=0.001)
        q = BoundQuery("nw_lower", s=3.0, T=1.0,
                       constants={"K1": 1.0, "K2": 0.001})
        with pytest.raises(ValueError, match="lower envelope must lie"):
            evaluate_query(q)


@settings(max_examples=60)
@given(s=st.floats(0.5, 15.0), T=st.floats(3.5, 1e4),
       eps=st.floats(0.1, 0.49), mu=st.floats(0.1, 0.49))
def test_two_sided_envelopes_decrease_in_s(s, T, eps, mu):
    for fn in (lambda a: nw_upper_tail(a, T, eps, s0=0.0),
               lambda a: general_upper_tail(a, T, eps, mu, s0=0.0),
               lambda a: brownian_upper_tail(a, T, eps, mu, s0=0.0)):
        r1, r2 = fn(s), fn(s * 1.2)
        if r1.regime == r2.regime:  # coefficients jump between regimes
            assert r2.value < r1.value
            if r2.value_lower > 0.0:  # regime iii cubic exponent can underflow
                assert r2.value_lower < r1.value_lower
