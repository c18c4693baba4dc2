"""Tests for exact binomial tails and envelope-violation verdicts."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from kpztails.bounds import BoundQuery
from kpztails.tails import (CONSISTENT, MIN_EXPECTED_HITS, UNTESTABLE,
                            VIOLATION, bound_violation_report, clopper_pearson)


class TestClopperPearson:
    def test_zero_hits_closed_form(self):
        # upper endpoint solves (1 - p)^n = alpha/2; beta.ppf is accurate to
        # a few ULP, so compare within 4 ULP of the closed form, which
        # expm1 evaluates to within half an ULP here
        lo, hi = clopper_pearson(0, 100, alpha=0.01)
        assert lo == 0.0
        assert hi == pytest.approx(1.0 - 0.005 ** 0.01, abs=1e-15)
        ref = -math.expm1(math.log(0.005) / 100)
        assert abs(Fraction(hi) - Fraction(ref)) <= 4 * math.ulp(ref), hi

    def test_all_hits_closed_form(self):
        # lower endpoint solves p^n = alpha/2
        lo, hi = clopper_pearson(100, 100, alpha=0.01)
        assert hi == 1.0
        assert lo == pytest.approx(0.005 ** 0.01, abs=1e-15)
        ref = math.exp(math.log(0.005) / 100)
        assert abs(Fraction(lo) - Fraction(ref)) <= 4 * math.ulp(ref), lo

    # Endpoints of the 99% interval at hits=50, n=100: the roots of
    # I_x(50, 51) = 0.005 and I_x(51, 50) = 0.995, found by bisecting the
    # regularized incomplete beta function at 60 digits with mpmath
    # (recomputed by test_half_hits_reference_digits).
    HALF_HITS_LO = "0.368861437358924024570073000723"
    HALF_HITS_HI = "0.631138562641075975429926999277"

    def test_half_hits_frozen(self):
        # beta.ppf is accurate to a few ULP, not bit-reproducible across
        # scipy builds: measure each endpoint's exact error in ULP.
        for got, ref in zip(clopper_pearson(50, 100),
                            (self.HALF_HITS_LO, self.HALF_HITS_HI)):
            ulp = math.ulp(float(ref))
            assert abs(Fraction(got) - Fraction(ref)) <= 4 * ulp, (got, ref)

    def test_half_hits_reference_digits(self):
        mpmath = pytest.importorskip("mpmath")

        def quantile(p, a, b):
            lo, hi = mpmath.mpf(0), mpmath.mpf(1)
            for _ in range(160):
                mid = (lo + hi) / 2
                if mpmath.betainc(a, b, 0, mid, regularized=True) < p:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2

        with mpmath.workdps(45):
            for (p, a, b), ref in [(("0.005", 50, 51), self.HALF_HITS_LO),
                                   (("0.995", 51, 50), self.HALF_HITS_HI)]:
                root = quantile(mpmath.mpf(p), a, b)
                assert abs(root - mpmath.mpf(ref)) <= 1e-25 * root

    def test_bitwise_equal_to_beta_ppf(self):
        # betaincinv is the routine behind stats.beta.ppf, called directly
        # to keep scipy.stats out of the package import; the grid reaches
        # the deep-tail cells (a few hits in 10^5) that verdicts read
        for n in (1, 2, 7, 100, 1000, 10**4, 10**5):
            for hits in sorted({0, 1, 2, 3, 5, 10, 20, n // 2, n - 1, n}):
                if not 0 <= hits <= n:
                    continue
                for alpha in (0.5, 0.05, 0.01, 1e-3, 1e-6):
                    ref_lo = (0.0 if hits == 0 else float(stats.beta.ppf(
                        alpha / 2.0, hits, n - hits + 1)))
                    ref_hi = (1.0 if hits == n else float(stats.beta.ppf(
                        1.0 - alpha / 2.0, hits + 1, n - hits)))
                    assert clopper_pearson(hits, n, alpha) == (
                        ref_lo, ref_hi), (hits, n, alpha)

    def test_symmetry(self):
        lo1, hi1 = clopper_pearson(30, 100)
        lo2, hi2 = clopper_pearson(70, 100)
        assert lo1 == pytest.approx(1.0 - hi2, abs=1e-12)
        assert hi1 == pytest.approx(1.0 - lo2, abs=1e-12)

    @pytest.mark.parametrize("hits,n", [(-1, 10), (11, 10)])
    def test_rejects_bad_hits(self, hits, n):
        with pytest.raises(ValueError, match="hits"):
            clopper_pearson(hits, n)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            clopper_pearson(5, 10, alpha=alpha)

    @given(hits=st.integers(0, 200), n=st.integers(1, 200),
           alpha=st.floats(1e-4, 0.5))
    @settings(max_examples=150, deadline=None)
    def test_interval_brackets_estimate(self, hits, n, alpha):
        if hits > n:
            hits = n
        lo, hi = clopper_pearson(hits, n, alpha)
        assert 0.0 <= lo <= hits / n <= hi <= 1.0

    @given(n=st.integers(2, 100), hits=st.integers(0, 99))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_hits(self, n, hits):
        if hits >= n:
            hits = n - 1
        lo1, hi1 = clopper_pearson(hits, n)
        lo2, hi2 = clopper_pearson(hits + 1, n)
        assert lo2 >= lo1 and hi2 >= hi1

    def test_empirical_coverage(self):
        # exact intervals guarantee >= 99% coverage at alpha = 0.01
        rng = np.random.default_rng(7)
        for p, n in [(0.3, 60), (0.01, 100)]:
            hits = rng.binomial(n, p, size=10**4)
            unique, counts = np.unique(hits, return_counts=True)
            covered = 0
            for h, c in zip(unique, counts):
                lo, hi = clopper_pearson(int(h), n)
                covered += c * (lo <= p <= hi)
            assert covered / 10**4 >= 0.99


def _query(theorem, s, T=1.0, **kw):
    return BoundQuery(theorem=theorem, s=s, T=T,
                      constants={"K": 1.0, "K1": 1.0, "K2": 1.0, "s0": 0.0},
                      **kw)


def _cell(samples, theorem, s, **kw):
    """The first verdict row of one query, the one that every family has."""
    return bound_violation_report(samples, [_query(theorem, s)], **kw)[0]


class TestTailEstimate:
    """The tail estimate each verdict carries: hits / n and its interval."""

    def test_fields_and_properties(self):
        x = np.r_[np.full(8, 3.0), np.zeros(392)]
        row = _cell(x, "nw_upper", 2.0, alpha=0.05)
        assert (row.hits, row.n, row.side) == (8, 400, "upper")
        assert row.estimate == 0.02
        assert 0.0 < row.ci_lo < 0.02 < row.ci_hi < 1.0
        assert (row.ci_lo, row.ci_hi) == clopper_pearson(8, 400, 0.05)

    @pytest.mark.parametrize("kwargs", [
        dict(samples=[[1.0, 2.0]]),
        dict(samples=[]),
        dict(samples=[1.0], alpha=0.0),
        dict(samples=[1.0], alpha=1.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError, match="1-d|alpha"):
            bound_violation_report(queries=[_query("nw_upper", 1.0)], **kwargs)


class TestMcTail:
    """Monte Carlo tail counts as bound_violation_report makes them."""

    def test_counts_both_sides(self):
        x = [-3.0, -1.0, 0.0, 1.0, 2.5]
        lower = _cell(x, "nw_lower", 1.0)
        upper = _cell(x, "nw_upper", 1.0)
        assert (lower.hits, lower.n) == (2, 5)  # -3 and -1 are <= -1
        assert (upper.hits, upper.n) == (2, 5)  # 1 and 2.5 are >= 1
        assert lower.side == "lower" and upper.side == "upper"

    def test_threshold_inclusive(self):
        assert _cell([1.0], "nw_upper", 1.0).hits == 1
        assert _cell([-1.0], "nw_lower", 1.0).hits == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="1-d"):
            _cell([[1.0, 2.0]], "nw_upper", 1.0)
        with pytest.raises(ValueError, match="1-d"):
            _cell([], "nw_upper", 1.0)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=60),
           st.floats(0.1, 5.0), st.floats(1e-4, 0.5))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, xs, s, alpha):
        arr = np.array(xs)
        for theorem, hits in (("nw_upper", int((arr >= s).sum())),
                              ("nw_lower", int((arr <= -s).sum()))):
            row = _cell(xs, theorem, s, alpha=alpha)
            assert (row.hits, row.n) == (hits, arr.size)
            assert (row.ci_lo, row.ci_hi) == clopper_pearson(hits, arr.size,
                                                             alpha)


class TestReportVerdicts:
    def test_consistent_cell(self):
        # true tail far below the nw lower-tail upper envelope
        rng = np.random.default_rng(3)
        vals = rng.normal(0.0, 0.5, size=4000)
        rows = bound_violation_report(vals, [_query("nw_lower", 1.0)])
        assert len(rows) == 1  # one verdict per query
        row = rows[0]
        assert row.verdict == CONSISTENT
        assert row.envelope == min(row.envelope_raw, 1.0)
        assert row.ci_lo <= row.estimate <= row.ci_hi

    def test_trivial_envelope_at_small_T(self):
        # upper-tail theorems return an infinite raw envelope for T <= pi,
        # so the clamped cell is consistent with any sample
        row, = bound_violation_report(np.full(100, 50.0),
                                      [_query("nw_upper", 1.0)])
        assert math.isinf(row.envelope_raw)
        assert row.envelope == 1.0
        assert row.verdict == CONSISTENT
        assert row.regime == "none"

    def test_untestable_deep_cell(self):
        # envelope too small for 10 expected hits and no contradiction
        row, = bound_violation_report(np.zeros(100), [_query("nw_lower", 40.0)])
        assert row.n * row.envelope < MIN_EXPECTED_HITS
        assert row.verdict == UNTESTABLE

    def test_deep_violation_not_masked(self):
        # all mass beyond the threshold: interval sits above the tiny
        # envelope, so the depth label must not hide the contradiction
        row, = bound_violation_report(np.full(1000, -50.0),
                                      [_query("nw_lower", 40.0)])
        assert row.n * row.envelope < MIN_EXPECTED_HITS
        assert row.verdict == VIOLATION

    def test_slack_sign(self):
        row, = bound_violation_report(np.zeros(500), [_query("nw_lower", 1.0)])
        assert row.slack == pytest.approx(row.envelope - row.ci_lo)
        assert (row.slack >= 0.0) == (row.verdict != VIOLATION)

    def test_verdict_row_matches_envelope_function(self):
        from kpztails.bounds import nw_lower_tail
        row, = bound_violation_report(np.zeros(500), [_query("nw_lower", 2.0)])
        assert row.envelope_raw == nw_lower_tail(2.0, 1.0, 0.1, 0.1, 1.0).value


class TestReportValidation:
    def test_laplace_query_rejected(self):
        with pytest.raises(ValueError, match="not a tail-probability"):
            bound_violation_report([0.0], [_query("nw_upper_laplace", 1.0)])

    def test_side_table_covers_tail_theorems(self):
        # one sample point in the lower tail, two in the upper: each
        # family's hits show the side that the theorem table gives it
        x = [-2.0, 0.0, 2.0, 2.0]
        for theorem in BoundQuery.THEOREMS:
            side = _query(theorem, 1.0).side
            if theorem == "nw_upper_laplace":
                assert side is None
                continue
            expected = "lower" if theorem.endswith("lower") else "upper"
            assert side == expected, theorem
            row = _cell(x, theorem, 1.0)
            assert (row.side, row.hits) == (
                expected, 1 if expected == "lower" else 2), theorem

    def test_queries_keep_their_order(self):
        # one verdict row per query, in query order, all on one sample
        queries = [_query(th, s) for th in ("nw_lower", "general_upper")
                   for s in (0.5, 1.0, 2.0)]
        rows = bound_violation_report(np.linspace(-3.0, 3.0, 61), queries)
        assert [(r.theorem, r.s) for r in rows] == [
            (q.theorem, q.s) for q in queries]
        assert {r.n for r in rows} == {61}
