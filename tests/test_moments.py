"""Tests for the partition-sum moment machinery.

The k=2 moment has an erfc closed form after rotating coordinates, the
k=3 moments are checked against reference values from an independent
nested adaptive quadrature, and partition counts come from the Euler
dynamic program.  gh_moment_oracle is a plain full-tensor Gauss-Hermite
sum; moment_exact uses the same kind of rule, so agreement with it checks
the slab-wise summation and the node doubling, not the method.
"""

import math
from math import factorial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpztails.moments import (
    Partition,
    cauchy_det_check,
    enumerate_partitions,
    log_psi,
    moment_exact,
    partition_cubic_gap,
    psi,
    siegel_check,
)

# ---------------------------------------------------------------- oracles


def partition_count_oracle(k: int) -> int:
    """Euler's dynamic program for p(k)."""
    p = [1] + [0] * k
    for part in range(1, k + 1):
        for n in range(part, k + 1):
            p[n] += p[n - part]
    return p[k]


def gh_moment_oracle(k: int, T: float, n: int = 80) -> float:
    """Partition sum evaluated with a tensor Gauss-Hermite rule."""
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    t23 = T ** (2.0 / 3.0)
    total = 0.0
    for lam in enumerate_partitions(k):
        parts = lam.parts
        ell = len(parts)
        mult = {}
        for p in parts:
            mult[p] = mult.get(p, 0) + 1
        pref = factorial(k)
        for cnt in mult.values():
            pref //= factorial(cnt)
        log_pref = (math.log(pref) + T * sum(p**3 for p in parts) / 12.0
                    - ell * math.log(2.0 * math.pi)
                    - sum(math.log(T ** (1.0 / 3.0) * p) for p in parts))
        a = [T ** (1.0 / 3.0) * p for p in parts]
        zs = np.meshgrid(*[nodes / math.sqrt(ai) for ai in a], indexing="ij")
        wt = np.ones_like(zs[0])
        for i in range(ell):
            shape = [1] * ell
            shape[i] = n
            wt = wt * weights.reshape(shape)
        cross = np.ones_like(zs[0])
        for i in range(ell):
            for j in range(i + 1, ell):
                d2 = (zs[i] - zs[j]) ** 2
                cross = cross * ((t23 * (parts[i] - parts[j]) ** 2 / 4.0 + d2)
                                 / (t23 * (parts[i] + parts[j]) ** 2 / 4.0 + d2))
        integral = float(np.sum(wt * cross)) * math.prod(1.0 / math.sqrt(ai) for ai in a)
        total += math.exp(log_pref) * integral
    return total


def k2_closed_form_oracle(T: float) -> float:
    """k=2 moment: the (2) part is a single Gaussian integral and the (1,1)
    part rotates to u=(z1-z2)/sqrt2, v=(z1+z2)/sqrt2 where the u-integral is
    int e^{-a u^2}/(u^2 + c^2) du = (pi/c) e^{a c^2} erfc(sqrt(a) c)."""
    a = T ** (1.0 / 3.0)
    b = T ** (2.0 / 3.0)
    c = math.sqrt(b / 2.0)
    term_2 = 2.0 * math.exp(8.0 * T / 12.0) / (2.0 * math.sqrt(math.pi * T) * 2**1.5)
    i_v = math.sqrt(math.pi / a)
    i_u = (math.sqrt(math.pi / a)
           - b * (math.pi / (2.0 * c)) * math.exp(a * c * c)
           * math.erfc(math.sqrt(a) * c))
    pref = math.exp(T / 6.0) / (2.0 * math.pi) ** 2 / (a * a)
    return term_2 + pref * i_v * i_u


# ---------------------------------------------------------------- partitions


class TestPartition:
    def test_fields(self):
        lam = Partition((3, 2, 2, 1))
        assert lam.k == 8
        assert lam.ell == 4
        assert lam.multiplicities == {3: 1, 2: 2, 1: 1}

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Partition(())

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            Partition((2.0, 1.0))


class TestEnumeratePartitions:
    def test_k1(self):
        assert [p.parts for p in enumerate_partitions(1)] == [(1,)]

    def test_counts_k4_k5(self):
        assert len(enumerate_partitions(4)) == 5
        assert len(enumerate_partitions(5)) == 7

    def test_count_k30(self):
        assert len(enumerate_partitions(30)) == partition_count_oracle(30) == 5604

    def test_ascending_lexicographic_and_unique(self):
        for k in (4, 7, 10):
            parts = [p.parts for p in enumerate_partitions(k)]
            assert parts == sorted(parts)
            assert len(set(parts)) == len(parts)
            assert all(sum(t) == k for t in parts)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_partitions(0)
        with pytest.raises(ValueError):
            enumerate_partitions(61)

    @given(k=st.integers(1, 14))
    def test_complete_vs_count_oracle(self, k):
        assert len(enumerate_partitions(k)) == partition_count_oracle(k)


# ---------------------------------------------------------------- psi


class TestPsi:
    def test_value_T4(self):
        # e^{1/3}/(4 sqrt(pi))
        assert psi(1, 4.0) == pytest.approx(math.exp(1.0 / 3.0) / (4.0 * math.sqrt(math.pi)), rel=1e-12)
        assert psi(1, 4.0) == pytest.approx(0.19685, abs=1e-5)

    def test_value_T1(self):
        # e^{1/12}/2 on the small-T branch
        assert psi(1, 1.0) == pytest.approx(math.exp(1.0 / 12.0) / 2.0, rel=1e-12)
        assert psi(1, 1.0) == pytest.approx(0.54345, abs=1e-5)

    def test_branch_values_at_pi(self):
        # the two branch formulas do NOT join continuously at T=pi: the
        # small-T form exceeds the large-T form by exactly sqrt(pi) for
        # every k.  T=pi itself is served by the large-T branch.
        at_pi = psi(1, math.pi)
        assert at_pi == pytest.approx(math.exp(math.pi / 12.0) / (2.0 * math.pi), rel=1e-12)
        small_t_form = math.exp(math.pi / 12.0) / (2.0 * math.sqrt(math.pi))
        assert small_t_form / at_pi == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        for k in (1, 2, 5):
            below = psi(k, math.pi * (1.0 - 1e-13))
            assert below / psi(k, math.pi) == pytest.approx(math.sqrt(math.pi), rel=1e-9)

    def test_overflow_raises_and_log_works(self):
        with pytest.raises(OverflowError):
            psi(60, 8.0)
        assert math.isfinite(log_psi(60, 8.0))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            psi(0, 1.0)
        with pytest.raises(ValueError):
            psi(1, 0.0)

    @given(k=st.integers(1, 5), T=st.floats(0.1, 30.0))
    def test_log_consistency(self, k, T):
        assert math.exp(log_psi(k, T)) == pytest.approx(psi(k, T), rel=1e-12)


# ---------------------------------------------------------------- moments


class TestMomentExact:
    def test_k1_closed_form(self):
        for T in (0.5, 1.0, math.pi, 4.0):
            r = moment_exact(1, T)
            assert r.value == pytest.approx(
                math.exp(T / 12.0) / (2.0 * math.sqrt(math.pi * T)), rel=1e-10)

    def test_k1_reference_value(self):
        assert moment_exact(1, 1.0).value == pytest.approx(0.30661, abs=1e-5)

    def test_k1_heat_kernel_identity(self):
        for T in (0.5, 1.0, math.pi, 4.0):
            lhs = math.exp(-T / 12.0) * moment_exact(1, T).value
            assert lhs == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi * T)), rel=1e-10)

    def test_k2_against_closed_form(self):
        for T in (0.5, 1.0, math.pi, 4.0, 8.0):
            r = moment_exact(2, T)
            assert r.value == pytest.approx(k2_closed_form_oracle(T), rel=1e-9)

    def test_k2_quad_error_covers_error_at_small_T(self):
        # below T = 0.5 the rule can stop at its node cap short of
        # convergence; the reported error must then still cover the truth
        for T in (0.1, 0.2):
            r = moment_exact(2, T)
            assert abs(r.value - k2_closed_form_oracle(T)) <= r.quad_error, T

    # moment_exact(3, T) from nested scipy.integrate.quad (epsabs = epsrel =
    # 1e-10, limit 200) over the box |z_i| <= 8/sqrt(T^{1/3} lambda_i) + 8,
    # whose Gaussian tail outside is below 1e-100; reported quadrature errors
    # 6.9e-11 (T=0.5), 4.8e-11 (T=1) and 1.5e-6 absolute (T=8)
    K3_ADAPTIVE_QUAD = {0.5: 1.6040802154349911, 1.0: 3.191792113796384,
                        8.0: 7561712.95866888}

    def test_k3_against_adaptive_quadrature(self):
        for T, ref in self.K3_ADAPTIVE_QUAD.items():
            assert moment_exact(3, T).value == pytest.approx(ref, rel=1e-9), T

    def test_k2_T4_in_sandwich(self):
        r = moment_exact(2, 4.0)
        lo = psi(2, 4.0)
        assert lo <= r.value <= 69.0 * lo
        assert r.in_sandwich

    def test_k2_regression_value(self):
        assert moment_exact(2, 4.0).value == pytest.approx(1.4414796742, rel=1e-9)

    def test_k3_against_gauss_hermite(self):
        r = moment_exact(3, 4.0)
        assert r.value == pytest.approx(gh_moment_oracle(3, 4.0), rel=1e-8)
        assert r.value == pytest.approx(1319.8746421, rel=1e-7)

    def test_sandwich_all_cells(self):
        # lower constant is 1 above T=pi; at T=pi itself the guaranteed
        # constant degrades to pi^{-1/2} (small-T constant at T0=pi)
        for T in (math.pi, 4.0, 8.0):
            c_lo = 1.0 / math.sqrt(math.pi) if T == math.pi else 1.0
            for k in (1, 2, 3):
                r = moment_exact(k, T)
                lo = psi(k, T)
                tol = r.quad_error + 1e-12 * lo
                assert c_lo * lo - tol <= r.value <= 69.0 * lo + tol, (k, T)
                assert r.in_sandwich

    def test_quad_error_reported_small(self):
        r = moment_exact(2, 4.0)
        assert 0.0 < r.quad_error < 1e-8

    def test_k4_skip_report(self):
        r = moment_exact(4, 1.0)
        skipped = [t for t in r.terms if t.skipped]
        assert [t.partition.parts for t in skipped] == [(1, 1, 1, 1)]
        assert skipped[0].skip_bound > 0.0
        assert r.skipped_mass_bound == pytest.approx(skipped[0].skip_bound)
        # the dominant partition is (4); the skipped mass is negligible
        assert r.skipped_mass_bound < 1e-4 * r.value
        assert r.in_sandwich

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            moment_exact(0, 1.0)
        with pytest.raises(ValueError):
            moment_exact(7, 1.0)

    def test_canonical_term_order(self):
        r = moment_exact(3, 1.0)
        assert [t.partition.parts for t in r.terms] == [(1, 1, 1), (2, 1), (3,)]


# ---------------------------------------------------------------- Cauchy determinant


class TestCauchyDet:
    def test_single_part_exact(self):
        assert cauchy_det_check(Partition((5,)), np.array([0.3j])) == 0.0

    def test_reference_two_by_two(self):
        disc = cauchy_det_check(Partition((2, 1)), np.array([0.3j, -0.7j]))
        assert disc <= 1e-10

    def test_three_by_three_imaginary(self):
        rng = np.random.default_rng(7)
        w = 1j * rng.uniform(-2.0, 2.0, size=3)
        assert cauchy_det_check(Partition((3, 2, 1)), w) <= 1e-10

    def test_hundred_random_instances(self):
        rng = np.random.default_rng(2024)
        done = 0
        while done < 100:
            ell = int(rng.integers(1, 5))
            parts = tuple(sorted(rng.integers(1, 7, size=ell).tolist(), reverse=True))
            w = 1j * rng.uniform(-3.0, 3.0, size=ell)
            try:
                disc = cauchy_det_check(Partition(parts), w)
            except ValueError:
                continue  # resample pole-adjacent draws
            assert disc <= 1e-10
            done += 1

    def test_pole_proximity_raises(self):
        # w_2 + lambda_2 == w_1 exactly
        with pytest.raises(ValueError):
            cauchy_det_check(Partition((2, 1)), np.array([1.0 + 0.0j, 0.0j]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cauchy_det_check(Partition((2, 1)), np.array([0.3j]))


# ---------------------------------------------------------------- cubic gap


class TestPartitionCubicGap:
    def test_two_two(self):
        gap, meets, equal = partition_cubic_gap(Partition((2, 2)))
        assert gap == pytest.approx(4.0)
        assert meets and not equal

    def test_three_one(self):
        gap, meets, equal = partition_cubic_gap(Partition((3, 1)))
        assert gap == pytest.approx(3.0)
        assert meets and equal

    def test_one_one(self):
        gap, meets, equal = partition_cubic_gap(Partition((1, 1)))
        assert gap == pytest.approx(0.5)
        assert meets and equal

    def test_full_enumeration_up_to_12(self):
        for k in range(2, 13):
            for lam in enumerate_partitions(k):
                if lam.parts == (k,):
                    continue
                gap, meets, equal = partition_cubic_gap(lam)
                assert meets, lam.parts
                assert equal == (lam.parts == (k - 1, 1)), lam.parts


# ---------------------------------------------------------------- Siegel


class TestSiegel:
    def test_k1(self):
        value, ok = siegel_check(1)
        assert value == pytest.approx(13.00, abs=5e-3)
        assert ok

    def test_k2_near_extremal(self):
        value, ok = siegel_check(2)
        assert value == pytest.approx(64.55, abs=2e-2)
        assert ok

    def test_k20_tiny(self):
        value, ok = siegel_check(20)
        assert value < 1e-30
        assert ok

    def test_k3_exceeds_68(self):
        # Siegel's count bound e^{pi sqrt(2k/3)} is loose at small k, and at
        # k=3 the resulting expression tops 68 (p(3)=3 but the bound gives
        # ~85); the displayed inequality is false exactly there
        value, ok = siegel_check(3)
        assert value == pytest.approx(98.5734, abs=1e-3)
        assert not ok

    def test_all_k_to_200_except_3(self):
        values = [siegel_check(k)[0] for k in range(1, 201)]
        failing = [k for k, v in enumerate(values, start=1) if v > 68.0]
        assert failing == [3]
        assert int(np.argmax(values)) + 1 == 3

    def test_true_count_weighted_quantity_small(self):
        # what the constant 69 actually needs: with the exact partition count
        # in place of Siegel's bound, the quantity stays below 68 everywhere
        # (its maximum is ~3.5 at k=3)
        for k in range(1, 201):
            log_v = (1.5 * math.log(k) - (k * k - k) / 4.0
                     + math.log(partition_count_oracle(k)))
            assert log_v <= math.log(68.0)
        peak = [math.exp(1.5 * math.log(k) - (k * k - k) / 4.0)
                * partition_count_oracle(k) for k in range(1, 30)]
        assert max(peak) == pytest.approx(3.4783, abs=1e-3)
        assert int(np.argmax(peak)) + 1 == 3
