"""Integer exponential moments of the point-seeded stochastic heat equation.

For the multiplicative-noise heat equation started from a point mass, the
centered and scaled height at the origin,

    Upsilon_T(0) = (log Z(2T, 0) + T/12) / T^{1/3},

has exponential moments E[exp(k T^{1/3} Upsilon_T(0))] given by an exact sum
over integer partitions of k.  After deforming the classical contour formula
to the real axis, the partition lambda = (lambda_1 >= ... >= lambda_ell)
contributes

    k!/(m_1! m_2! ...) * prod_i e^{T lambda_i^3/12} / (2 pi)^ell
      * int dz_1..dz_ell prod_i e^{-T^{1/3} lambda_i z_i^2} / (T^{1/3} lambda_i)
      * prod_{i<j} [T^{2/3}(lambda_i-lambda_j)^2/4 + (z_i-z_j)^2]
                 / [T^{2/3}(lambda_i+lambda_j)^2/4 + (z_i-z_j)^2],

where m_j counts parts equal to j.  The cross-product factor lies in (0, 1],
so each integral is dominated by a product of Gaussian integrals; the single
partition (k) evaluates in closed form and produces the envelope

    psi_T(k) <= E[exp(k T^{1/3} Upsilon_T(0))] <= 69 psi_T(k),

with psi_T(k) = k! e^{T k^3/12} / (2 sqrt(pi T) k^{3/2}) for T >= pi and
psi_T(k) = pi^{(k-1)/2} k! e^{T k^3/12} / (2 T^{k/2} k^{3/2}) for T < pi.
The lower envelope holds with constant 1 for T > pi; for T in [T0, pi] the
constant degrades to T0^{(k-1)/2} pi^{-k/2}.

This module evaluates the partition sum with one tensor Gauss-Hermite rule
per partition whose node count doubles until successive rules agree (the
last doubling difference is reported as the quadrature error).  It also
provides psi_T and the combinatorial inequalities that drive the "69"
constant (a cubic gap over partitions and a partition-count bound).

Everything here is a pure function; partition terms are summed in canonical
(ascending lexicographic) order so results are deterministic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Partition",
    "PartitionTerm",
    "MomentResult",
    "enumerate_partitions",
    "log_psi",
    "psi",
    "moment_in_range",
    "moment_exact",
    "cauchy_det_check",
    "partition_cubic_gap",
    "siegel_check",
]

MAX_PARTITION_K = 60
# largest k that moment_exact evaluates
MAX_MOMENT_K = 6
SANDWICH_FACTOR = 69.0
_THIRD = 1.0 / 3.0
# exp() overflows just above this; guard before leaving log space
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
# Gauss-Hermite node doubling: 40, 80, 160, 320.  A 3-part rule costs n^3
# integrand points (3.3e7 at 320), so the count stops there.
_GH_NODES_START = 40
_GH_NODES_MAX = 320
_GH_RTOL = 1e-12
# partitions with more parts than this are skipped, not integrated: a
# 4-part rule would need 320^4 = 1e10 points
_MAX_DIM = 3


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive integer parts; the partition weight k is their sum."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            coerced = tuple(operator.index(p) for p in self.parts)
        except TypeError as exc:
            raise ValueError("parts must be integers") from exc
        if not coerced:
            raise ValueError("a partition needs at least one part")
        if any(p < 1 for p in coerced):
            raise ValueError("parts must be >= 1")
        if any(coerced[i] < coerced[i + 1] for i in range(len(coerced) - 1)):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", coerced)

    @property
    def k(self) -> int:
        return sum(self.parts)

    @property
    def ell(self) -> int:
        return len(self.parts)

    @property
    def multiplicities(self) -> dict[int, int]:
        m: dict[int, int] = {}
        for p in self.parts:
            m[p] = m.get(p, 0) + 1
        return m


def enumerate_partitions(k: int) -> list[Partition]:
    """All partitions of k, complete and duplicate-free.

    The list is ordered ascending-lexicographically by the part tuple, e.g.
    for k=4: (1,1,1,1), (2,1,1), (2,2), (3,1), (4).
    """
    k = operator.index(k)
    if not 1 <= k <= MAX_PARTITION_K:
        raise ValueError(f"k must lie in [1, {MAX_PARTITION_K}], got {k}")
    out: list[Partition] = []

    # each tuple is built largest-first (weakly decreasing); iterating the
    # leading part upward makes the emitted list ascending-lexicographic
    def rec(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for first in range(1, min(remaining, cap) + 1):
            rec(remaining - first, first, prefix + (first,))

    rec(k, k, ())
    return out


def log_psi(k: int, T: float) -> float:
    """log of the moment envelope psi_T(k); branches at T = pi.

    The two branch formulas do not agree at T = pi: their ratio there is
    exactly sqrt(pi) for every k.  T = pi itself uses the T >= pi branch.
    """
    k = operator.index(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not T > 0.0:
        raise ValueError("T must be > 0")
    base = math.lgamma(k + 1) + T * k**3 / 12.0 - math.log(2.0) - 1.5 * math.log(k)
    if T >= math.pi:
        return base - 0.5 * math.log(math.pi * T)
    return base + 0.5 * (k - 1) * math.log(math.pi) - 0.5 * k * math.log(T)


def psi(k: int, T: float) -> float:
    """Moment envelope psi_T(k); log_psi avoids overflow for large k*T."""
    lp = log_psi(k, T)
    if lp > _LOG_FLOAT_MAX:
        raise OverflowError(
            f"psi({k}, {T}) exceeds float range (log value {lp:.6g}); "
            "use log_psi"
        )
    return math.exp(lp)


@dataclass(frozen=True)
class PartitionTerm:
    """One partition's contribution to the moment sum."""

    value: float
    quad_error: float
    skipped: bool


@dataclass(frozen=True)
class MomentResult:
    """Moment value with per-partition breakdown and accuracy accounting."""

    k: int
    T: float
    value: float
    quad_error: float
    skipped_mass_bound: float
    terms: tuple[PartitionTerm, ...]

    @property
    def sandwich_lower_constant(self) -> float:
        """Guaranteed lower-envelope constant: 1 above T = pi, degraded to
        T^{(k-1)/2} pi^{-k/2} at and below it."""
        if self.T > math.pi:
            return 1.0
        return self.T ** ((self.k - 1) / 2.0) * math.pi ** (-self.k / 2.0)

    @property
    def in_sandwich(self) -> bool:
        """True when the value lies in [C psi_T(k), 69 psi_T(k)] for the
        guaranteed constant C = sandwich_lower_constant.

        The moment equals psi_T(k) exactly at the partition (k) alone (k = 1,
        T >= pi), so the comparison allows the reported numerical error.
        """
        lo = psi(self.k, self.T)
        tol = self.quad_error + self.skipped_mass_bound + 1e-12 * lo
        return (self.sandwich_lower_constant * lo - tol
                <= self.value
                <= SANDWICH_FACTOR * lo + tol)


def _log_prefactor(lam: Partition, T: float) -> float:
    """log of k!/(prod m_j!) * prod e^{T lam^3/12} / (2 pi)^ell / prod(T^{1/3} lam)."""
    parts = lam.parts
    lp = math.lgamma(lam.k + 1) + T * sum(p**3 for p in parts) / 12.0
    for cnt in lam.multiplicities.values():
        lp -= math.lgamma(cnt + 1)
    lp -= lam.ell * math.log(2.0 * math.pi)
    lp -= sum(math.log(T**_THIRD * p) for p in parts)
    return lp


def _gaussian_log_integral(parts: tuple[int, ...], T: float) -> float:
    """log of prod_i int e^{-T^{1/3} lam_i z^2} dz (cross factor dropped, it is <= 1)."""
    return sum(0.5 * math.log(math.pi / (T**_THIRD * p)) for p in parts)


def _partition_integral(parts: tuple[int, ...], T: float) -> tuple[float, float]:
    """Integral of the partition's Gaussian-weighted cross-factor product.

    A tensor Gauss-Hermite rule in the scaled coordinates
    x_i = sqrt(T^{1/3} lambda_i) z_i, where the Gaussian weights become
    e^{-x_i^2}, covers the whole space with no box.  The node count doubles
    from _GH_NODES_START until two successive rules agree to _GH_RTOL
    relative or _GH_NODES_MAX is reached; the last rule's value is returned
    with its difference from the one before as the error estimate.  The
    first axis is summed in a loop, so only an n^{ell-1} slab of the tensor
    is live at a time.
    """
    # imported here so that importing kpztails does not load scipy
    from scipy.special import roots_hermite

    ell = len(parts)
    t23 = T ** (2.0 / 3.0)
    scale = [1.0 / math.sqrt(T**_THIRD * p) for p in parts]

    def cross(i: int, j: int, zi, zj):
        d2 = (zi - zj) ** 2
        return ((t23 * (parts[i] - parts[j]) ** 2 / 4.0 + d2)
                / (t23 * (parts[i] + parts[j]) ** 2 / 4.0 + d2))

    n, prev = _GH_NODES_START, None
    while True:
        x, w = roots_hermite(n)
        # open meshes over axes 1..ell-1; axis i is entry i - 1
        zs = np.ix_(*[x * a for a in scale[1:]])
        ws = np.ix_(*[w] * (ell - 1))
        # weights and cross factors among axes 1..ell-1 do not depend on z_0
        slab = np.ones([n] * (ell - 1))
        for i in range(1, ell):
            slab = slab * ws[i - 1]
            for j in range(i + 1, ell):
                slab = slab * cross(i, j, zs[i - 1], zs[j - 1])
        total = 0.0
        for z0, w0 in zip(x * scale[0], w):
            f = slab
            for j in range(1, ell):
                f = f * cross(0, j, z0, zs[j - 1])
            total += float(w0 * np.sum(f))
        value = total * math.prod(scale)
        if prev is not None:
            err = abs(value - prev)
            if err <= _GH_RTOL * abs(value) or n >= _GH_NODES_MAX:
                return value, err
        n, prev = 2 * n, value


def moment_in_range(k: int, T: float) -> bool:
    """Whether neither psi_T(k) nor any partition term's prefactor in
    moment_exact(k, T) overflows; moment_exact raises OverflowError if not."""
    logs = [_log_prefactor(lam, T) for lam in enumerate_partitions(k)]
    return max(logs + [log_psi(k, T)]) <= _LOG_FLOAT_MAX


def moment_exact(k: int, T: float) -> MomentResult:
    """E[exp(k T^{1/3} Upsilon_T(0))] by the partition sum, 1 <= k <= 6.

    Partitions with more than _MAX_DIM = 3 parts are not integrated; each
    one is reported as a skipped term together with an upper bound on its
    contribution (Gaussian integrals with the cross factor bounded by 1).
    So k <= 3 is summed in full, and the skipped mass for k in {4, 5, 6}
    is negligible relative to the total because the dominant partition is
    always (k).

    Each integrated partition uses a tensor Gauss-Hermite rule with node
    doubling (40 up to 320 nodes per axis), and quad_error sums the last
    doubling differences; it estimates the rule's error, not rounding
    (a few parts in 1e16).  For T >= 0.5 the value agrees with the k = 2
    closed form and with adaptive quadrature at k = 3 to 1e-9 relative;
    below that the rule may stop at 320 nodes short of convergence, and the
    reported quad_error bounds the error (checked at k = 2, T = 0.1, 0.2).
    """
    k = operator.index(k)
    if not 1 <= k <= MAX_MOMENT_K:
        raise ValueError(f"k must lie in [1, {MAX_MOMENT_K}], got {k}")
    if not T > 0.0:
        raise ValueError("T must be > 0")
    if not moment_in_range(k, T):
        raise OverflowError(f"moment_exact({k}, {T}) exceeds float range")

    terms: list[PartitionTerm] = []
    total = 0.0
    total_err = 0.0
    total_skip = 0.0
    for lam in enumerate_partitions(k):
        parts = lam.parts
        log_pref = _log_prefactor(lam, T)
        pref = math.exp(log_pref)
        if lam.ell > _MAX_DIM:
            skip_bound = math.exp(log_pref + _gaussian_log_integral(parts, T))
            terms.append(PartitionTerm(0.0, 0.0, True))
            total_skip += skip_bound
            continue
        integral, err = _partition_integral(parts, T)
        value = pref * integral
        terms.append(PartitionTerm(value, pref * err, False))
        total += value
        total_err += pref * err

    return MomentResult(k=k, T=T, value=total, quad_error=total_err,
                        skipped_mass_bound=total_skip,
                        terms=tuple(terms))


def cauchy_det_check(lam: Partition, w: np.ndarray) -> float:
    """Relative discrepancy between det[1/(w_i + lambda_i - w_j)] and its product form.

    The closed product is prod_i 1/lambda_i times, over i < j,
    (w_i - w_j + lambda_i - lambda_j)(w_j - w_i) /
    [(w_i + lambda_i - w_j)(w_j + lambda_j - w_i)].
    Entries of w must keep w_i + lambda_i away from every w_j (no poles).
    """
    w = np.asarray(w, dtype=complex)
    parts = lam.parts
    ell = lam.ell
    if w.shape != (ell,):
        raise ValueError(f"w must have shape ({ell},), got {w.shape}")
    scale = max(1.0, float(np.max(np.abs(w))))
    shifted = w[:, None] + np.array(parts)[:, None] - w[None, :]
    if np.min(np.abs(shifted)) < 1e-8 * scale:
        raise ValueError("pole proximity: some w_i + lambda_i is too close to a w_j")

    det = complex(np.linalg.det(1.0 / shifted))
    prod = 1.0 + 0.0j
    for p in parts:
        prod /= p
    for i in range(ell):
        for j in range(i + 1, ell):
            num = (w[i] - w[j] + parts[i] - parts[j]) * (w[j] - w[i])
            den = (w[i] + parts[i] - w[j]) * (w[j] + parts[j] - w[i])
            prod *= num / den
    if prod == 0:
        raise ValueError("product formula vanished; choose distinct w entries")
    return abs(det - prod) / abs(prod)


def partition_cubic_gap(lam: Partition) -> tuple[float, bool, bool]:
    """Gap k^3/12 - sum lambda_j^3/12 compared against (k^2 - k)/4.

    Returns (gap, meets_bound, is_equality).  Every partition other than (k)
    meets the bound, with equality exactly at (k-1, 1); comparisons are done
    in exact integer arithmetic.
    """
    k = lam.k
    num = k**3 - sum(p**3 for p in lam.parts)  # 12 * gap, an integer
    rhs = 3 * (k**2 - k)  # 12 * (k^2 - k)/4, an integer
    return num / 12.0, num >= rhs, num == rhs


def siegel_check(k: int) -> tuple[float, bool]:
    """Value of k^{3/2} e^{-(k^2-k)/4 + pi sqrt(2k/3)} and whether it is <= 68."""
    k = operator.index(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    log_v = 1.5 * math.log(k) - (k**2 - k) / 4.0 + math.pi * math.sqrt(2.0 * k / 3.0)
    value = math.exp(log_v) if log_v <= _LOG_FLOAT_MAX else math.inf
    return value, value <= 68.0

