"""The Laplace identity for the narrow wedge, exact and by GUE sampling.

The narrow-wedge height is tied to the Airy point process a_1 > a_2 > ...
through (Borodin-Gorin 2016)

    E[exp(-exp(T^{1/3}(Upsilon_T(0) - s)))] = E[prod_k I_s(a_k)]
                                            = det(I - K_Ai sigma_s),

with I_s(x) = 1/(1 + e^{T^{1/3}(x - s)}) and sigma_s = 1 - I_s.  Runs
judge laplace_lhs, the mean over simulated Upsilon_T(0) readouts, against
laplace_exact, the determinant by Nystrom quadrature (Bornemann 2010).

laplace_rhs estimates the middle term from the top K edge-scaled
eigenvalues a_k = N^{1/6}(lambda_k - 2 sqrt N) of N by N tridiagonal GUE
draws (diagonal N(0,1), off-diagonal chi_{2(N-k)}/sqrt(2)), with the
dropped tail bounded along a k^{2/3} decay envelope.  No run draws them;
the benchmark's closed_forms workload does.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import she

__all__ = [
    "LaplaceEstimate",
    "sample_gue_edge_many",
    "laplace_lhs",
    "laplace_exact",
    "laplace_rhs",
]

_THIRD = 1.0 / 3.0
# laplace_rhs fails when its K-truncation bound exceeds this
_TRUNCATION_TOL = 0.01
_DET_NODES_START = 60  # laplace_exact's Nystrom nodes: 60, 120, ..., 960
_DET_NODES_MAX = 960
_DET_TOL = 1e-10


def _capsule_pointer(capsule) -> int:
    """The C function pointer held by a Cython __pyx_capi__ capsule."""
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return get_pointer(capsule, get_name(capsule))


@functools.cache
def _dstebz():
    """LAPACK dstebz(range, order, n, vl, vu, il, iu, abstol, d, e, m,
    nsplit, w, iblock, isplit, work, iwork, info), every argument by pointer.

    Resolved on first call, so that importing kpztails does not load
    scipy.linalg.  A CFUNCTYPE call releases the interpreter lock for the
    bisection.
    """
    from scipy.linalg import cython_lapack

    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 18)(
        _capsule_pointer(cython_lapack.__pyx_capi__["dstebz"]))


def _top_eigvals(diag: np.ndarray, off: np.ndarray, K: int) -> np.ndarray:
    """The K largest eigenvalues of the symmetric tridiagonal (diag, off).

    Ascending, as eigh_tridiagonal(diag, off, eigvals_only=True,
    select="i", select_range=(N-K, N-1)) returns them, and with the same
    bits: both call dstebz with range 'I', order 'E', il = N-K+1, iu = N,
    abstol = 0 and workspaces of 4N doubles and 3N ints.
    """
    d = np.ascontiguousarray(diag, dtype=np.float64)
    e = np.ascontiguousarray(off, dtype=np.float64)
    N = d.size
    if e.size != N - 1 or not 1 <= K <= N:
        raise ValueError("need N diagonal and N-1 off-diagonal entries, K <= N")
    # n, il, iu, then the outputs m, nsplit, info
    ints = np.array([N, N - K + 1, N, 0, 0, 0], dtype=np.intc)
    reals = np.array([0.0, 1.0, 0.0])  # vl, vu (unread for range 'I'), abstol
    w = np.empty(N)
    iblock = np.empty(N, dtype=np.intc)
    isplit = np.empty(N, dtype=np.intc)
    work = np.empty(4 * N)
    iwork = np.empty(3 * N, dtype=np.intc)
    i, r = ints.ctypes.data, reals.ctypes.data
    si, sr = ints.itemsize, reals.itemsize
    _dstebz()(b"I", b"E", i, r, r + sr, i + si, i + 2 * si, r + 2 * sr,
              d.ctypes.data, e.ctypes.data, i + 3 * si, i + 4 * si,
              w.ctypes.data, iblock.ctypes.data, isplit.ctypes.data,
              work.ctypes.data, iwork.ctypes.data, i + 5 * si)
    m, info = int(ints[3]), int(ints[5])
    if info != 0 or m != K:
        raise np.linalg.LinAlgError(
            f"dstebz returned info = {info} with {m} of {K} eigenvalues")
    return w[:K]


def _edge_points_one(N: int, K: int, rng: np.random.Generator) -> np.ndarray:
    diag = rng.standard_normal(N)
    k = np.arange(1, N)
    off = np.sqrt(rng.chisquare(2.0 * (N - k))) / math.sqrt(2.0)
    lam = _top_eigvals(diag, off, K)
    return N**(1.0 / 6.0) * (lam[::-1] - 2.0 * math.sqrt(N))


def check_edge_shape(N: int, K: int) -> None:
    """Reject a matrix size N or retained point count K the sampler refuses."""
    if N < 64:
        raise ValueError(f"matrix size N must be at least 64, got {N}")
    if not 1 <= K <= 16:
        raise ValueError(f"retained point count K must lie in [1, 16], got {K}")


def sample_gue_edge_many(N: int, K: int, seed: int, n_samples: int) -> np.ndarray:
    """n_samples independent draws stacked as an (n_samples, K) array.

    Row i holds the top-K edge-scaled eigenvalues a_1 > ... > a_K of one
    N by N draw from row i's she._replica_generators stream, so results
    are a pure function of (seed, n_samples) prefix-stable in n_samples.
    The rows are split into min(she.usable_cores(), n_samples) contiguous
    blocks drawn in parallel threads (she.run_row_blocks), each writing
    only its own rows, so the worker count cannot change them.
    """
    check_edge_shape(N, K)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    out = np.empty((n_samples, K))
    _dstebz()  # resolve the pointer here, not in a worker thread

    def run_block(lo: int, hi: int) -> None:
        for i in range(lo, hi):  # one live stream: a PCG64 holds ~1.5 kB
            stream, = she._replica_generators(seed, i, 1)
            out[i] = _edge_points_one(N, K, np.random.Generator(stream))

    she.run_row_blocks(run_block, n_samples, n_samples)
    return out


@dataclass(frozen=True)
class LaplaceEstimate:
    """Monte Carlo estimate of one side of the Laplace identity."""

    value: float
    se: float
    truncation_bound: float = 0.0


def laplace_lhs(upsilon: np.ndarray, s: float, T: float) -> LaplaceEstimate:
    """Mean of exp(-exp(T^{1/3}(Upsilon - s))) over scalar Upsilon samples.

    The inner exponent is capped at 50 before exponentiating: beyond it
    the double exponential is already 0 in float64, so the cap only
    prevents overflow, never changes a value.
    """
    if not T > 0.0:
        raise ValueError("T must be positive")
    u = np.asarray(upsilon, dtype=float)
    if u.ndim != 1 or u.size < 2:
        raise ValueError("need a 1-d sample of at least two values")
    inner = np.exp(np.minimum(T**_THIRD * (u - s), 50.0))
    vals = np.exp(-inner)
    return LaplaceEstimate(value=float(vals.mean()),
                           se=float(vals.std(ddof=1) / math.sqrt(vals.size)))


def laplace_exact(s: float, T: float) -> tuple[float, float, int]:
    """(det(I - K_Ai sigma_s), quad_error, nodes) at level s and time T.

    Gauss-Legendre Nystrom on [min(s - 40/T^{1/3}, 13), 14] (sigma_s <
    e^{-40} below s - 40/T^{1/3}, K_Ai(x, x) < 1e-32 above 14; the cap at
    13 keeps the window a unit wide at high levels, where the determinant
    is 1 to within that error) with the symmetrized kernel
    sqrt(w sigma) K_Ai sqrt(w sigma), sigma_s(x) = expit(T^{1/3}(x - s));
    log det = sum log1p(-eigenvalue).  The node count doubles from
    _DET_NODES_START until successive log dets agree to _DET_TOL;
    quad_error, the last difference, bounds the value's error too, as
    |e^a - e^b| <= |a - b| for a, b <= 0.  A level still unconverged at
    _DET_NODES_MAX returns NaN, which fails any comparison, not a raise.
    """
    # imported here so that importing kpztails does not load scipy
    from scipy.special import airy, expit, roots_legendre

    if not T > 0.0:
        raise ValueError("T must be positive")
    t13 = T**_THIRD
    lo, hi = min(s - 40.0 / t13, 13.0), 14.0
    n, prev = _DET_NODES_START, None
    while True:
        u, w = roots_legendre(n)
        x = lo + 0.5 * (hi - lo) * (u + 1.0)
        ai, aip, _, _ = airy(x)
        K = np.outer(ai, aip)  # built in place, to hold few n x n arrays
        K -= K.T.copy()
        K /= np.subtract.outer(x, x) + np.eye(n)  # no 0/0 on the diagonal
        np.fill_diagonal(K, aip**2 - x * ai**2)  # the x = y limit
        r = np.sqrt(0.5 * (hi - lo) * w * expit(t13 * (x - s)))
        K *= np.outer(r, r)
        log_det = float(np.sum(np.log1p(-np.linalg.eigvalsh(K))))
        if prev is not None:
            err = abs(log_det - prev)
            if err <= _DET_TOL:
                return math.exp(log_det), err, n
            if n >= _DET_NODES_MAX:
                return math.nan, err, n
        n, prev = 2 * n, log_det


def _tail_bound(worst_aK: float, K: int, s: float, T: float) -> float:
    """Bound on sum_{k>K} J_s(a_k) along the envelope a_k <= b (k/K)^{2/3}.

    b is the least negative observed K-th point; the k^{2/3} decay is the
    Airy-zero growth law anchored at the sample.  Requires b < 0.
    """
    if not worst_aK < 0.0:
        raise ValueError(
            f"cannot bound the dropped tail: observed a_K = {worst_aK:g} >= 0; "
            "increase K")
    t13 = T**_THIRD
    total = 0.0
    k = K + 1
    while True:
        ks = np.arange(k, k + 4096, dtype=float)
        terms = np.exp(np.minimum(
            t13 * (worst_aK * (ks / K)**(2.0 / 3.0) - s), 700.0))
        total += float(terms.sum())
        if total > 50.0:  # 1 - e^-B is already 1 to machine precision
            return total
        if terms[-1] < 1e-18 * max(total, 1e-300):
            return total
        k += 4096
        if k > K + 10**7:  # envelope too shallow to matter numerically
            return math.inf


def laplace_rhs(samples: np.ndarray, s: float, T: float) -> LaplaceEstimate:
    """Mean of prod_{k<=K} I_s(a_k) over edge samples, with tail control.

    samples is an (n, K) array from sample_gue_edge_many.  Each factor is
    I_s = e^{-J_s} with J_s(x) = log(1 + e^{T^{1/3}(x - s)}), in (0, 1),
    so dropping the factors k > K can only raise the product; the
    overshoot is at most value * (1 - e^{-B}) with B bounding
    sum_{k>K} J_s per sample, and that absolute bound is reported.  If it
    exceeds _TRUNCATION_TOL the product is not trustworthy at this K and
    the call fails.
    """
    if not T > 0.0:
        raise ValueError("T must be positive")
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    if pts.shape[0] < 2:
        raise ValueError("need at least two edge samples")
    K = pts.shape[1]
    # log-space product of Fermi factors: prod I = exp(-sum J)
    log_prod = -np.sum(np.logaddexp(0.0, T**_THIRD * (pts - s)), axis=1)
    vals = np.exp(log_prod)
    value = float(vals.mean())
    B = _tail_bound(float(pts[:, -1].max()), K, s, T)
    bound = -math.expm1(-B) * value
    if not bound <= _TRUNCATION_TOL:
        raise ValueError(
            f"truncation bound {bound:.3g} exceeds tolerance {_TRUNCATION_TOL:g} "
            f"at K = {K}; increase K")
    return LaplaceEstimate(value=value,
                           se=float(vals.std(ddof=1) / math.sqrt(vals.size)),
                           truncation_bound=bound)
