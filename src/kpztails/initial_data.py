"""Initial-data classes for the KPZ / stochastic-heat-equation toolkit.

Scaled initial profiles f live on the KPZ-scaled coordinate y; the unscaled
height at lattice position x is H_0(x) = T^(1/3) f((2T)^(-2/3) x).  Admissible
profiles satisfy a parabolic upper bound f(y) <= C + nu*y^2/2^(2/3) and a
floor condition: some subinterval of [-M, M] of length theta on which
f >= -kappa.  Profiles are piecewise linear on a finite grid with -inf
sentinel values allowed (f is -inf outside its grid).

Height observables at time 2T are centered and scaled by

    upsilon(y)  = (H(2T, (2T)^(2/3) y) + T/12) / T^(1/3)          narrow wedge
    h(y)        = (H(2T, (2T)^(2/3) y) + T/12 - (2/3) log(2T)) / T^(1/3)

the second form applying to every initial data but the narrow wedge;
scale_center_height chooses the form by the type of the initial data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class HypParams:
    """Admissibility parameters (C, nu, theta, kappa, M) for scaled profiles."""

    C: float
    nu: float
    theta: float
    kappa: float
    M: float

    def __post_init__(self) -> None:
        if not 0.0 < self.nu < 1.0:
            raise ValueError(f"nu must lie strictly inside (0, 1), got {self.nu}")
        for name in ("theta", "kappa", "M"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.theta > 2.0 * self.M:
            raise ValueError(
                f"theta={self.theta} exceeds 2M={2 * self.M}; "
                "a length-theta subinterval must fit inside [-M, M]"
            )


@dataclass(frozen=True)
class Profile:
    """Piecewise-linear profile y -> f(y) on a strictly increasing grid.

    Values may be -inf (excluded region).  Outside the grid f is -inf.
    """

    y: np.ndarray
    f: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        f = np.asarray(self.f, dtype=float)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "f", f)
        if y.ndim != 1 or y.size < 2:
            raise ValueError("profile grid needs at least two points")
        if y.shape != f.shape:
            raise ValueError("grid and value arrays must have equal length")
        if not np.all(np.diff(y) > 0):
            raise ValueError("profile grid must be strictly increasing")
        if np.any(np.isnan(f)) or np.any(f == np.inf):
            raise ValueError("profile values must be finite or -inf")

    def __call__(self, yq) -> np.ndarray:
        """Evaluate by linear interpolation; -inf outside the grid and on any
        segment with a -inf endpoint (except exactly at a finite node)."""
        yq = np.asarray(yq, dtype=float)
        scalar = yq.ndim == 0
        yq = np.atleast_1d(yq)
        out = np.full(yq.shape, -np.inf)
        inside = (yq >= self.y[0]) & (yq <= self.y[-1])
        if np.any(inside):
            yi = yq[inside]
            idx = np.clip(np.searchsorted(self.y, yi, side="right") - 1, 0, self.y.size - 2)
            y0, y1 = self.y[idx], self.y[idx + 1]
            f0, f1 = self.f[idx], self.f[idx + 1]
            t = (yi - y0) / (y1 - y0)
            with np.errstate(invalid="ignore"):
                vals = np.where(
                    t == 0.0, f0,
                    np.where(
                        t == 1.0, f1,
                        np.where(np.isfinite(f0) & np.isfinite(f1),
                                 f0 + t * (f1 - f0), -np.inf),
                    ),
                )
            # exact hit on the last node
            vals = np.where(yi == self.y[-1], self.f[-1], vals)
            out[inside] = vals
        return out[0] if scalar else out


@dataclass(frozen=True)
class NarrowWedge:
    """Delta initial mass at the origin."""


@dataclass(frozen=True)
class Flat:
    """H_0 identically zero (f identically 0)."""


@dataclass(frozen=True)
class BrownianTwoSided:
    """Two-sided Brownian H_0 pinned to 0 at the origin."""

    seed: int = 0


@dataclass(frozen=True)
class GeneralScaled:
    """Scaled profile f with its admissibility parameters."""

    profile: Profile
    hyp: HypParams


InitialData = Union[NarrowWedge, Flat, BrownianTwoSided, GeneralScaled]


def make_unscaled_initial(data: InitialData, T: float,
                          x_grid: np.ndarray) -> np.ndarray:
    """The unscaled initial height H_0 on the lattice sites x_grid.

    GeneralScaled gives H_0(x) = T^(1/3) f((2T)^(-2/3) x), Flat zeros, and
    BrownianTwoSided a pinned two-sided path.  NarrowWedge has no initial
    height (the solver places its lattice delta) and raises, as does any
    other type.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    x = np.asarray(x_grid, float)
    if isinstance(data, Flat):
        return np.zeros(x.size)
    if isinstance(data, BrownianTwoSided):
        return _two_sided_brownian(x, data.seed)
    if isinstance(data, GeneralScaled):
        return T ** (1.0 / 3.0) * data.profile(x / (2.0 * T) ** (2.0 / 3.0))
    raise TypeError(f"no initial height function for {data!r}")


def _two_sided_brownian(x: np.ndarray, seed) -> np.ndarray:
    """Gaussian path with B(0)=0 and Var[B(x)] = |x| on a sorted grid."""
    rng = np.random.default_rng(seed)
    H0 = np.zeros(x.size)
    pos = np.flatnonzero(x > 0)
    neg = np.flatnonzero(x < 0)[::-1]  # walk outward from 0
    for side in (pos, neg):
        steps = np.sqrt(np.abs(np.diff(x[side], prepend=0.0)))
        H0[side] = np.cumsum(steps * rng.standard_normal(side.size))
    return H0


def scale_center_height(Z, T: float, initial: InitialData) -> np.ndarray:
    """Centered/scaled heights at time 2T from field readouts Z(2T, X).

    The height is the Cole-Hopf H = log Z.  For the narrow wedge the result
    is upsilon = (H + T/12)/T^(1/3); every other initial data, Brownian
    included, also subtracts (2/3) log(2T) from H + T/12.  A nonpositive
    readout raises FloatingPointError, a non-finite result ValueError.
    """
    with np.errstate(divide="raise", invalid="raise"):
        H = np.log(np.asarray(Z, dtype=float))
    center = T / 12.0
    if not isinstance(initial, NarrowWedge):
        center -= (2.0 / 3.0) * math.log(2.0 * T)
    vals = (H + center) / T ** (1.0 / 3.0)
    if not np.all(np.isfinite(vals)):
        raise ValueError("scaled height values must be finite")
    return vals
