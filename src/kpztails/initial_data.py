"""Initial data for the KPZ / stochastic-heat-equation toolkit.

Three initial data are modelled: the narrow wedge, a delta initial mass at
the origin that the solver places on the lattice itself; flat data,
H_0 = 0; and two-sided Brownian data, H_0 pinned to 0 at the origin.
make_unscaled_initial gives the unscaled initial height H_0 of the last
two on lattice sites.  The paper's general class of initial data is not
modelled.

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
class NarrowWedge:
    """Delta initial mass at the origin."""


@dataclass(frozen=True)
class Flat:
    """H_0 identically zero."""


@dataclass(frozen=True)
class BrownianTwoSided:
    """Two-sided Brownian H_0 pinned to 0 at the origin."""

    seed: int = 0


InitialData = Union[NarrowWedge, Flat, BrownianTwoSided]


def make_unscaled_initial(data: InitialData, x_grid: np.ndarray) -> np.ndarray:
    """The unscaled initial height H_0 on the lattice sites x_grid.

    Flat gives zeros and BrownianTwoSided a pinned two-sided path.
    NarrowWedge has no initial height (the solver places its lattice
    delta) and raises, as does any other type.
    """
    x = np.asarray(x_grid, float)
    if isinstance(data, Flat):
        return np.zeros(x.size)
    if isinstance(data, BrownianTwoSided):
        return _two_sided_brownian(x, data.seed)
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
