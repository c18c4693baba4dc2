"""Numerical toolkit for one-point tails of the KPZ equation.

Simulates the multiplicative stochastic heat equation on a lattice,
evaluates closed-form tail envelopes and exact moments of its solution,
resamples Brownian bridges under soft walls, and cross-checks the
narrow-wedge height against the GUE edge through a Laplace transform
identity.  The `kpz-tails` command line runs preset experiment bundles.

Each module declares its public names in its own __all__; import them
from the module (``from kpztails.she import solve_she_ensemble``) or
import the module itself (``from kpztails import she``).
"""

__version__ = "0.1.0"
