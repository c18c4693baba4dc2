"""Numerical toolkit for one-point tails of the KPZ equation.

Simulates the multiplicative stochastic heat equation on a lattice,
evaluates closed-form tail envelopes and exact moments of its solution,
resamples Brownian bridges under soft walls, and cross-checks the
narrow-wedge height against the GUE edge through a Laplace transform
identity.  The `kpz-tails` command line runs preset experiment bundles.
"""

from .airy import (LaplaceEstimate, laplace_lhs, laplace_rhs,
                   sample_gue_edge_many)
from .bounds import (BoundQuery, BoundResult, brownian_upper_tail,
                     classify_regime, evaluate_query, general_upper_tail,
                     lower_tail_upper_general, nw_lower_tail,
                     nw_upper_laplace_bounds, nw_upper_tail)
from .bridges import (BridgeSpec, DominanceReport, GibbsResult, GibbsSpec,
                      bridge_min_tail, bridge_min_tail_mc, dominance_test,
                      gibbs_resample, sample_bridge)
from .experiment import (ExperimentConfig, preset_config, run_airy,
                         run_all, run_bounds, run_gibbs, run_moments,
                         run_report, run_simulate)
from .initial_data import (BrownianTwoSided, Flat, GeneralScaled, HypParams,
                           HypReport, NarrowWedge, Profile,
                           ScaledHeightSample, load_profile_csv,
                           make_unscaled_initial, scale_center_height,
                           validate_hyp)
from .moments import (SANDWICH_FACTOR, MarkovBound, MomentResult, Partition,
                      PZLowerBound, cauchy_det_check, enumerate_partitions,
                      log_psi, markov_upper_tail, moment_exact,
                      paley_zygmund_lower, partition_cubic_gap, psi,
                      siegel_check)
from .she import (EnsembleResult, FKGReport, SolverConfig,
                  StationarityReport, boundary_bias_bound,
                  convolve_upsilon_with_f, fkg_joint_vs_product,
                  snap_to_grid, solve_she_ensemble, stationarity_report)
from .tails import (CONSISTENT, UNTESTABLE, VIOLATION, CellVerdict,
                    bound_violation_report, clopper_pearson)

__version__ = "0.1.0"
