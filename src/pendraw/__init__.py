"""Stochastic-mortality pension drawdown with longevity-bond hedging.

Layers, bottom up: ``numerics`` (quadrature, RK4, keyed Gaussian streams),
``mortality`` (hazard models and path simulation), ``pricing`` (affine
survival coefficients and bond quantities), ``control`` (annuity value G and
the optimal policy), ``scheme`` (wealth simulation and paired comparisons),
``config``/``experiments``/``cli`` (configuration and experiment suites;
``csvkernel`` formats their CSV fields in numpy).
"""

from .config import (ExperimentConfig, build_model, default_config_path,
                     load_config, loads_config)
from .control import (PolicyDecision, SchemeScenario, annuity_G,
                      annuity_G_gradient, optimal_policy)
from .experiments import ExperimentResult, run_experiment, write_csv
from .mortality import (CIR, OU, ConfigError, GompertzMakehamParams,
                        MortalityPaths, SinglePopModel, TwoPopModel,
                        baseline_hazard, death_time_distribution, drift_a,
                        initial_hazard, simulate_paths)
from .numerics import (NumericalFailure, TimeGrid, gaussian_stream,
                       integrate, normal_block, solve_ode)
from .pricing import (AffineCoeffs1, AffineCoeffs2, MarketParams,
                      coeffs_single, coeffs_two_pop, rolling_bond_volatility,
                      survival_expectation, tilde_mean)
from .scheme import (ComparisonReport, DiscountedTotals, SchemeTrajectory,
                     discounted_totals, simulate_scheme)

__version__ = "0.1.0"

__all__ = [
    "AffineCoeffs1", "AffineCoeffs2", "CIR", "ComparisonReport",
    "ConfigError", "DiscountedTotals", "ExperimentConfig",
    "ExperimentResult", "GompertzMakehamParams", "MarketParams",
    "MortalityPaths", "NumericalFailure", "OU", "PolicyDecision",
    "SchemeScenario", "SchemeTrajectory", "SinglePopModel", "TimeGrid",
    "TwoPopModel", "annuity_G", "annuity_G_gradient", "baseline_hazard",
    "build_model", "coeffs_single", "coeffs_two_pop",
    "death_time_distribution", "default_config_path", "discounted_totals",
    "drift_a", "gaussian_stream", "initial_hazard", "integrate",
    "load_config", "loads_config", "normal_block", "optimal_policy",
    "rolling_bond_volatility", "run_experiment", "simulate_paths",
    "simulate_scheme", "solve_ode", "survival_expectation", "tilde_mean",
    "write_csv",
]
