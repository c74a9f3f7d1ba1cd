"""Simulation laboratory for strong Gaussian approximation of cumulative
processes with regeneration.

The package builds coupled pairs -- a regenerative path and a Gaussian
approximant driven by the same randomness -- decomposes their gap into eight
exactly telescoping error terms, evaluates the closed-form tail bounds that
control each term, and runs the Monte-Carlo experiments that certify the
almost-sure deviation rate and the polynomial tail bound empirically.
"""

__version__ = "0.1.0"

from .rng import RngStream
from .models import eta_moment, reference_greeks
from .paths import single_event_path
from .coupling import (AssembledW, CouplingBundle, GaussianDriver,
                       PhiDecomposition, ScaledPath, UnitGridPath, assemble_W,
                       build_bundle, build_inverse_wiener,
                       build_poisson_from_brownian, build_timechange_wiener,
                       evaluation_grid, horizon_cycles_for, phi_decomposition,
                       sup_deviation)
from .bounds import (TailMoments, block_maximal_tail,
                     brownian_grid_increment_tail, brownian_sup_tail,
                     nagaev_tail, poisson_inverse_tail, random_sum_M0,
                     random_sum_nagaev_tail, renewal_count_tail,
                     validity_region)
from .stats import bootstrap_slope_ci, loglog_slope, median_ci, wilson_interval
from .config import parse_config, parse_config_text
from .harness import replication_stream

# The package-level names; everything else is imported from its module.
# ``cli`` is the command-line submodule, loaded on first use.
__all__ = [
    "RngStream",
    "eta_moment", "reference_greeks", "single_event_path",
    "AssembledW", "CouplingBundle", "GaussianDriver", "PhiDecomposition",
    "ScaledPath", "UnitGridPath", "assemble_W", "build_bundle",
    "build_inverse_wiener", "build_poisson_from_brownian",
    "build_timechange_wiener", "evaluation_grid", "horizon_cycles_for",
    "phi_decomposition", "sup_deviation",
    "TailMoments", "block_maximal_tail", "brownian_grid_increment_tail",
    "brownian_sup_tail", "nagaev_tail", "poisson_inverse_tail",
    "random_sum_M0", "random_sum_nagaev_tail", "renewal_count_tail",
    "validity_region",
    "bootstrap_slope_ci", "loglog_slope", "median_ci", "wilson_interval",
    "parse_config", "parse_config_text",
    "replication_stream",
    "cli",
]
