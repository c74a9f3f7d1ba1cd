"""Simulation laboratory for strong Gaussian approximation of cumulative
processes with regeneration.

The package builds coupled pairs -- a regenerative path and a Gaussian
approximant driven by the same randomness -- decomposes their gap into eight
exactly telescoping error terms, evaluates the closed-form tail bounds that
control each term, and runs the Monte-Carlo experiments that certify the
almost-sure deviation rate and the polynomial tail bound empirically.
"""

__version__ = "0.1.0"

from .rng import RngStream, bytes_generator
from .paths import (RegenerativePath, CountingPath, HorizonExceededError,
                    invert_counting, read_cycle_csv)
from .greeks import (Greeks, DegenerateTauError, InsufficientDataError,
                     estimate_greeks,
                     check_greek_identities, jacobi_eigh, matrix_sqrt_psd,
                     pseudo_inverse)
from .models import (FAMILIES, CycleBatch, Model, IidSumModel,
                     GammaGaussianModel, ParetoCycleModel, MM1BusyCycleModel,
                     CompoundJumpModel, InvalidParameterError,
                     ModeUnsupportedHookError, reference_greeks, eta_moment,
                     single_event_path)
from .coupling import (ModeUnsupportedError, GridMismatchError,
                       IdentityViolationError, UnitGridPath, ScaledPath,
                       GaussianDriver, drive_gaussians, PoissonQuantile,
                       build_poisson_from_brownian, build_inverse_wiener,
                       build_timechange_wiener, AssembledW, assemble_W,
                       CouplingBundle, horizon_cycles_for, build_bundle,
                       evaluation_grid, PhiDecomposition, phi_decomposition,
                       sup_deviation)
from .bounds import (REGION_PAIR, REGION_LARGE_DEVIATION, BoundResult,
                     TailMoments, RegionViolationError, NoFeasibleBError,
                     InfeasibleError, validity_region, poisson_inverse_tail,
                     renewal_count_tail, brownian_grid_increment_tail,
                     nagaev_tail, block_maximal_tail, random_sum_M0,
                     random_sum_nagaev_tail, brownian_sup_tail, exp_to_power)
from .stats import (wilson_interval, MedianEstimate, median_ci, loglog_slope,
                    bootstrap_slope_ci, poisson_gof_pvalue)
from .config import (ExperimentConfig, ConfigParseError,
                     ConfigValidationError, EXPERIMENT_KINDS, build_config,
                     parse_config, parse_config_text, validate_config)
from .harness import (HorizonSummary, RateFit, run_rate_experiment,
                      TailEstimate, run_tail_experiment, fit_constant_a,
                      PhiDiagnostics, run_phi_diagnostics, MaximaTrend,
                      maxima_scaling_experiment, CertRow, CertificationRecord,
                      CERTIFIERS, certify_bound, run_embedding_check,
                      replication_stream)

__all__ = [name for name in dir() if not name.startswith("_")]
