"""Truncated Riesz transforms, the radial factorization multiplier, and
dimension-free maximal-operator experiments on periodic grids."""

from .errors import (AccuracyError, DomainError, IntegrityError, ResourceError,
                     RieszmaxError, UnsupportedDimensionError)
from .experiments import (ExperimentReport, decomposition_diagnostics,
                          default_truncation_grid, factorization_residual,
                          merge_reports, multiplier_bound_suite,
                          norm_ratio_sweep, numerical_inequality_check,
                          poisson_suite, rotation_check, specfun_bound_suite)
from .fields import (GridSpec, SpatialField, SpectralField, forward_transform,
                     inverse_transform, l2_norm, random_band_limited)
from .multiplier import (MultiplierEval, check_derivative, check_large_arg,
                         check_small_arg, m_eval, m_prime, m_values)
from .operators import (Kernel, MultiplierSymbol, TruncationGrid, apply_symbol,
                        maximal_over, poisson_projection_sum,
                        riesz_radial_profile, rotation_reconstruct,
                        sphere_moment, square_function, vector_maximal)
from .specfun import BoundCheck, bessel_envelope, bessel_j

__version__ = "0.1.0"
