"""Transient mean workload of the M/G/1 FIFO queue, three independent ways.

Exact M/M/1 series built from scaled modified Bessel functions, a numeric
renewal-equation solution, and regenerative Monte-Carlo simulation, plus
decay-rate fitting to measure how fast the transient mean approaches its
stationary value.
"""

from .analysis import (EXP_WITH_SQRT_T, EXP_WITH_T32_CORRECTED,
                       PURE_EXPONENTIAL, FitResult, UnfitError,
                       compare_methods, fit_decay_rate, stationary_pk)
from .busy_period import (CycleMoments, QueueModel, busy_cramer_abscissa,
                          busy_lst, busy_mean, cycle_moments)
from .distributions import (DIVERGENT, Deterministic, DistributionSpecError,
                            Erlang, Exponential, HyperExponential,
                            ServiceDistribution, Uniform, parse_service_spec)
from .mm1 import (Mm1Model, SeriesTruncationError, bessel_i_scaled_array,
                  phi_asymptotic, phi_curve, phi_exact, pn_array,
                  theoretical_rate)
from .renewal import (Curve, TimeGrid, phi_via_renewal, read_curve_csv,
                      renewal_function, renewal_residual, write_curve_csv)
from .simulate import (CyclePath, CycleTruncationError, FirstCycleStats,
                       McConfig, estimate_phi, estimate_stationary,
                       first_cycle_study, simulate_cycle)

__version__ = "0.1.0"
