"""SGD with biased gradient oracles: bounds, rates, and desk-scale experiments."""

from .compressors import (Compressor, UnsupportedCompositionError,
                          compressed_oracle, rand_k, rand_k_compressor,
                          rand_k_unbiased, rand_k_unbiased_compressor,
                          scale_compressor, top_k, top_k_compressor)
from .estimators import (BoundEstimate, estimate_bias, estimate_noise,
                         fit_bounds, fit_oracle_bounds, probe_points,
                         verify_declared)
from .oracles import (BiasedOracle, OracleBounds, additive_bias_oracle,
                      exact_oracle, gaussian_noise_oracle,
                      gaussian_smoothing_oracle, gs_bounds, huber_shifted_oracle,
                      inexact_oracle, synthetic_tight_oracle, tightness_oracle,
                      uniform_direction)
from .optimizer import (Divergence, RepeatedRuns, RunTrace, StepSchedule,
                        sgd_run, sgd_run_repeated, sgd_run_repeated_many,
                        uniform_random_iterate)
from .problems import (Problem, QuadraticProblem, finite_diff_check,
                       make_huber_problem, make_nesterov_worst,
                       quadratic_problem, scaled_x0)
from .theory import (RatePrediction, descent_lemma_rhs, error_floor,
                     pl_envelope, pl_iterations, pl_prediction, pl_stepsize,
                     pl_stepsize_proof, psi_bound, smooth_iterations,
                     smooth_prediction, smooth_stepsize, smooth_stepsize_proof,
                     stepsize_cap, zo_budget)
from .tuning import (TuneResult, default_gamma_grid, tune_stepsize,
                     tune_stepsize_many)

__version__ = "0.1.0"
