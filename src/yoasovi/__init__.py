"""Score-function variational inference with interchangeable sampling
strategies: plain Monte Carlo, scrambled low-discrepancy sequences, and
single-draw acceptance sampling with tempering and early stopping."""

from .acceptance import TemperatureSchedule, accept_probability, decide, temperature
from .driver import (METHODS, Problem, RunConfig, RunTrace, build_gmm_problem,
                     final_elbo, posterior_draw_set, run, run_problem)
from .errors import NumericError, ParseError
from .estimators import DrawStream, GradientSample, estimate, update_step
from .gmm import Dataset, GmmParams, GmmSpec, constrain, dic, log_joint, simulate
from .harness import ExperimentMatrix, SummaryRow, load_csv, make_preset, run_matrix
from .meanfield import ParamDraw, VariationalParams, initial_params, log_q, sample, score
from .sequences import make_source

__version__ = "0.1.0"
