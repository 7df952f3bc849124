"""Score-function variational inference with interchangeable sampling
strategies: plain Monte Carlo, scrambled low-discrepancy sequences, and
single-draw acceptance sampling with tempering and early stopping.

The names here are the ones the README documents; everything else stays
importable from its module."""

from .acceptance import TemperatureSchedule, accept_probability, decide, temperature
from .driver import METHODS, Problem, RunConfig, build_gmm_problem, run, run_problem
from .errors import NumericError
from .estimators import DrawStream, GradientSample, estimate, update_step
from .gmm import Dataset, GmmSpec, constrain, dic
from .harness import make_preset, run_matrix
from .meanfield import VariationalParams, log_q, sample, score
from .sequences import make_source

__version__ = "0.1.0"
