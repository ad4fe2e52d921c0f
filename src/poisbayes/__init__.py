"""Posterior sampling for Bayesian Poisson log-linear regression.

The package builds a Gaussian proposal from Polya-gamma conditional
expectations plugged into a negative-binomial approximation of the Poisson
likelihood, and uses it inside a Metropolis-Hastings sampler and an
adaptive importance sampler.  Per-observation negative-binomial parameters
are tuned automatically from a single CDF-distance bound d.
"""

from .bench import (
    BenchRecord,
    BenchResult,
    SimDesign,
    run_benchmark,
    simulate_dataset,
)
from .diagnostics import (
    PosteriorSummary,
    cpo,
    ess_chain,
    ess_from_log_weights,
    ess_vector,
    lpml,
    summarize,
    time_per_independent_sample,
)
from .errors import (
    ConfigError,
    DataError,
    EstimationError,
    GenerationError,
    NumericError,
    PoisBayesError,
)
from .io_cli import ColumnSpec, RunConfig, load_dataset, run_cli, write_outputs
from .model import (
    Dataset,
    GaussianPriorParams,
    log_gaussian_prior,
    log_poisson_likelihood,
)
from .proposal import (
    ProposalDensity,
    build_proposal,
    pg_mean,
    proposal_logpdf,
    sample_proposal,
)
from .samplers import (
    ChainOutput,
    FixedGaussianPrior,
    HorseshoePrior,
    HorseshoeState,
    ISOutput,
    MHConfig,
    PriorSpec,
    horseshoe_update,
    is_run,
    mh_run,
    poisson_mle,
    random_walk_mh,
    tau_optimal,
)
from .tuning import (
    TuningDiagnostics,
    TuningPolicy,
    compute_r_vector,
    lambert_w,
    nb_poisson_distance,
    solve_r,
)

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "BenchResult",
    "ChainOutput",
    "ColumnSpec",
    "ConfigError",
    "DataError",
    "Dataset",
    "EstimationError",
    "FixedGaussianPrior",
    "GaussianPriorParams",
    "GenerationError",
    "HorseshoePrior",
    "HorseshoeState",
    "ISOutput",
    "MHConfig",
    "NumericError",
    "PoisBayesError",
    "PosteriorSummary",
    "PriorSpec",
    "ProposalDensity",
    "RunConfig",
    "SimDesign",
    "TuningDiagnostics",
    "TuningPolicy",
    "build_proposal",
    "compute_r_vector",
    "cpo",
    "ess_chain",
    "ess_from_log_weights",
    "ess_vector",
    "horseshoe_update",
    "is_run",
    "lambert_w",
    "load_dataset",
    "log_gaussian_prior",
    "log_poisson_likelihood",
    "lpml",
    "mh_run",
    "nb_poisson_distance",
    "pg_mean",
    "poisson_mle",
    "proposal_logpdf",
    "random_walk_mh",
    "run_benchmark",
    "run_cli",
    "sample_proposal",
    "simulate_dataset",
    "solve_r",
    "summarize",
    "tau_optimal",
    "time_per_independent_sample",
    "write_outputs",
]
