"""Metropolis-Hastings and adaptive importance samplers, and the
random-walk MH baseline.

Both PG samplers drive the same PG-expectation Gaussian proposal: at each
iteration the stopping parameters r_i are re-solved at the current
coefficient vector, the proposal is rebuilt there, and a draw is scored
against the exact Poisson posterior.  The MH variant corrects with the
usual acceptance ratio (backward density rebuilt at the proposed point);
the importance sampler keeps every draw and records a log-weight instead.
All three samplers run on one loop, ``_drive``, and differ only in the
step they hand it.

Priors are conditionally Gaussian: either a fixed N(b, B) or the horseshoe
beta_j | eta_j^2, tau^2 ~ N(0, eta_j^2 tau^2) with half-Cauchy local scales
handled through their inverse-gamma auxiliary representation.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .diagnostics import WeightCollapseWarning, ess_from_log_weights
from .errors import EstimationError, NumericError
from .model import (
    Dataset,
    GaussianPriorParams,
    _log_poisson_from_eta,
    log_gaussian_prior,
)
from .proposal import ProposalDensity, _data_terms, _factor, proposal_logpdf
from .tuning import TuningDiagnostics, TuningPolicy, r_vector_for_lambdas

__all__ = [
    "FixedGaussianPrior",
    "HorseshoePrior",
    "PriorSpec",
    "HorseshoeState",
    "MHConfig",
    "ChainOutput",
    "ISOutput",
    "mh_run",
    "is_run",
    "random_walk_mh",
    "horseshoe_update",
    "tau_optimal",
    "poisson_mle",
]

# above glibc's default 128 KiB mmap threshold and below the 4 MiB from which
# numpy advises huge pages for an array; never written, so never resident
_ALLOCATOR_WARMUP_BYTES = 2 << 20
# ridge penalty and Newton-step cap of ``poisson_mle``
_MLE_RIDGE = 1e-8
_MLE_MAX_ITER = 100


@dataclass(frozen=True)
class FixedGaussianPrior:
    """A fixed Gaussian prior N(b, B) on the coefficients."""

    params: GaussianPriorParams


@dataclass(frozen=True)
class HorseshoePrior:
    """Horseshoe prior with fixed global scale tau; local scales are sampled."""

    tau: float

    def __post_init__(self):
        if not (self.tau > 0 and np.isfinite(self.tau)):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")


PriorSpec = Union[FixedGaussianPrior, HorseshoePrior]


@dataclass(frozen=True, eq=False)
class HorseshoeState:
    """Local scale squares eta_j^2 and their inverse-gamma auxiliaries nu_j."""

    eta2: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        eta2 = np.asarray(self.eta2, dtype=np.float64)
        nu = np.asarray(self.nu, dtype=np.float64)
        if np.any(eta2 <= 0) or np.any(nu <= 0):
            raise ValueError("horseshoe state entries must be strictly positive")
        object.__setattr__(self, "eta2", eta2)
        object.__setattr__(self, "nu", nu)

    @classmethod
    def initial(cls, p: int) -> "HorseshoeState":
        return cls(eta2=np.ones(p), nu=np.ones(p))


@dataclass(frozen=True)
class MHConfig:
    """Run configuration shared by the MH and importance samplers.

    ``init_beta`` may be an explicit vector, ``"mle"`` (deterministic
    damped-Newton Poisson fit, the default) or ``"zeros"``.  The MLE start
    matters: the backward proposal is very tight once the fitted means are
    large, so a chain started far from the posterior mode proposes jumps
    whose reverse move is essentially impossible and can reject forever.
    """

    iterations: int = 10000
    burnin: int = 5000
    tuning: TuningPolicy = field(default_factory=lambda: TuningPolicy(d=0.1))
    seed: int = 0
    init_beta: Union[str, np.ndarray] = "mle"

    def __post_init__(self):
        for name in ("iterations", "burnin", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or int(value) != value:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if int(self.iterations) < 1:
            raise ValueError("iterations must be positive")
        if not 0 <= int(self.burnin) < int(self.iterations):
            raise ValueError("need 0 <= burnin < iterations")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if isinstance(self.init_beta, str) and self.init_beta not in ("mle", "zeros"):
            raise ValueError("init_beta must be a vector, 'mle' or 'zeros'")


@dataclass(frozen=True, eq=False)
class ChainOutput:
    """Output of an MH run; ``draws`` holds the post-burn-in part only."""

    draws: np.ndarray
    accepted: np.ndarray
    elapsed_seconds: float
    acceptance_rate: float
    seed: int
    burnin: int
    prior_trace: np.ndarray | None = None
    full_draws: np.ndarray | None = None
    proposal_failures: int = 0
    tuning_fallbacks: int = 0


@dataclass(frozen=True, eq=False)
class ISOutput:
    """Output of an adaptive importance run (post-burn-in draws and weights)."""

    draws: np.ndarray
    log_weights: np.ndarray
    ess_weights: float
    elapsed_seconds: float
    seed: int
    proposal_failures: int = 0
    tuning_fallbacks: int = 0


def tau_optimal(n: int, p_n: int) -> float:
    """Global horseshoe scale (p_n/n) sqrt(log(n/p_n)) for p_n non-null signals."""
    if int(p_n) != p_n:
        raise ValueError(f"p_n must be an integer, got {p_n!r}")
    n = int(n)
    p_n = int(p_n)
    if n < 1 or p_n < 1:
        raise ValueError("n and p_n must be positive integers")
    if p_n >= n:
        raise ValueError(f"need p_n < n, got p_n={p_n}, n={n}")
    return (p_n / n) * float(np.sqrt(np.log(n / p_n)))


def horseshoe_update(beta, state: HorseshoeState, tau: float, rng: np.random.Generator) -> HorseshoeState:
    """One sweep of the auxiliary inverse-gamma conditionals:

        eta_j^2 | . ~ InvGamma(1, 1/nu_j + beta_j^2 / (2 tau^2))
        nu_j    | . ~ InvGamma(1, 1 + 1/eta_j^2)
    """
    beta = np.asarray(beta, dtype=np.float64)
    if tau <= 0:
        raise ValueError("tau must be positive")
    # InvGamma(1, s) is the reciprocal of Gamma(1, scale=1/s)
    eta2_scale = 1.0 / state.nu + beta**2 / (2.0 * tau**2)
    eta2 = 1.0 / rng.gamma(1.0, 1.0 / eta2_scale, size=beta.size)
    nu = 1.0 / rng.gamma(1.0, 1.0 / (1.0 + 1.0 / eta2), size=beta.size)
    return HorseshoeState(eta2=eta2, nu=nu)


def poisson_mle(data: Dataset) -> np.ndarray:
    """Deterministic ridge-stabilized Poisson fit, used as the default chain
    initialization.

    Damped Newton with backtracking on the (strictly concave) penalized
    log-likelihood, started from the standard GLM guess mu = y + 1/2; the
    tiny ridge keeps the optimum finite under separation.
    """
    X, y = data.X, data._yf
    eye = _MLE_RIDGE * np.eye(data.p)

    def objective(beta):
        eta = np.clip(X @ beta, -30.0, 30.0)
        return float(y @ eta - np.exp(eta).sum() - 0.5 * _MLE_RIDGE * (beta @ beta))

    mu0 = y + 0.5
    try:
        beta = np.linalg.solve(X.T @ (mu0[:, None] * X) + eye, X.T @ (mu0 * np.log(mu0)))
    except np.linalg.LinAlgError:
        beta = np.zeros(data.p)
    obj = objective(beta)
    for _ in range(_MLE_MAX_ITER):
        eta = np.clip(X @ beta, -30.0, 30.0)
        lam = np.exp(eta)
        grad = X.T @ (y - lam) - _MLE_RIDGE * beta
        hess = X.T @ (lam[:, None] * X) + eye
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        for _ in range(40):
            candidate_obj = objective(beta + scale * step)
            if candidate_obj >= obj:
                break
            scale *= 0.5
        beta = beta + scale * step
        if candidate_obj < obj or float(np.max(np.abs(scale * step))) < 1e-10:
            obj = max(obj, candidate_obj)
            break
        obj = candidate_obj
    if not np.all(np.isfinite(beta)):
        return np.zeros(data.p)
    return beta


def _initial_beta(config: MHConfig, data: Dataset) -> np.ndarray:
    if isinstance(config.init_beta, str):
        if config.init_beta == "zeros":
            return np.zeros(data.p)
        return poisson_mle(data)
    beta = np.asarray(config.init_beta, dtype=np.float64)
    if beta.shape != (data.p,):
        raise ValueError(f"init_beta has shape {beta.shape}, expected ({data.p},)")
    if not np.all(np.isfinite(beta)):
        raise ValueError("init_beta contains non-finite entries")
    return beta


def _effective_prior(prior: PriorSpec, state: HorseshoeState | None, p: int) -> GaussianPriorParams:
    if isinstance(prior, FixedGaussianPrior):
        if prior.params.p != p:
            raise ValueError(f"prior has dimension {prior.params.p}, data has p={p}")
        return prior.params
    return GaussianPriorParams(np.zeros(p), np.diag(prior.tau**2 * state.eta2))


def _drive(data: Dataset, prior: PriorSpec, config: MHConfig, init, step):
    """The sampling loop shared by every sampler in this module.

    Owns the seeded generator, the start point, the draw and eta^2 buffers,
    the horseshoe sweep with its effective-prior rebuild, and the timer.
    ``init(beta0)`` returns the sampler's starting state and
    ``step(t, state, prior_params, rng)`` returns ``(state, draw)``; under
    the horseshoe prior each step is followed by one sweep of the scale
    conditionals (eta^2 then nu) at ``draw``.  Returns
    ``(draws, eta2_trace, elapsed)`` over all iterations, burn-in included;
    the wall-clock time covers the sampling loop only.
    """
    rng = np.random.default_rng(config.seed)
    iters = int(config.iterations)
    p = data.p
    horseshoe = isinstance(prior, HorseshoePrior)

    beta0 = _initial_beta(config, data)
    draws = np.empty((iters, p))
    eta2_trace = np.empty((iters, p)) if horseshoe else None
    # glibc hands the top of its heap back to the OS whenever more than its
    # trim threshold lies free there, and raises that threshold only after
    # freeing a block it had to mmap.  Freeing one such block here keeps the
    # loop's short-lived n-vectors resident: without it, MH at n=5000, p=5
    # faulted about 125 pages back in per iteration, a quarter of its time.
    # Once the threshold is raised, later blocks come from the heap itself,
    # so a block numpy advised for huge pages would mark that part of the
    # heap, and the loop's scratch memory in it, for huge-page faults.
    np.empty(_ALLOCATOR_WARMUP_BYTES, dtype=np.uint8)

    t_start = time.perf_counter()
    hs_state = HorseshoeState.initial(p) if horseshoe else None
    prior_params = _effective_prior(prior, hs_state, p)
    state = init(beta0)
    for t in range(iters):
        state, draws[t] = step(t, state, prior_params, rng)
        if horseshoe:
            hs_state = horseshoe_update(draws[t], hs_state, prior.tau, rng)
            prior_params = _effective_prior(prior, hs_state, p)
            eta2_trace[t] = hs_state.eta2
    elapsed = time.perf_counter() - t_start
    return draws, eta2_trace, elapsed


class _ChainState:
    """Cached quantities at the current point of a chain."""

    __slots__ = ("beta", "eta", "loglik", "r", "terms", "fwd", "fwd_prior",
                 "logprior", "logprior_prior")

    def __init__(self, beta, eta, loglik, r):
        self.beta = beta
        self.eta = eta
        self.loglik = loglik
        self.r = r
        self.terms = None
        self.fwd = None
        self.fwd_prior = None
        self.logprior = None
        self.logprior_prior = None

    def prior_logpdf(self, prior: GaussianPriorParams) -> float:
        if self.logprior_prior is not prior:
            self.logprior = log_gaussian_prior(self.beta, prior)
            self.logprior_prior = prior
        return self.logprior


class _PGKernel:
    """The PG-expectation MH transition, with per-state caching.

    Each state keeps its r-vector and the prior-free data terms of its
    proposal, and re-factors them only when the effective prior changes.
    An accepted move promotes the backward build to the next forward build,
    so an iteration costs one r-solve and one X' Omega X product under any
    prior; a prior that changes every sweep, as under the horseshoe, adds
    only a p x p re-factorisation at the current state.
    """

    def __init__(self, data: Dataset, policy: TuningPolicy, tuning_diag: TuningDiagnostics):
        self.data = data
        self.policy = policy
        self.tuning_diag = tuning_diag
        self.proposal_failures = 0

    def make_state(self, beta, eta=None, loglik=None) -> _ChainState:
        """The chain state at ``beta``; ``eta`` and ``loglik`` are computed
        unless the caller already has them."""
        beta = np.asarray(beta, dtype=np.float64)
        if eta is None:
            eta = self.data.X @ beta
        if loglik is None:
            loglik = _log_poisson_from_eta(eta, self.data)
        with np.errstate(over="ignore"):
            lam = np.exp(eta)
        r = r_vector_for_lambdas(lam, self.policy, self.tuning_diag)
        return _ChainState(beta, eta, loglik, r)

    def forward(self, state: _ChainState, prior: GaussianPriorParams) -> ProposalDensity:
        if state.fwd is None or state.fwd_prior is not prior:
            if state.terms is None:
                state.terms = _data_terms(state.eta, self.data, state.r)
            state.fwd = _factor(*state.terms, prior)
            state.fwd_prior = prior
        return state.fwd

    def step(self, state: _ChainState, prior: GaussianPriorParams, z, u):
        """Returns (state, proposal, accepted, log_alpha)."""
        data = self.data
        try:
            fwd = self.forward(state, prior)
        except NumericError:
            self.proposal_failures += 1
            return state, state.beta, False, -np.inf
        beta_star = fwd.m + fwd.L @ z
        eta_star = data.X @ beta_star
        loglik_star = _log_poisson_from_eta(eta_star, data)
        if loglik_star == -np.inf:
            # zero-likelihood proposal; reject without a backward build
            return state, beta_star, False, -np.inf
        star = self.make_state(beta_star, eta_star, loglik_star)
        try:
            # the backward build is cached on ``star`` as its forward build
            bwd = self.forward(star, prior)
        except NumericError:
            self.proposal_failures += 1
            return state, beta_star, False, -np.inf
        # grouped as pairwise differences so identical states cancel exactly
        log_post_ratio = (loglik_star - state.loglik) + (
            star.prior_logpdf(prior) - state.prior_logpdf(prior)
        )
        log_q_ratio = proposal_logpdf(bwd, state.beta) - proposal_logpdf(fwd, beta_star)
        log_alpha = log_post_ratio + log_q_ratio
        accepted = log_alpha >= 0.0 or np.log(u) < log_alpha
        return (star if accepted else state), beta_star, accepted, log_alpha


def mh_run(data: Dataset, prior: PriorSpec, config: MHConfig,
           keep_burnin: bool = False) -> ChainOutput:
    """Run the PG-expectation MH chain.

    Under the horseshoe prior each beta update is followed by one sweep of
    the scale conditionals (eta^2 then nu) and the effective covariance is
    rebuilt.  Bit-for-bit reproducible for a given seed; wall-clock time
    covers the sampling loop only.
    """
    kernel = _PGKernel(data, config.tuning, TuningDiagnostics())
    burnin = int(config.burnin)
    accepted = np.zeros(int(config.iterations), dtype=bool)

    def step(t, state, prior_params, rng):
        z = rng.standard_normal(data.p)
        u = rng.uniform()
        state, _, accepted[t], _ = kernel.step(state, prior_params, z, u)
        return state, state.beta

    trace, eta2_trace, elapsed = _drive(data, prior, config, kernel.make_state, step)
    return ChainOutput(
        draws=trace[burnin:],
        accepted=accepted,
        elapsed_seconds=elapsed,
        acceptance_rate=float(accepted.mean()),
        seed=int(config.seed),
        burnin=burnin,
        prior_trace=eta2_trace[burnin:] if eta2_trace is not None else None,
        full_draws=trace if keep_burnin else None,
        proposal_failures=kernel.proposal_failures,
        tuning_fallbacks=kernel.tuning_diag.closed_form_fallbacks,
    )


def is_run(data: Dataset, prior: PriorSpec, config: MHConfig) -> ISOutput:
    """Adaptive importance sampler: the importance density is the same
    PG-expectation Gaussian, re-anchored at the previous draw each
    iteration; log-weights are log pi_unnorm(draw) - log q(draw | anchor).

    Estimators downstream are self-normalized, so the posterior only needs
    to be known up to a constant.  Raises ``EstimationError`` when every
    retained weight underflows to zero, and warns with
    ``WeightCollapseWarning`` when the weight ESS is under 1% of the
    retained draws.
    """
    kernel = _PGKernel(data, config.tuning, TuningDiagnostics())
    burnin = int(config.burnin)
    log_w = np.empty(int(config.iterations))

    def init(beta0):
        return kernel.make_state(beta0), None

    def step(t, state, prior_params, rng):
        anchor, prop = state
        try:
            prop = kernel.forward(anchor, prior_params)
        except NumericError:
            kernel.proposal_failures += 1
            if prop is None:
                raise NumericError(
                    "importance proposal could not be built at the initial point"
                ) from None
            # keep sampling from the last good proposal
        z = rng.standard_normal(data.p)
        draw = prop.m + prop.L @ z
        eta_d = data.X @ draw
        loglik_d = _log_poisson_from_eta(eta_d, data)
        if loglik_d == -np.inf:
            log_w[t] = -np.inf
        else:
            log_w[t] = (
                loglik_d
                + log_gaussian_prior(draw, prior_params)
                - proposal_logpdf(prop, draw)
            )
        return (kernel.make_state(draw, eta_d, loglik_d), prop), draw

    draws, _, elapsed = _drive(data, prior, config, init, step)
    log_w_ret = log_w[burnin:]
    if not np.any(np.isfinite(log_w_ret)):
        raise EstimationError(
            "all importance weights underflowed to zero; "
            "increase the distance bound d or the number of iterations"
        )
    ess = ess_from_log_weights(log_w_ret)
    if ess < 0.01 * log_w_ret.size:
        warnings.warn(
            f"importance weights collapsed: weight ESS {ess:.1f} of {log_w_ret.size} "
            "retained draws; estimates rest on a few draws",
            WeightCollapseWarning,
            stacklevel=2,
        )
    return ISOutput(
        draws=draws[burnin:],
        log_weights=log_w_ret,
        ess_weights=ess,
        elapsed_seconds=elapsed,
        seed=int(config.seed),
        proposal_failures=kernel.proposal_failures,
        tuning_fallbacks=kernel.tuning_diag.closed_form_fallbacks,
    )


def random_walk_mh(data: Dataset, prior: PriorSpec, config: MHConfig,
                   step_scale: float = 2.38) -> ChainOutput:
    """Spherical Gaussian random-walk MH baseline against the exact
    posterior; per-coordinate proposal scale is step_scale / sqrt(p)
    (step_scale=2.38 is the classic tuned default, 1.0 the untuned variant).
    """
    if not step_scale > 0:
        raise ValueError("step_scale must be positive")
    scale = step_scale / math.sqrt(data.p)
    burnin = int(config.burnin)
    accepted = np.zeros(int(config.iterations), dtype=bool)

    def init(beta0):
        return beta0, _log_poisson_from_eta(data.X @ beta0, data)

    def step(t, state, prior_params, rng):
        beta, loglik = state
        z = rng.standard_normal(data.p)
        u = rng.uniform()
        beta_star = beta + scale * z
        loglik_star = _log_poisson_from_eta(data.X @ beta_star, data)
        if loglik_star == -np.inf:
            log_alpha = -np.inf
        else:
            log_alpha = (
                loglik_star
                + log_gaussian_prior(beta_star, prior_params)
                - loglik
                - log_gaussian_prior(beta, prior_params)
            )
        if log_alpha >= 0.0 or np.log(u) < log_alpha:
            beta, loglik = beta_star, loglik_star
            accepted[t] = True
        return (beta, loglik), beta

    trace, eta2_trace, elapsed = _drive(data, prior, config, init, step)
    return ChainOutput(
        draws=trace[burnin:],
        accepted=accepted,
        elapsed_seconds=elapsed,
        acceptance_rate=float(accepted.mean()),
        seed=int(config.seed),
        burnin=burnin,
        prior_trace=eta2_trace[burnin:] if eta2_trace is not None else None,
    )
