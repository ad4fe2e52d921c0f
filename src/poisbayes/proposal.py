"""Gaussian proposal built from Polya-gamma conditional expectations.

Plugging E(omega_i) into the negative-binomial full conditional gives a
multivariate normal N(m, V) anchored at the current coefficient vector,
with

    V = (X' Omega X + B^{-1})^{-1},   m = V (X' kappa + B^{-1} b),
    Omega = diag{E(omega_i)},         kappa_i = E(omega_i) log r_i + (y_i - r_i)/2,

and E(omega_i) the mean of a PG(y_i + r_i, x_i' beta - log r_i) variable.
Only this mean is ever needed; no Polya-gamma variates are drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .errors import NumericError
from .model import Dataset, GaussianPriorParams

__all__ = [
    "ProposalDensity",
    "pg_mean",
    "build_proposal",
    "sample_proposal",
    "proposal_logpdf",
]

_LOG_2PI = float(np.log(2.0 * np.pi))
# below this |c| the tanh form of the PG mean is evaluated as its limit b/4
_PG_SMALL_C = 1e-8
_JITTER_BASE = 1e-10
_JITTER_RETRIES = 3


def _chol_lower(a):
    """The factorisation ``_factor`` calls, kept as a module name so a test
    can substitute a failing one to drive the jitter retries."""
    return np.linalg.cholesky(a)


@dataclass(frozen=True, eq=False)
class ProposalDensity:
    """A multivariate Gaussian N(m, V).

    ``L`` is the lower Cholesky factor of V, ``L_inv`` its inverse and
    ``log_det_V`` is 2 * sum(log diag L).
    """

    m: np.ndarray
    L: np.ndarray
    log_det_V: float
    L_inv: np.ndarray

    def __post_init__(self):
        for name in ("m", "L", "L_inv"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def p(self) -> int:
        return self.m.size


def pg_mean(b_param, c_param):
    """Mean of a PG(b, c) random variable: (b / (2c)) * tanh(c / 2).

    The expression is 0/0 at c = 0; for |c| < 1e-8 the removable limit b/4
    is returned.  Accepts scalars or broadcastable arrays.
    """
    b = np.asarray(b_param, dtype=np.float64)
    c = np.asarray(c_param, dtype=np.float64)
    if np.any(b <= 0):
        raise ValueError("pg_mean requires b_param > 0")
    small = np.abs(c) < _PG_SMALL_C
    c_safe = np.where(small, 1.0, c)
    out = np.where(small, b / 4.0, (b / (2.0 * c_safe)) * np.tanh(c_safe / 2.0))
    if out.ndim == 0:
        return float(out)
    return out


def build_proposal(beta_anchor, data: Dataset, r, prior: GaussianPriorParams) -> "ProposalDensity":
    """Construct the PG-expectation proposal anchored at ``beta_anchor``.

    The precision P = X' Omega X + B^{-1} is factored once; the lower
    Cholesky factor of V = P^{-1} follows from it.  On a Cholesky failure
    the diagonal is jittered by 1e-10 * trace/p, escalating tenfold up to
    three retries, after which ``NumericError`` is raised (callers such as
    the samplers treat that as a rejected move).
    """
    beta_anchor = np.asarray(beta_anchor, dtype=np.float64)
    if beta_anchor.shape != (data.p,):
        raise ValueError(f"anchor has shape {beta_anchor.shape}, expected ({data.p},)")
    eta = data.X @ beta_anchor
    return _factor(*_data_terms(eta, data, r), prior)


def _data_terms(eta, data: Dataset, r):
    """The prior-free half of the proposal, ``(X' Omega X, X' kappa)``, at an
    anchor with linear predictor ``eta``.  It depends on the anchor and r
    only, so a sampler can keep it while the prior changes."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (data.n,):
        raise ValueError(f"r has shape {r.shape}, expected ({data.n},)")
    if np.any(r <= 0):
        raise ValueError("all r_i must be positive")
    log_r = np.log(r)
    c = eta - log_r
    if not np.all(np.isfinite(c)):
        raise NumericError("non-finite PG tilt x'beta - log r in proposal build")
    omega = pg_mean(data._yf + r, c)
    kappa = omega * log_r + (data._yf - r) / 2.0
    return data.X.T @ (omega[:, None] * data.X), data.X.T @ kappa


def _factor(gram, x_kappa, prior: GaussianPriorParams) -> "ProposalDensity":
    """The proposal N(m, V) from its data terms and the prior:
    V^{-1} = X' Omega X + B^{-1} and V^{-1} m = X' kappa + B^{-1} b."""
    precision = gram + prior.B_inv
    rhs = x_kappa + prior.B_inv_b
    if not np.all(np.isfinite(precision)) or not np.all(np.isfinite(rhs)):
        raise NumericError("non-finite proposal precision")

    # with J the reversal permutation, J P J = K K' gives V = L L' for the
    # lower triangular L = J K^{-T} J, whose inverse J K' J needs no solve
    p = precision.shape[0]
    reversed_precision = precision[::-1, ::-1]
    jitter = _JITTER_BASE * float(np.trace(precision)) / p
    attempt = reversed_precision
    for k in range(_JITTER_RETRIES + 1):
        try:
            chol_rev = _chol_lower(attempt)
            break
        except LinAlgError:
            if k == _JITTER_RETRIES:
                raise NumericError(
                    "proposal precision is not positive definite after jitter retries"
                ) from None
            attempt = reversed_precision + np.eye(p) * jitter
            jitter *= 10.0

    L_inv = chol_rev.T[::-1, ::-1]
    L = np.tril(np.linalg.inv(L_inv))
    m = L @ (L.T @ rhs)
    log_det_v = -2.0 * float(np.sum(np.log(np.diagonal(chol_rev))))
    return ProposalDensity(m=m, L=L, log_det_V=log_det_v, L_inv=L_inv)


def sample_proposal(prop: ProposalDensity, rng: np.random.Generator) -> np.ndarray:
    """Draw m + L z with z a vector of independent standard normals."""
    z = rng.standard_normal(prop.p)
    return prop.m + prop.L @ z


def proposal_logpdf(prop: ProposalDensity, beta) -> float:
    """Full Gaussian log-density of the proposal at ``beta``.

    The quadratic form is ||L^{-1} (beta - m)||^2, one product with the
    cached inverse factor.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (prop.p,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({prop.p},)")
    u = prop.L_inv @ (beta - prop.m)
    return -0.5 * (prop.p * _LOG_2PI + prop.log_det_V + float(u @ u))
