"""Data model, exact Poisson log-likelihood, and conditionally Gaussian
log-priors.

Everything here is a pure function of its arguments; ``Dataset`` and
``GaussianPriorParams`` are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

__all__ = [
    "Dataset",
    "GaussianPriorParams",
    "log_poisson_likelihood",
    "log_gaussian_prior",
]

# exp(x) overflows double precision above this; proposals past it are rejected
# through the -inf log-likelihood sentinel rather than raising.
ETA_OVERFLOW = float(np.log(np.finfo(np.float64).max))

_SYM_TOL = 1e-10


def _frozen_array(x, dtype=np.float64, ndim=None, name="array"):
    arr = np.ascontiguousarray(x, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """Response counts plus a dense design matrix.

    Attributes
    ----------
    y : (n,) int array of non-negative counts.
    X : (n, p) float design matrix; row i is the covariate vector of
        observation i.
    column_names : p labels for the columns of X.
    """

    y: np.ndarray
    X: np.ndarray
    column_names: tuple[str, ...]

    def __post_init__(self):
        y = np.asarray(self.y)
        if y.ndim != 1:
            raise ValueError(f"y must be a vector, got shape {y.shape}")
        if y.size == 0:
            raise ValueError("dataset needs at least one observation")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite entries")
        if np.any(y < 0) or np.any(y != np.floor(y)):
            raise ValueError("y must contain non-negative integers")
        if np.any(y >= 2**63):
            raise ValueError("y must stay below 2**63 to be held as int64 counts")
        X = _frozen_array(self.X, ndim=2, name="X")
        if X.shape[1] < 1:
            raise ValueError("X needs at least one column")
        if not np.all(np.isfinite(X)):
            raise ValueError("X contains non-finite entries")
        if X.shape[0] != y.size:
            raise ValueError(
                f"row count of X ({X.shape[0]}) does not match length of y ({y.size})"
            )
        names = tuple(str(c) for c in self.column_names)
        if len(names) != X.shape[1]:
            raise ValueError(
                f"{len(names)} column names for {X.shape[1]} columns"
            )
        object.__setattr__(self, "y", _frozen_array(y, dtype=np.int64, name="y"))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "column_names", names)
        # cached pieces reused by every likelihood evaluation
        object.__setattr__(self, "_yf", _frozen_array(y, name="y"))
        # log y_i!, evaluated once per distinct count
        distinct, row_of = np.unique(self.y, return_inverse=True)
        log_y_fact = np.array([math.lgamma(k + 1.0) for k in distinct.tolist()])[row_of]
        object.__setattr__(self, "_lgamma_y1_rows", _frozen_array(log_y_fact, name="log y!"))
        object.__setattr__(self, "_lgamma_y1", float(np.sum(log_y_fact)))

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def p(self) -> int:
        return self.X.shape[1]


class GaussianPriorParams:
    """Parameters (b, B) of a Gaussian prior on the regression coefficients.

    B must be symmetric (within 1e-10) and positive definite.  B^{-1},
    B^{-1} b and log det B are computed once at construction, and for a
    non-diagonal B the inverse of its lower Cholesky factor too; for a
    diagonal B they come from elementwise reciprocals, never from a matrix
    inverse.
    """

    def __init__(self, b, B):
        b = _frozen_array(b, ndim=1, name="b")
        B = _frozen_array(B, ndim=2, name="B")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(B))):
            raise ValueError("prior mean or covariance contains non-finite entries")
        p = b.size
        if B.shape != (p, p):
            raise ValueError(f"B has shape {B.shape}, expected ({p}, {p})")
        asym = float(np.max(np.abs(B - B.T))) if p > 1 else 0.0
        if asym > _SYM_TOL * max(1.0, float(np.max(np.abs(B)))):
            raise ValueError(f"B is not symmetric (max asymmetry {asym:.3e})")
        self.b = b
        self.B = B
        diag = np.diagonal(B)
        self.is_diagonal = p == 1 or not np.any(B - np.diag(diag))
        if self.is_diagonal:
            if np.any(diag <= 0):
                k = int(np.argmax(diag <= 0)) + 1
                raise LinAlgError(
                    f"{k}-th leading minor of the array is not positive definite"
                )
            self.log_det = float(np.sum(np.log(diag)))
            self.B_inv = np.diag(1.0 / diag)
            self.B_inv_b = b / diag
        else:
            # scipy names the failing leading minor in its LinAlgError message
            from scipy.linalg import cho_solve, cholesky, solve_triangular

            chol = cholesky(B, lower=True)
            self.log_det = 2.0 * float(np.sum(np.log(np.diagonal(chol))))
            self._chol_inv = solve_triangular(chol, np.eye(p), lower=True)
            self._chol_inv.setflags(write=False)
            self.B_inv = cho_solve((chol, True), np.eye(p))
            self.B_inv_b = cho_solve((chol, True), b)
        for arr in (self.B_inv, self.B_inv_b):
            arr.setflags(write=False)

    @property
    def p(self) -> int:
        return self.b.size

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"GaussianPriorParams(p={self.p}, diagonal={self.is_diagonal})"


def log_poisson_likelihood(beta, data: Dataset) -> float:
    """Exact Poisson log-likelihood sum_i [y_i eta_i - exp(eta_i) - lgamma(y_i+1)]
    with eta_i = x_i' beta.

    Returns -inf when any exp(eta_i) overflows double precision, so callers
    can treat such coefficient vectors as having zero likelihood.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (data.p,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({data.p},)")
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta contains non-finite entries")
    return _log_poisson_from_eta(data.X @ beta, data)


def _log_poisson_from_eta(eta, data: Dataset) -> float:
    if np.any(eta >= ETA_OVERFLOW):
        return -np.inf
    value = float(data._yf @ eta - np.exp(eta).sum() - data._lgamma_y1)
    return value if np.isfinite(value) else -np.inf


def log_gaussian_prior(beta, prior: GaussianPriorParams) -> float:
    """Full multivariate normal log-density N(beta; b, B), normalizer included."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (prior.p,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({prior.p},)")
    diff = beta - prior.b
    if prior.is_diagonal:
        quad = float(np.sum(diff * diff / np.diagonal(prior.B)))
    else:
        u = prior._chol_inv @ diff
        quad = float(u @ u)
    return -0.5 * (prior.p * np.log(2.0 * np.pi) + prior.log_det + quad)

