"""Workload inputs and the reference computations the program is checked against.

Everything here is written apart from ``poisbayes``: inputs are generated
from the workload seed with this file's own code and handed to the program
only as CSV, and the references (2-D quadrature, Laplace approximation)
evaluate the exact Poisson posterior from its definition.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One benchmark input: design make-up, prior, and chain layout.

    ``iterations`` and ``burnin`` fix one chain; a round of the benchmark is
    one ``mh_run`` chain followed by one ``is_run`` chain.
    """

    name: str
    index: int
    n: int
    p: int
    prior: dict
    iterations: int
    burnin: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("groups-n200-p2", 0, n=200, p=2, prior={"kind": "gaussian", "var": 2.0},
                 iterations=2200, burnin=200),
        Workload("tall-n5000-p5", 1, n=5000, p=5, prior={"kind": "gaussian", "var": 2.0},
                 iterations=1200, burnin=200),
        Workload("horseshoe-n2000-p30", 2, n=2000, p=30, prior={"kind": "horseshoe", "p_n": 4},
                 iterations=160, burnin=40),
    )
}

# true coefficients; seeds vary only the design draws and the counts
_GROUPS_BETA = np.array([0.0, 0.7])  # lambda = 1 and 2
_TALL_BETA = np.array([1.5, 0.3, -0.2, 0.15, 0.1])
_HS_SIGNAL = np.array([1.0, 0.5, -0.4, 0.3])  # first 4 of 30; the rest are 0


@dataclass(frozen=True)
class Inputs:
    """Generated inputs: the design as the program should read it back."""

    y: np.ndarray
    X: np.ndarray
    header: list
    rows: list
    columns: list  # column specs in the program's CSV config format


def seed_sequence(seed: int, workload: Workload, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), workload.index, *path])


def generate(workload: Workload, seed: int) -> Inputs:
    """Draw the workload's design and counts from ``seed``."""
    rng = np.random.default_rng(seed_sequence(seed, workload, 0))
    n = workload.n
    if workload.name.startswith("groups"):
        level_b = rng.integers(0, 2, size=n).astype(bool)
        X = np.column_stack([np.ones(n), level_b.astype(np.float64)])
        y = rng.poisson(np.exp(X @ _GROUPS_BETA))
        header = ["y", "g"]
        rows = [[str(int(y[i])), "b" if level_b[i] else "a"] for i in range(n)]
        columns = [{"name": "y", "kind": "response"},
                   {"name": "g", "kind": "categorical", "reference_level": "a"}]
    else:
        k = workload.p - 1
        Z = rng.standard_normal((n, k))
        X = np.column_stack([np.ones(n), Z])
        beta = _TALL_BETA if workload.name.startswith("tall") else np.concatenate(
            [_HS_SIGNAL, np.zeros(workload.p - _HS_SIGNAL.size)])
        y = rng.poisson(np.exp(X @ beta))
        header = ["y"] + [f"x{j + 1}" for j in range(k)]
        rows = [[str(int(y[i]))] + [repr(float(v)) for v in Z[i]] for i in range(n)]
        columns = [{"name": "y", "kind": "response"}] + [
            {"name": h, "kind": "numeric"} for h in header[1:]]
    return Inputs(y=y.astype(np.int64), X=X, header=header, rows=rows, columns=columns)


def write_csv(inputs: Inputs, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(inputs.header)
        writer.writerows(inputs.rows)


def tau_for(workload: Workload) -> float:
    """Horseshoe global scale (p_n/n) sqrt(log(n/p_n)), written out here so
    the check does not rest on the program's own formula."""
    p_n, n = workload.prior["p_n"], workload.n
    return (p_n / n) * math.sqrt(math.log(n / p_n))


def _log_post(beta: np.ndarray, X: np.ndarray, y: np.ndarray, prior_var: float) -> np.ndarray:
    """Unnormalised log posterior at the rows of ``beta`` (m, p)."""
    eta = beta @ X.T
    return (eta @ y) - np.exp(eta).sum(axis=1) - 0.5 * np.sum(beta**2, axis=1) / prior_var


def laplace(X: np.ndarray, y: np.ndarray, prior_var: float) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mode by Newton's method and the Laplace covariance
    (X' Lambda X + B^{-1})^{-1} at the mode, for the prior N(0, prior_var I)."""
    p = X.shape[1]
    beta = np.zeros(p)
    beta[0] = math.log(max(float(y.mean()), 0.1))
    for _ in range(100):
        lam = np.exp(X @ beta)
        grad = X.T @ (y - lam) - beta / prior_var
        hess = X.T @ (lam[:, None] * X) + np.eye(p) / prior_var
        step = np.linalg.solve(hess, grad)
        beta = beta + step
        if np.max(np.abs(step)) < 1e-12:
            break
    lam = np.exp(X @ beta)
    cov = np.linalg.inv(X.T @ (lam[:, None] * X) + np.eye(p) / prior_var)
    return beta, cov


def quadrature_2d(X: np.ndarray, y: np.ndarray, prior_var: float,
                  points: int = 401, width: float = 9.0) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and sd of a 2-coefficient model by the trapezoid rule
    on a grid of +-``width`` Laplace sds around the mode; on these
    log-concave posteriors the mass outside is below 1e-12."""
    mode, cov = laplace(X, y, prior_var)
    sd = np.sqrt(np.diag(cov))
    axes = [np.linspace(mode[j] - width * sd[j], mode[j] + width * sd[j], points)
            for j in range(2)]
    b0, b1 = np.meshgrid(axes[0], axes[1], indexing="ij")
    grid = np.column_stack([b0.ravel(), b1.ravel()])
    # in blocks, so the check stays small next to the program's own memory
    logp = np.concatenate([_log_post(grid[k:k + 2048], X, y, prior_var)
                           for k in range(0, grid.shape[0], 2048)])
    w = np.exp(logp - logp.max())
    trap = np.ones(points)
    trap[[0, -1]] = 0.5
    w *= np.outer(trap, trap).ravel()
    w /= w.sum()
    mean = w @ grid
    var = w @ (grid - mean) ** 2
    return mean, np.sqrt(var)
