"""The benchmark's own estimators and correctness checks.

Nothing here calls the program's diagnostics: effective sample sizes,
Monte Carlo standard errors, the Poisson/negative-binomial distance and the
PG-mean proposal are all computed from their definitions, so that a change
to the program's estimators cannot move the metrics or pass the checks.
"""

from __future__ import annotations

import numpy as np

# |estimate - reference| may reach this many Monte Carlo standard errors
Z_TOL = 5.0
# slack of the distance bound, as the r-solve promises it
BOUND_SLACK = 1.0 + 1e-6
# an interior r is minimal when shrinking it by this share breaks the bound
MINIMAL_SHRINK = 1e-4
# proposals recomputed here must match the program's to this relative error
PROPOSAL_RTOL = 1e-7


def _acov(x: np.ndarray) -> np.ndarray:
    """Autocovariances of each column of (T, k) ``x`` at lags 0..T-1."""
    t = x.shape[0]
    xc = x - x.mean(axis=0)
    size = 1 << (2 * t - 1).bit_length()
    f = np.fft.rfft(xc, size, axis=0)
    return np.fft.irfft(f * np.conj(f), size, axis=0)[:t] / t


def pooled_ess(chains: list[np.ndarray]) -> np.ndarray:
    """Per-coordinate ESS of equal-length chains (each (T, p)).

    Within-chain autocovariances are averaged over chains before Geyer's
    initial positive, monotone sequence truncates the sum, so short noisy
    chains share one autocorrelation estimate; ESS = chains * T / tau.
    """
    m = len(chains)
    t, p = chains[0].shape
    acov = sum(_acov(c) for c in chains) / m
    out = np.empty(p)
    for j in range(p):
        g = acov[:, j]
        if g[0] <= 0.0:
            out[j] = 1.0  # a coordinate that never moved carries one draw
            continue
        rho = g / g[0]
        pairs = rho[0:t - 1:2] + rho[1:t:2]
        cut = int(np.argmax(pairs <= 0)) if np.any(pairs <= 0) else pairs.size
        kept = np.minimum.accumulate(pairs[:cut]) if cut else pairs[:1]
        tau = max(2.0 * float(kept.sum()) - 1.0, 1.0 / (m * t))
        out[j] = min(m * t / tau, m * t)
    return out


def weight_ess(log_w: np.ndarray) -> float:
    """(sum w)^2 / sum w^2 of one chain's importance weights."""
    lw = np.asarray(log_w, dtype=np.float64)
    w = np.exp(lw - np.max(lw))
    return float(w.sum() ** 2 / np.sum(w * w))


def mh_moments(chains: list[np.ndarray]):
    """Pooled mean and sd of MH draws with their Monte Carlo standard errors.

    The sd's error comes from the ESS of the squared deviations, through
    d(sd) = d(var) / (2 sd).
    """
    draws = np.concatenate(chains)
    mean = draws.mean(axis=0)
    var = draws.var(axis=0)
    sd = np.sqrt(var)
    ess_x = pooled_ess(chains)
    sq = [(c - mean) ** 2 for c in chains]
    ess_sq = pooled_ess(sq)
    se_mean = sd / np.sqrt(ess_x)
    se_var = np.concatenate(sq).std(axis=0) / np.sqrt(ess_sq)
    return mean, sd, se_mean, se_var / (2.0 * sd)


def is_moments(draws: list[np.ndarray], log_w: list[np.ndarray]):
    """Self-normalised mean and sd over every chain's weighted draws, with
    delta-method standard errors.  Each term w_t (h(x_t) - E h) has mean
    zero given the anchor, whatever the anchor, so the terms are
    uncorrelated and the independent-draws formula applies."""
    x = np.concatenate(draws)
    lw = np.concatenate(log_w)
    w = np.exp(lw - np.max(lw))
    w /= w.sum()
    mean = w @ x
    dev2 = (x - mean) ** 2
    var = w @ dev2
    sd = np.sqrt(var)
    se_mean = np.sqrt(w**2 @ dev2)
    se_var = np.sqrt(w**2 @ (dev2 - var) ** 2)
    return mean, sd, se_mean, se_var / (2.0 * sd)


def compare(label: str, est, se, ref, ref_tol, failures: list) -> None:
    """Record a failure for each coordinate where |est - ref| exceeds
    Z_TOL standard errors plus the reference's own tolerance."""
    gap = np.abs(np.asarray(est) - np.asarray(ref))
    limit = Z_TOL * np.asarray(se) + np.asarray(ref_tol)
    for j in np.flatnonzero(~(gap <= limit)):
        failures.append(f"{label}[{j}]: |{est[j]:.6g} - {ref[j]:.6g}| = {gap[j]:.3g} "
                        f"> {limit[j]:.3g}")


def nb_distance(lam: np.ndarray, r: np.ndarray) -> np.ndarray:
    """d_A(lambda, r) = exp(lambda) (1 + lambda/r)^(-r) - 1 in log space."""
    with np.errstate(over="ignore"):
        return np.expm1(lam - r * np.log1p(lam / r))


def check_r(label: str, lam: np.ndarray, r: np.ndarray, d: float, r_min: float,
            r_max: float, failures: list) -> None:
    """Each r_i meets d_A <= d (1 + 1e-6) and is the smallest that does,
    unless it sits at r_min or r_max."""
    bad = ~np.isfinite(r) | (r < r_min) | (r > r_max)
    capped = r >= r_max
    bad |= ~capped & ~(nb_distance(lam, r) <= d * BOUND_SLACK)
    interior = ~capped & (r > r_min)
    shrunk = r[interior] * (1.0 - MINIMAL_SHRINK)
    bad[interior] |= ~(nb_distance(lam[interior], shrunk) > d)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        failures.append(f"{label}: r[{i}] = {float(r[i])!r} at lambda {float(lam[i])!r} breaks the "
                        f"bound d={d} or is not minimal ({int(bad.sum())} entries)")


def pg_proposal(X: np.ndarray, y: np.ndarray, beta: np.ndarray, r: np.ndarray,
                prior_prec: np.ndarray, prior_prec_mean: np.ndarray):
    """Mean and covariance of the PG-mean Gaussian proposal from its formula:
    omega_i = (y_i + r_i) tanh(c_i / 2) / (2 c_i), c_i = x_i'beta - log r_i,
    kappa_i = omega_i log r_i + (y_i - r_i) / 2,
    V = (X' Omega X + B^{-1})^{-1}, m = V (X' kappa + B^{-1} b)."""
    log_r = np.log(r)
    c = X @ beta - log_r
    b = y + r
    small = np.abs(c) < 1e-8
    c_safe = np.where(small, 1.0, c)
    omega = np.where(small, b / 4.0, b * np.tanh(c_safe / 2.0) / (2.0 * c_safe))
    kappa = omega * log_r + (y - r) / 2.0
    prec = X.T @ (omega[:, None] * X) + prior_prec
    cov = np.linalg.inv(prec)
    cov = 0.5 * (cov + cov.T)
    mean = np.linalg.solve(prec, X.T @ kappa + prior_prec_mean)
    return mean, cov


def check_proposal(label: str, prop, mean: np.ndarray, cov: np.ndarray,
                   failures: list) -> None:
    """The program's proposal N(m, L L') against the recomputed one, with
    errors in units of the proposal's own sds."""
    sd = np.sqrt(np.diag(cov))
    cov_prog = prop.L @ prop.L.T
    mean_err = float(np.max(np.abs(prop.m - mean) / sd))
    cov_err = float(np.max(np.abs(cov_prog - cov) / np.outer(sd, sd)))
    logdet = float(np.linalg.slogdet(cov)[1])
    logdet_err = abs(prop.log_det_V - logdet) / max(1.0, abs(logdet))
    if not (mean_err <= PROPOSAL_RTOL and cov_err <= PROPOSAL_RTOL
            and logdet_err <= PROPOSAL_RTOL):
        failures.append(f"{label}: proposal differs from its formula (mean {mean_err:.2e} "
                        f"sd, cov {cov_err:.2e}, log det {logdet_err:.2e})")
