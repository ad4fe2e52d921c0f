"""Independent oracles for the test suite.

Everything here is written from the model definitions directly (direct pmf
formulas, quadrature, brute-force summation) and deliberately avoids the
package code paths it is used to validate.
"""

import math

import numpy as np
from scipy import integrate, optimize
from scipy.special import gammaln


def poisson_logpmf(y, lam):
    y = np.asarray(y, dtype=float)
    lam = np.asarray(lam, dtype=float)
    return y * np.log(lam) - lam - gammaln(y + 1.0)


def log_nb_likelihood(beta, r, data, normalized=False):
    """Negative-binomial approximate log-likelihood with per-observation
    stopping parameters r_i and success probabilities lambda_i/(r_i+lambda_i).

    With ``normalized=False`` only the beta-dependent kernel
    sum_i [r_i log(r_i/(r_i+lambda_i)) + y_i log(lambda_i/(r_i+lambda_i))]
    is returned; ``normalized=True`` adds the combinatorial terms
    lgamma(y_i+r_i) - lgamma(r_i) - lgamma(y_i+1) so the result is a proper
    log pmf.
    """
    y = np.asarray(data.y, dtype=float)
    r = np.asarray(r, dtype=float)
    if r.shape != y.shape:
        raise ValueError(f"r has shape {r.shape}, expected {y.shape}")
    if np.any(r <= 0) or not np.all(np.isfinite(r)):
        raise ValueError("all r_i must be positive and finite")
    eta = data.X @ np.asarray(beta, dtype=float)
    log_r = np.log(r)
    # log(r + lambda) without forming exp(eta); stable for large eta
    log_r_lam = np.logaddexp(log_r, eta)
    value = float(np.sum(r * (log_r - log_r_lam) + y * (eta - log_r_lam)))
    if normalized:
        value += float(np.sum(gammaln(y + r) - gammaln(r) - gammaln(y + 1.0)))
    return value


def empirical_cdf_ratio_distance(lam, r, full_output: bool = False):
    """Brute-force sup over y of the absolute CDF-ratio error between the
    negative binomial NB(r, lambda/(r+lambda)) and Poisson(lambda).

    Both CDFs are accumulated from pmf recurrences until each exceeds
    1 - 1e-12; the oracle for ``tuning.nb_poisson_distance``.  With
    ``full_output=True`` also returns the y attaining the sup.
    """
    lam = float(lam)
    r = float(r)
    if lam < 0 or r <= 0 or not (math.isfinite(lam) and math.isfinite(r)):
        raise ValueError("lambda must be >= 0 and r > 0, both finite")
    if lam == 0.0:
        return (0.0, 0) if full_output else 0.0
    pois_pmf = math.exp(-lam)
    nb_pmf = math.exp(-r * math.log1p(lam / r))
    pois_cdf = pois_pmf
    nb_cdf = nb_pmf
    q = lam / (r + lam)
    best = abs(nb_cdf / pois_cdf - 1.0)
    arg = 0
    y = 0
    target = 1.0 - 1e-12
    while pois_cdf < target or nb_cdf < target:
        y += 1
        pois_pmf *= lam / y
        nb_pmf *= (y - 1.0 + r) / y * q
        pois_cdf += pois_pmf
        nb_cdf += nb_pmf
        err = abs(nb_cdf / pois_cdf - 1.0)
        if err > best:
            best = err
            arg = y
        if y > 10_000_000:  # pragma: no cover - defensive
            break
    return (best, arg) if full_output else best


def log_posterior_1d(b, y, x, prior_mean=0.0, prior_var=1.0):
    """Exact unnormalized 1-D log posterior, written independently."""
    eta = x * b
    loglik = float(np.sum(y * eta - np.exp(eta) - gammaln(y + 1.0)))
    logprior = -0.5 * np.log(2 * np.pi * prior_var) - 0.5 * (b - prior_mean) ** 2 / prior_var
    return loglik + logprior


def quad_posterior_1d(y, x, prior_mean=0.0, prior_var=1.0):
    """Posterior mean and sd by adaptive quadrature of the 1-D posterior."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)

    res = optimize.minimize_scalar(
        lambda b: -log_posterior_1d(b, y, x, prior_mean, prior_var),
        bounds=(-20, 20), method="bounded",
    )
    mode = res.x
    shift = log_posterior_1d(mode, y, x, prior_mean, prior_var)

    def w(b):
        return np.exp(log_posterior_1d(b, y, x, prior_mean, prior_var) - shift)

    lo, hi = mode - 12.0, mode + 12.0
    z, _ = integrate.quad(w, lo, hi, limit=200)
    m1, _ = integrate.quad(lambda b: b * w(b), lo, hi, limit=200)
    m2, _ = integrate.quad(lambda b: b * b * w(b), lo, hi, limit=200)
    mean = m1 / z
    var = m2 / z - mean**2
    return mean, np.sqrt(var)


def quad_posterior_2d(y, X, prior_mean=0.0, prior_var=1.0, grid_size=601, half_width=10.0):
    """Posterior mean and sd for p=2 by tensor-grid trapezoid quadrature."""
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)

    def neg_logpost(beta):
        eta = X @ beta
        ll = float(np.sum(y * eta - np.exp(eta) - gammaln(y + 1.0)))
        lp = float(np.sum(-0.5 * np.log(2 * np.pi * prior_var)
                          - 0.5 * (beta - prior_mean) ** 2 / prior_var))
        return -(ll + lp)

    res = optimize.minimize(neg_logpost, np.zeros(2), method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
    mode = res.x
    # Laplace scale from finite-difference Hessian
    h = 1e-4
    hess = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            ei = np.eye(2)[i] * h
            ej = np.eye(2)[j] * h
            hess[i, j] = (
                neg_logpost(mode + ei + ej) - neg_logpost(mode + ei - ej)
                - neg_logpost(mode - ei + ej) + neg_logpost(mode - ei - ej)
            ) / (4 * h * h)
    scales = np.sqrt(np.diag(np.linalg.inv(hess)))

    axes = [np.linspace(mode[k] - half_width * scales[k],
                        mode[k] + half_width * scales[k], grid_size) for k in range(2)]
    B0, B1 = np.meshgrid(axes[0], axes[1], indexing="ij")
    eta = X[:, 0][None, None, :] * B0[:, :, None] + X[:, 1][None, None, :] * B1[:, :, None]
    logpost = (y[None, None, :] * eta - np.exp(eta)).sum(axis=2)
    logpost += (-0.5 * ((B0 - prior_mean) ** 2 + (B1 - prior_mean) ** 2) / prior_var)
    logpost -= logpost.max()
    w = np.exp(logpost)

    def integ(f):
        return np.trapezoid(np.trapezoid(f, axes[1], axis=1), axes[0])

    z = integ(w)
    mean = np.array([integ(B0 * w), integ(B1 * w)]) / z
    var = np.array([integ((B0 - mean[0]) ** 2 * w), integ((B1 - mean[1]) ** 2 * w)]) / z
    return mean, np.sqrt(var)


def quad_cpo_1d(y, x, prior_mean=0.0, prior_var=1.0):
    """Leave-one-out predictive ordinates p(y_i | y_{-i}) by quadrature:
    the ratio of the full to the leave-one-out normalizing constants."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)

    def log_z(mask):
        ym, xm = y[mask], x[mask]
        res = optimize.minimize_scalar(
            lambda b: -log_posterior_1d(b, ym, xm, prior_mean, prior_var),
            bounds=(-20, 20), method="bounded",
        )
        shift = log_posterior_1d(res.x, ym, xm, prior_mean, prior_var)
        val, _ = integrate.quad(
            lambda b: np.exp(log_posterior_1d(b, ym, xm, prior_mean, prior_var) - shift),
            res.x - 12, res.x + 12, limit=200,
        )
        return shift + np.log(val)

    full = log_z(np.ones(y.size, dtype=bool))
    out = np.empty(y.size)
    for i in range(y.size):
        mask = np.ones(y.size, dtype=bool)
        mask[i] = False
        out[i] = np.exp(full - log_z(mask))
    return out


def mc_se_mean(draws_1d, ess):
    """Monte Carlo standard error of a posterior-mean estimate."""
    return float(np.std(draws_1d, ddof=1) / np.sqrt(max(ess, 1.0)))


def mc_se_sd(draws_1d, ess):
    """Approximate Monte Carlo standard error of a posterior-sd estimate."""
    return float(np.std(draws_1d, ddof=1) / np.sqrt(2.0 * max(ess, 1.0)))


def weighted_mc_se_mean(draws_1d, log_weights):
    """Self-normalized importance-sampling SE of a mean estimate."""
    lw = np.asarray(log_weights, dtype=float)
    w = np.exp(lw - lw.max())
    w = w / w.sum()
    mean = float(w @ draws_1d)
    var = float(np.sum(w**2 * (draws_1d - mean) ** 2))
    return np.sqrt(var)
