"""Chain and weight diagnostics, posterior summaries, and predictive
model comparison (CPO / LPML)."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .model import Dataset

__all__ = [
    "DegenerateSeriesWarning",
    "CPOInstabilityWarning",
    "WeightCollapseWarning",
    "PosteriorSummary",
    "ess_chain",
    "ess_vector",
    "ess_from_log_weights",
    "time_per_independent_sample",
    "cpo",
    "lpml",
    "summarize",
]


class DegenerateSeriesWarning(UserWarning):
    """A constant series was passed to the autocorrelation ESS estimator."""


class CPOInstabilityWarning(UserWarning):
    """Some CPO terms hit zero likelihood and dominate the harmonic mean."""


class WeightCollapseWarning(UserWarning):
    """An importance sample's weight ESS is under 1% of its draws."""


@dataclass(frozen=True, eq=False)
class PosteriorSummary:
    """Per-coefficient posterior summary plus chain-level efficiency metrics.

    ``ess`` is the per-coordinate autocorrelation ESS for MH chains; for
    importance-sampler output every coordinate carries the weight ESS.
    """

    mean: np.ndarray
    sd: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    ess: np.ndarray
    level: float
    elapsed_seconds: float
    time_per_independent_sample: float
    excludes_zero: np.ndarray
    acceptance_rate: float | None = None
    weight_ess: float | None = None


def _autocorr(x: np.ndarray) -> np.ndarray:
    """Autocorrelation function via FFT, normalized so rho[0] = 1."""
    n = x.size
    xc = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n].real / n
    return acov / acov[0]


def ess_chain(series) -> float:
    """Effective sample size T / (1 + 2 sum_k rho_k), with the sum truncated
    by Geyer's initial monotone positive sequence of paired autocorrelations.

    The estimate is clamped to (0, T].  A constant series returns T and
    emits ``DegenerateSeriesWarning``.
    """
    x = np.asarray(series, dtype=np.float64).ravel()
    n = x.size
    if n < 10:
        raise ValueError(f"ess_chain needs at least 10 points, got {n}")
    if np.ptp(x) == 0.0:
        warnings.warn("constant series; returning ESS = T", DegenerateSeriesWarning)
        return float(n)
    rho = _autocorr(x)
    n_pairs = n // 2
    pair_sums = rho[0 : 2 * n_pairs : 2] + rho[1 : 2 * n_pairs : 2]
    # initial positive sequence, then enforce monotone non-increase
    positive = pair_sums > 0
    cut = int(np.argmin(positive)) if not positive.all() else n_pairs
    if cut == 0:
        return float(n)
    kept = np.minimum.accumulate(pair_sums[:cut])
    tau = 2.0 * float(kept.sum()) - 1.0
    if tau <= 0:
        return float(n)
    return float(min(n / tau, n))


def ess_vector(draws) -> np.ndarray:
    """Per-coordinate autocorrelation ESS of a draws matrix.

    Coordinates that never move are scored as a single effective draw (the
    degenerate-series flag of ``ess_chain`` mapped to 1.0): a chain stuck at
    one point carries one draw's worth of information, and benchmark metrics
    must not reward it with ESS = T.  Very short chains (T < 10) fall back
    to ESS = T per coordinate.
    """
    draws = np.asarray(draws, dtype=np.float64)
    if draws.ndim != 2:
        raise ValueError("draws must be a (T, p) matrix")
    n_draws, p = draws.shape
    out = np.empty(p)
    for j in range(p):
        col = draws[:, j]
        if np.ptp(col) == 0.0:
            out[j] = 1.0
        elif n_draws < 10:
            out[j] = float(n_draws)
        else:
            out[j] = ess_chain(col)
    return out


def ess_from_log_weights(log_weights) -> float:
    """Weight ESS (sum w)^2 / sum w^2 of an importance sample, computed with
    max-subtraction in log space; always in [1, T] for positive weights."""
    lw = np.asarray(log_weights, dtype=np.float64).ravel()
    if lw.size == 0:
        raise ValueError("no weights")
    m = float(np.max(lw))
    if not np.isfinite(m):
        raise EstimationError(
            "all importance weights underflowed to zero; "
            "increase the distance bound d or the number of iterations"
        )
    w = np.exp(lw - m)
    return float(w.sum() ** 2 / np.sum(w * w))


def time_per_independent_sample(elapsed_seconds: float, ess_per_coordinate) -> float:
    """Wall-clock seconds per effective draw: elapsed / min(ESS), the
    conservative per-coordinate aggregation."""
    if not elapsed_seconds > 0:
        raise ValueError("elapsed_seconds must be positive")
    ess = np.asarray(ess_per_coordinate, dtype=np.float64).ravel()
    if np.any(ess <= 0):
        raise ValueError("ESS entries must be positive")
    return elapsed_seconds / float(np.min(ess))


# elements per CPO temporary: 2 MiB, under the 4 MiB from which numpy
# advises the kernel to back an array with huge pages
_CPO_BLOCK = 1 << 18


def cpo(draws, data: Dataset, return_log: bool = False, log_weights=None):
    """Harmonic-mean conditional predictive ordinates.

    CPO_i = [T^{-1} sum_t 1/f(y_i | lambda_i(beta_t))]^{-1}, evaluated in
    log space by a log-sum-exp over blocks of draws, each block's
    temporaries at most ``_CPO_BLOCK`` elements (one draw per block when n
    is larger).  For an importance sample, pass its ``log_weights``: the
    average over draws is then weighted by the self-normalized weights,
    CPO_i = [sum_t w_t/f(y_i | beta_t) / sum_t w_t]^{-1}, and draws of
    weight zero are left out.  Observations where some f(y_i | beta_t)
    underflows to zero are reported through ``CPOInstabilityWarning``
    (their CPO collapses to 0).
    """
    draws = np.asarray(draws, dtype=np.float64)
    if draws.ndim != 2 or draws.shape[1] != data.p:
        raise ValueError(f"draws must be (T, {data.p}), got {draws.shape}")
    # no weights is equal weights: exp(0) summed over T draws is exactly T
    if log_weights is None:
        log_weights = np.zeros(draws.shape[0])
    lw = np.asarray(log_weights, dtype=np.float64)
    if lw.shape != draws.shape[:1]:
        raise ValueError(f"log_weights must be ({draws.shape[0]},), got {lw.shape}")
    if np.any(np.isnan(lw) | (lw == np.inf)):
        raise ValueError("log_weights must be finite or -inf")
    kept = lw > -np.inf
    draws, lw = draws[kept], lw[kept]
    n_draws = draws.shape[0]
    if n_draws < 1:
        raise ValueError("need at least one draw")
    if n_draws < 100:
        warnings.warn(
            f"only {n_draws} draws; CPO estimates may be unstable", UserWarning
        )
    # shifted so the largest weight is 1; the shift cancels in the ratio
    lw = lw - np.max(lw)
    log_total = np.log(np.exp(lw).sum())
    y = data._yf
    lgam = data._lgamma_y1_rows
    rows = max(1, _CPO_BLOCK // max(data.n, 1))
    # log sum_t w_t/f(y_i | beta_t), block by block
    log_sum = np.full(data.n, -np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_draws, rows):
            etas = draws[start : start + rows] @ data.X.T
            neg_logf = np.exp(etas) - y * etas + lgam  # -log f, may be +inf
            neg_logf += lw[start : start + rows, None]
            # an infinite max is left unshifted, so its block sum stays +inf
            shift = np.max(neg_logf, axis=0)
            shift[np.isinf(shift)] = 0.0
            block = shift + np.log(np.exp(neg_logf - shift).sum(axis=0))
            np.logaddexp(log_sum, block, out=log_sum)
    log_cpo = log_total - log_sum
    unstable = np.flatnonzero(~np.isfinite(log_cpo))
    if unstable.size:
        warnings.warn(
            f"zero likelihood terms dominate CPO for observations {unstable.tolist()}",
            CPOInstabilityWarning,
        )
        log_cpo[unstable] = -np.inf
    if return_log:
        return log_cpo
    return np.exp(log_cpo)


def lpml(cpo_values) -> float:
    """Log pseudo-marginal likelihood: sum_i log CPO_i."""
    v = np.asarray(cpo_values, dtype=np.float64).ravel()
    if np.any(v <= 0) or not np.all(np.isfinite(v)):
        raise ValueError("all CPO values must be positive and finite")
    return float(np.sum(np.log(v)))


def _weighted_quantile(x: np.ndarray, w: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Quantiles of a weighted sample: sort by value, place each order
    statistic at its cumulative weight below, rescaled so the positions end
    at 1, and interpolate (reduces to the type-7 rule under equal weights).
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ws = w[order]
    total = ws.sum()
    denom = total - ws[-1]
    if xs.size == 1 or denom <= 0:
        return np.full(qs.size, xs[-1])
    cum_below = np.concatenate(([0.0], np.cumsum(ws)[:-1]))
    pos = cum_below / denom
    return np.interp(qs, pos, xs)


def summarize(output, level: float = 0.95) -> PosteriorSummary:
    """Posterior summary of a ChainOutput or ISOutput.

    Equal-tailed intervals at the given level; for importance-sampler
    output every statistic is weight-adjusted (self-normalized), and
    uniform weights reproduce the unweighted summary exactly.  Coefficients
    whose interval excludes zero are marked.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    draws = np.asarray(output.draws, dtype=np.float64)
    if draws.ndim != 2 or draws.shape[0] < 1:
        raise ValueError("output has no draws to summarize")
    n_draws, p = draws.shape
    qs = np.array([(1.0 - level) / 2.0, (1.0 + level) / 2.0])

    log_weights = getattr(output, "log_weights", None)
    if log_weights is None:
        ess = ess_vector(draws)
        acceptance = getattr(output, "acceptance_rate", None)
        weight_ess = None
    else:
        weight_ess = ess_from_log_weights(log_weights)
        ess = np.full(p, weight_ess)
        acceptance = None

    if log_weights is None or np.ptp(log_weights) == 0.0:
        w = np.ones(n_draws)
        mean = draws.mean(axis=0)
        sd = draws.std(axis=0, ddof=1) if n_draws > 1 else np.zeros(p)
    else:
        lw = np.asarray(log_weights, dtype=np.float64)
        w = np.exp(lw - float(np.max(lw)))
        wsum = w.sum()
        mean = (w @ draws) / wsum
        sd = np.sqrt((w @ (draws - mean) ** 2) / wsum)
    bounds = np.empty((2, p))
    for j in range(p):
        bounds[:, j] = _weighted_quantile(draws[:, j], w, qs)

    lower, upper = bounds[0], bounds[1]
    elapsed = float(getattr(output, "elapsed_seconds", np.nan))
    tpis = time_per_independent_sample(elapsed, ess) if elapsed > 0 else float("nan")
    return PosteriorSummary(
        mean=mean,
        sd=sd,
        lower=lower,
        upper=upper,
        ess=ess,
        level=level,
        elapsed_seconds=elapsed,
        time_per_independent_sample=tpis,
        excludes_zero=(lower > 0.0) | (upper < 0.0),
        acceptance_rate=acceptance,
        weight_ess=weight_ess,
    )
