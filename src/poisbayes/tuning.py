"""Automatic choice of the negative-binomial stopping parameters r_i.

Each r_i is the smallest value (within [r_min, r_max]) for which the
Poisson/negative-binomial CDF-ratio distance

    d_A(lambda, r) = exp(lambda) * (1 + lambda/r)^(-r) - 1

stays below a user bound d.  d_A is non-negative, strictly decreasing in r
and vanishes as r -> infinity; it equals the empirical sup-ratio distance
attained at y = 0 (see ``empirical_cdf_ratio_distance``, used in the tests
to validate it by brute force).

A Lambert-W closed form is tried first: with L = lambda - log(1+d) the
equation d_A(lambda, r) = d is solved exactly by

    r = -lambda * L / (L + lambda * W(-(L/lambda) * exp(-L/lambda)))

on the W_{-1} branch; the principal branch yields the degenerate root
r = infinity, so it is never tried.  A candidate is accepted only if it is
finite, inside [r_min, r_max] and reproduces the target distance to 1e-6
relative; anything else falls back to bisection on d_A and is counted in
``TuningDiagnostics``.  Every observation's lambda is solved in one
vectorized pass, ties included: a dedup of equal lambdas cost more than it
saved even on designs with two distinct means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "TuningPolicy",
    "TuningDiagnostics",
    "nb_poisson_distance",
    "empirical_cdf_ratio_distance",
    "lambert_w",
    "solve_r",
    "compute_r_vector",
]

_INV_E = math.exp(-1.0)
_BRANCH_EPS = 1e-14
# exponent cap before exp() overflow in the distance
_EXP_CAP = 700.0
# slack multiplier on the distance bound, per the solve_r contract
_BOUND_SLACK = 1.0 + 1e-6


@dataclass(frozen=True)
class TuningPolicy:
    """Distance bound d of the per-observation r_i, which are kept inside
    the fixed range [r_min, r_max]."""

    d: float
    r_min: ClassVar[float] = 1e-2
    r_max: ClassVar[float] = 1e6

    def __post_init__(self):
        if not (self.d > 0 and math.isfinite(self.d)):
            raise ValueError(f"d must be positive and finite, got {self.d}")


@dataclass
class TuningDiagnostics:
    """Counters filled in by solve_r / compute_r_vector, per observation:
    ``solves`` counts every lambda solved, ``closed_form_fallbacks`` every
    one whose closed-form root was rejected for bisection."""

    solves: int = 0
    closed_form_fallbacks: int = 0


def _distance_raw(lam, r):
    """d_A without validation; inputs already float arrays, lam finite >= 0."""
    expo = lam - r * np.log1p(lam / r)
    return np.where(expo > _EXP_CAP, np.inf, np.expm1(np.minimum(expo, _EXP_CAP)))


def nb_poisson_distance(lam, r):
    """Analytic CDF-ratio distance d_A(lambda, r), computed in log space.

    Accepts scalars or arrays; exponent overflow (> 700) yields +inf.
    """
    lam = np.asarray(lam, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if np.any(lam < 0) or np.any(r <= 0):
        raise ValueError("lambda must be >= 0 and r > 0")
    out = _distance_raw(lam, r)
    if out.ndim == 0:
        return float(out)
    return out


def empirical_cdf_ratio_distance(lam, r, epsilon: float = 1e-12, full_output: bool = False):
    """Brute-force sup over y of the absolute CDF-ratio error between the
    negative binomial NB(r, lambda/(r+lambda)) and Poisson(lambda).

    Both CDFs are accumulated from pmf recurrences until each exceeds
    1 - epsilon.  Intended as a test oracle for ``nb_poisson_distance``;
    with ``full_output=True`` also returns the y attaining the sup.
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
    target = 1.0 - epsilon
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


def _halley_polish(w, x, iterations=50):
    """Halley iteration for w*exp(w) = x from a branch-appropriate start."""
    for _ in range(iterations):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        if wp1 == 0.0:
            break
        dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= dw
        if abs(dw) <= 4e-16 * (1.0 + abs(w)):
            break
    return w


def lambert_w(x: float, branch: str = "principal") -> float:
    """Lambert W: the solution of w * exp(w) = x on the requested branch.

    ``branch="principal"`` covers x >= -1/e; ``branch="minus_one"`` covers
    -1/e <= x < 0.  Accuracy target is 1e-12 relative on the defining
    identity (Halley iteration from a branch-appropriate start, at most 50
    steps; a square-root series start handles the neighbourhood of the
    branch point -1/e).
    """
    x = float(x)
    if branch == "principal":
        if x < -_INV_E - _BRANCH_EPS:
            raise ValueError(f"principal branch needs x >= -1/e, got {x}")
        if x == 0.0:
            return 0.0
        if x + _INV_E <= _BRANCH_EPS:
            return -1.0
        if x < -0.25:
            p = math.sqrt(2.0 * (1.0 + math.e * x))
            w0 = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p**3
        elif x < math.e:
            w0 = x / (1.0 + x)
        else:
            l1 = math.log(x)
            l2 = math.log(l1)
            w0 = l1 - l2 + l2 / l1
        return _halley_polish(w0, x)
    if branch == "minus_one":
        if x >= 0.0:
            raise ValueError(f"minus_one branch needs -1/e <= x < 0, got {x}")
        if x < -_INV_E - _BRANCH_EPS:
            raise ValueError(f"minus_one branch needs x >= -1/e, got {x}")
        if x + _INV_E <= _BRANCH_EPS:
            return -1.0
        if x < -0.25:
            p = math.sqrt(2.0 * (1.0 + math.e * x))
            w0 = -1.0 - p - p * p / 3.0 - 11.0 / 72.0 * p**3
        else:
            l1 = math.log(-x)
            w0 = l1 - math.log(-l1)
        return _halley_polish(w0, x)
    raise ValueError(f"unknown branch {branch!r}")


def _wm1_vec(a):
    """Vectorized W_{-1} on [-1/e, 0), same scheme as ``lambert_w``.

    The starting guesses are within ~1e-2 everywhere on the branch, so four
    fixed Halley steps (cubic convergence) reach machine precision; the
    dense-grid test pins agreement with the scalar ``lambert_w``.
    """
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        p = np.sqrt(np.maximum(2.0 * (1.0 + math.e * a), 0.0))
        w_series = -1.0 - p - p * p / 3.0 - 11.0 / 72.0 * p**3
        la = np.log(-a)
        w_log = la - np.log(-la)
    w = np.where(a < -0.25, w_series, w_log)
    for _ in range(4):
        ew = np.exp(w)
        f = w * ew - a
        wp1 = w + 1.0
        dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w = w - dw
    return w


def _bisect_r(lam: float, policy: TuningPolicy) -> float:
    """Bisection on the monotone-decreasing distance; assumes the root is
    bracketed by [r_min, r_max]."""
    d = policy.d
    lo, hi = policy.r_min, policy.r_max
    while (hi - lo) / hi > 1e-10:
        mid = 0.5 * (lo + hi)
        if math.expm1(min(lam - mid * math.log1p(lam / mid), _EXP_CAP)) > d:
            lo = mid
        else:
            hi = mid
    return hi


def _closed_form_r(lam, d):
    """Candidate roots of d_A(lambda, r) = d from the W_{-1} branch.

    With L = lambda - log(1+d) in (0, lambda), the argument
    a = -(L/lambda) exp(-L/lambda) lies in [-1/e, 0).  The principal branch
    there returns the degenerate w = -L/lambda (r = infinity), so W_{-1} is
    the only branch with a usable root; the caller still filters the
    candidates.
    """
    lam = np.asarray(lam, dtype=np.float64)
    L = lam - math.log1p(d)
    u = L / lam
    a = -u * np.exp(-u)
    w_m1 = _wm1_vec(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        return -lam * L / (L + lam * w_m1)


def solve_r(lam: float, policy: TuningPolicy, diagnostics: TuningDiagnostics | None = None) -> float:
    """Smallest r in [r_min, r_max] with nb_poisson_distance(lam, r) <= d,
    or r_max when even r_max misses the bound (cap rule)."""
    return float(r_vector_for_lambdas(np.asarray([lam]), policy, diagnostics)[0])


def compute_r_vector(beta, data, policy: TuningPolicy, diagnostics: TuningDiagnostics | None = None) -> np.ndarray:
    """Per-observation r_i = solve_r(exp(x_i' beta), policy)."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (data.p,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({data.p},)")
    with np.errstate(over="ignore"):
        lam = np.exp(data.X @ beta)
    return r_vector_for_lambdas(lam, policy, diagnostics)


def r_vector_for_lambdas(lam, policy: TuningPolicy, diagnostics: TuningDiagnostics | None = None) -> np.ndarray:
    """``solve_r`` for every entry of ``lam`` in one vectorized pass."""
    lams = np.asarray(lam, dtype=np.float64)
    d = policy.d
    bound = d * _BOUND_SLACK
    r = np.empty_like(lams)
    if diagnostics is not None:
        diagnostics.solves += lams.size

    # non-finite / overflowing lambda cannot meet the bound at any finite r
    finite = np.isfinite(lams)
    lam_safe = lams if finite.all() else np.where(finite, lams, 1.0)
    at_min = finite & (_distance_raw(lam_safe, policy.r_min) <= bound)
    at_max = ~at_min & (~finite | (_distance_raw(lam_safe, policy.r_max) > bound))
    r[at_min] = policy.r_min
    r[at_max] = policy.r_max

    interior = ~(at_min | at_max)
    if not interior.any():
        return r
    lam_i = lams[interior]
    out_i = _closed_form_r(lam_i, d)
    # NaN and infinite candidates fail the range test
    usable = (out_i >= policy.r_min) & (out_i <= policy.r_max)
    # accept only near-exact roots; a sloppy candidate that merely
    # satisfies the one-sided bound would silently overshoot r
    usable[usable] = np.abs(_distance_raw(lam_i[usable], out_i[usable]) - d) <= 1e-6 * d

    for j in np.flatnonzero(~usable):
        out_i[j] = _bisect_r(float(lam_i[j]), policy)
        if diagnostics is not None:
            diagnostics.closed_form_fallbacks += 1
    r[interior] = out_i
    return r
