"""Automatic choice of the negative-binomial stopping parameters r_i.

Each r_i is the smallest value (within [r_min, r_max]) for which the
Poisson/negative-binomial CDF-ratio distance

    d_A(lambda, r) = exp(lambda) * (1 + lambda/r)^(-r) - 1

stays below a user bound d.  d_A is non-negative, strictly decreasing in r
and vanishes as r -> infinity; it equals the empirical sup-ratio distance
attained at y = 0 (see ``empirical_cdf_ratio_distance``, used in the tests
to validate it by brute force).

A Lambert-W closed form gives every r_i: with L = lambda - log(1+d) the
equation d_A(lambda, r) = d is solved exactly by

    r = -lambda * L / (L + lambda * W(-(L/lambda) * exp(-L/lambda)))

on the W_{-1} branch; the principal branch yields the degenerate root
r = infinity, so it is never tried.  The root is clipped into
[r_min, r_max] (r_min when lambda <= log(1+d), r_max when lambda is not
finite) and the ``solve_r`` contract is checked once: the bound holds
unless r = r_max, and the distance reaches d unless r = r_min, both to
1e-6 relative.  Entries that fail fall back to bisection on d_A and are
counted in ``TuningDiagnostics``.  Every observation's lambda is solved in
one vectorized pass, ties included: a dedup of equal lambdas cost more
than it saved even on designs with two distinct means.
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
    """d_A without validation; inputs already float arrays, lam >= 0
    (a non-finite lam gives NaN)."""
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


def empirical_cdf_ratio_distance(lam, r, full_output: bool = False):
    """Brute-force sup over y of the absolute CDF-ratio error between the
    negative binomial NB(r, lambda/(r+lambda)) and Poisson(lambda).

    Both CDFs are accumulated from pmf recurrences until each exceeds
    1 - 1e-12.  Intended as a test oracle for ``nb_poisson_distance``;
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


def _lambert_w_vec(x, branch):
    """Lambert W on one real branch for an array ``x`` inside its domain,
    the branch point -1/e excluded (Halley's step divides by w + 1 there).

    Starts: a square-root series in p = sqrt(2(1 + e x)) for x < -1/4;
    above that x/(1+x) (principal, x < e) or the logarithmic asymptote.
    Every start is within ~0.3 of the root, so four fixed Halley steps
    (cubic convergence) reach machine precision; the dense-grid test pins
    the identity and that a fifth step moves w by rounding only.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(all="ignore"):
        p = np.sqrt(np.maximum(2.0 * (1.0 + math.e * x), 0.0))
        if branch == "minus_one":
            l1 = np.log(-x)
            w = np.where(x < -0.25, -1.0 - p - p * p / 3.0 - 11.0 / 72.0 * p**3, l1 - np.log(-l1))
        else:
            l1 = np.log(x)
            l2 = np.log(l1)
            w = np.where(x < -0.25, -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p**3,
                         np.where(x < math.e, x / (1.0 + x), l1 - l2 + l2 / l1))
        for _ in range(4):
            ew = np.exp(w)
            f = w * ew - x
            wp1 = w + 1.0
            dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
            w = w - dw
    return w


def lambert_w(x: float, branch: str = "principal") -> float:
    """Lambert W: the solution of w * exp(w) = x on the requested branch.

    ``branch="principal"`` covers x >= -1/e; ``branch="minus_one"`` covers
    -1/e <= x < 0.  Both give exactly -1 at the branch point; elsewhere
    this is the vectorised kernel of the r-solve, accurate to 1e-12
    relative on the defining identity.
    """
    x = float(x)
    if branch not in ("principal", "minus_one"):
        raise ValueError(f"unknown branch {branch!r}")
    if x < -_INV_E - _BRANCH_EPS:
        raise ValueError(f"{branch} branch needs x >= -1/e, got {x}")
    if branch == "minus_one" and x >= 0.0:
        raise ValueError(f"minus_one branch needs -1/e <= x < 0, got {x}")
    if x + _INV_E <= _BRANCH_EPS:
        return -1.0
    return float(_lambert_w_vec(x, branch))


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
    the only branch with a usable root.  Outside that range the candidate
    is NaN or not positive; the caller clips, checks and suppresses the
    floating-point warnings.
    """
    L = lam - math.log1p(d)
    u = L / lam
    a = -u * np.exp(-u)
    return -lam * L / (L + lam * _lambert_w_vec(a, "minus_one"))


def solve_r(lam: float, policy: TuningPolicy, diagnostics: TuningDiagnostics | None = None) -> float:
    """Smallest r in [r_min, r_max] with nb_poisson_distance(lam, r) <= d,
    or r_max when even r_max misses the bound (cap rule).

    The contract, up to a 1e-6 relative slack on d: the bound holds unless
    r = r_max, and the distance reaches d unless r = r_min.
    """
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
    """``solve_r`` for every entry of ``lam`` in one vectorized pass: the
    closed-form root clipped into [r_min, r_max], one check of the
    ``solve_r`` contract, and bisection for the entries that fail it."""
    lams = np.asarray(lam, dtype=np.float64)
    d = policy.d
    r_min, r_max = policy.r_min, policy.r_max
    nonfinite = ~np.isfinite(lams)
    with np.errstate(all="ignore"):
        cand = _closed_form_r(lams, d)
        # a NaN or non-positive candidate starts at r_max, where the check
        # sends it to bisection unless the cap rule really applies
        r = np.clip(np.where(cand > 0, cand, r_max), r_min, r_max)
        # lambda <= log(1+d): d_A < expm1(lambda) <= d at every r
        r[lams <= math.log1p(d)] = r_min
        # no finite r meets the bound for a non-finite lambda (d_A is NaN)
        r[nonfinite] = r_max
        dist = _distance_raw(lams, r)
    # the 1e-6 slack on both sides keeps accepted roots near-exact: a
    # sloppy candidate that merely meets the bound would overshoot r
    ok = (r == r_min) | (dist >= d * (1.0 - 1e-6))
    ok &= (r == r_max) | (dist <= d * (1.0 + 1e-6))
    ok |= nonfinite
    fails = np.flatnonzero(~ok)
    for j in fails:
        r[j] = _bisect_r(float(lams[j]), policy)
    if diagnostics is not None:
        diagnostics.solves += lams.size
        diagnostics.closed_form_fallbacks += fails.size
    return r
