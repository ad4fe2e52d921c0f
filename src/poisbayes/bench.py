"""Synthetic data generation and the time-per-independent-sample
benchmark harness over PG-MH, PG-IS and the random-walk MH baseline
(``random_walk_mh``, defined in ``samplers`` and re-exported here).

Seeding scheme (pinned): all streams are NumPy PCG64 generators derived
from ``SeedSequence([seed, n, p, replicate, slot])`` where slot 0 is data
generation and slot 1+k is the k-th method; golden benchmark files remain
valid as long as this derivation and NumPy's PCG64 are unchanged.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import ess_vector, time_per_independent_sample
from .errors import EstimationError, GenerationError, NumericError
from .model import Dataset, GaussianPriorParams
from .samplers import (
    FixedGaussianPrior,
    HorseshoePrior,
    MHConfig,
    PriorSpec,
    is_run,
    mh_run,
    random_walk_mh,
    tau_optimal,
)

__all__ = [
    "SimDesign",
    "BenchRecord",
    "BenchResult",
    "simulate_dataset",
    "random_walk_mh",
    "run_benchmark",
    "write_benchmark_csv",
]

_REDRAW_LIMIT = 100
_MIN_SCALE = 0.05
_EDGE_MARGIN = 1e-9


@dataclass(frozen=True)
class SimDesign:
    """Synthetic-design parameters: sample size, column count, covariate mix
    (intercept + continuous + binary categorical) and the Poisson-mean band."""

    n: int
    p: int
    seed: int = 0
    lambda_lo: float = 1.0
    lambda_hi: float = 200.0

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be at least 1")
        if not 0 < self.lambda_lo < self.lambda_hi:
            raise ValueError("need 0 < lambda_lo < lambda_hi")


def simulate_dataset(design: SimDesign, rng: np.random.Generator) -> tuple[Dataset, np.ndarray]:
    """Draw a synthetic Poisson regression dataset with all means inside
    [lambda_lo, lambda_hi].

    The design is an intercept column plus ceil((p-1)/2) continuous
    covariates (standard normal, then exactly standardized) and binary
    dummies (uniform levels) for the remaining columns.
    Coefficients are N(0, 0.5^2), rescaled by the largest s <= 1 (binary
    search) for which the linear-predictor spread fits inside
    log(hi/lo); the intercept is then set to pin the band at the lower
    edge, so an all-zero coefficient draw yields lambda = lambda_lo
    everywhere.  The draw is rejected and retried when s < 0.05.
    """
    n, p = design.n, design.p
    n_cont = math.ceil((p - 1) / 2)
    n_cat = p - 1 - n_cont
    budget = math.log(design.lambda_hi / design.lambda_lo) - 2.0 * _EDGE_MARGIN

    X = np.ones((n, p))
    names = ["(Intercept)"]
    for j in range(n_cont):
        col = rng.standard_normal(n)
        sd = col.std()
        if sd == 0.0:
            col = np.zeros(n)
        else:
            col = (col - col.mean()) / sd
        X[:, 1 + j] = col
        names.append(f"x{j + 1}")
    for j in range(n_cat):
        X[:, 1 + n_cont + j] = rng.integers(0, 2, size=n).astype(np.float64)
        names.append(f"g{j + 1}")

    for _ in range(_REDRAW_LIMIT):
        beta_raw = rng.normal(0.0, 0.5, size=p)
        u = X[:, 1:] @ beta_raw[1:] if p > 1 else np.zeros(n)
        spread = float(u.max() - u.min())
        if spread <= budget:
            s = 1.0
        else:
            lo_s, hi_s = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo_s + hi_s)
                if mid * spread <= budget:
                    lo_s = mid
                else:
                    hi_s = mid
            s = lo_s
        if s < _MIN_SCALE:
            continue
        beta = s * beta_raw
        beta[0] = math.log(design.lambda_lo) - float(np.min(s * u)) + _EDGE_MARGIN
        lam = np.exp(X @ beta)
        if lam.min() < design.lambda_lo or lam.max() > design.lambda_hi:
            continue  # float round-off pushed the band outside; retry
        y = rng.poisson(lam, size=n)
        return Dataset(y=y, X=X, column_names=tuple(names)), beta
    raise GenerationError(
        f"could not satisfy lambda bounds after {_REDRAW_LIMIT} coefficient redraws"
    )


@dataclass(frozen=True)
class BenchRecord:
    """Metrics for one (method, n, p, replicate) cell."""

    method: str
    n: int
    p: int
    replicate: int
    elapsed_seconds: float
    min_ess: float
    time_per_independent_sample: float
    acceptance_rate: float | None
    weight_ess: float | None
    failed: bool = False


@dataclass
class BenchResult:
    """All benchmark records plus per-cell median aggregation."""

    records: list[BenchRecord]

    def cell_medians(self) -> list[dict]:
        cells: dict[tuple, list[BenchRecord]] = {}
        for rec in self.records:
            if not rec.failed:
                cells.setdefault((rec.method, rec.n, rec.p), []).append(rec)
        out = []
        for (method, n, p), recs in sorted(cells.items()):
            out.append(
                {
                    "method": method,
                    "n": n,
                    "p": p,
                    "runs": len(recs),
                    "median_elapsed_seconds": float(np.median([r.elapsed_seconds for r in recs])),
                    "median_min_ess": float(np.median([r.min_ess for r in recs])),
                    "median_time_per_independent_sample": float(
                        np.median([r.time_per_independent_sample for r in recs])
                    ),
                }
            )
        return out


_METHODS = ("pg_mh", "adaptive_is", "rw_mh")


def _method_seed(seed: int, n: int, p: int, rep: int, slot: int) -> int:
    ss = np.random.SeedSequence([int(seed), int(n), int(p), int(rep), int(slot)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _bench_prior(kind: str, n: int, p: int) -> PriorSpec:
    if kind == "gaussian":
        return FixedGaussianPrior(GaussianPriorParams(np.zeros(p), 2.0 * np.eye(p)))
    if kind == "horseshoe":
        return HorseshoePrior(tau=tau_optimal(n, max(1, p // 2)))
    raise ValueError(f"unknown benchmark prior {kind!r}")


def run_benchmark(ns, ps, methods, config: MHConfig, replications: int = 5,
                  seed: int = 0, rw_step_scale: float = 1.0,
                  prior: str = "gaussian") -> BenchResult:
    """Run each method on every (n, p) cell over seeded replicates.

    Each replicate generates one dataset shared by all methods; method
    chains get independent derived seeds.  Burn-in draws are excluded
    before computing ESS.  Individual run failures become records with
    ``failed=True`` rather than aborting the sweep.
    """
    for m in methods:
        if m not in _METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {_METHODS}")
    if replications < 1:
        raise ValueError("replications must be positive")
    records: list[BenchRecord] = []
    for n in ns:
        for p in ps:
            design = SimDesign(n=n, p=p)
            for rep in range(replications):
                data_rng = np.random.default_rng(
                    np.random.SeedSequence([int(seed), int(n), int(p), int(rep), 0])
                )
                data, _ = simulate_dataset(design, data_rng)
                prior_spec = _bench_prior(prior, n, p)
                for k, method in enumerate(methods):
                    run_config = replace(
                        config, seed=_method_seed(seed, n, p, rep, 1 + k)
                    )
                    records.append(
                        _run_cell(method, data, prior_spec, run_config, rw_step_scale,
                                  n, p, rep)
                    )
    return BenchResult(records=records)


def _run_cell(method: str, data: Dataset, prior_spec: PriorSpec, config: MHConfig,
              rw_step_scale: float, n: int, p: int, rep: int) -> BenchRecord:
    try:
        if method == "adaptive_is":
            out = is_run(data, prior_spec, config)
            min_ess = out.ess_weights
            acceptance = None
            weight_ess = out.ess_weights
        else:
            if method == "pg_mh":
                out = mh_run(data, prior_spec, config)
            else:
                out = random_walk_mh(data, prior_spec, config, step_scale=rw_step_scale)
            min_ess = float(np.min(ess_vector(out.draws)))
            acceptance = out.acceptance_rate
            weight_ess = None
        return BenchRecord(
            method=method, n=n, p=p, replicate=rep,
            elapsed_seconds=out.elapsed_seconds,
            min_ess=min_ess,
            time_per_independent_sample=time_per_independent_sample(
                out.elapsed_seconds, min_ess
            ),
            acceptance_rate=acceptance,
            weight_ess=weight_ess,
        )
    except (NumericError, EstimationError, np.linalg.LinAlgError):
        return BenchRecord(
            method=method, n=n, p=p, replicate=rep,
            elapsed_seconds=float("nan"), min_ess=float("nan"),
            time_per_independent_sample=float("nan"),
            acceptance_rate=None, weight_ess=None, failed=True,
        )


_CSV_COLUMNS = (
    "method", "n", "p", "replicate", "elapsed_seconds", "min_ess",
    "time_per_independent_sample", "acceptance_rate", "weight_ess", "failed",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_benchmark_csv(result: BenchResult, path: str) -> tuple[str, str]:
    """Write the per-run table to ``path`` and the per-cell medians next to
    it (suffix ``_medians.csv``); returns both paths."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for rec in result.records:
            writer.writerow([_fmt(getattr(rec, c)) for c in _CSV_COLUMNS])
    stem, dot, _ = path.rpartition(".")
    medians_path = (stem if dot else path) + "_medians.csv"
    medians = result.cell_medians()
    with open(medians_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = (
            "method", "n", "p", "runs", "median_elapsed_seconds",
            "median_min_ess", "median_time_per_independent_sample",
        )
        writer.writerow(header)
        for row in medians:
            writer.writerow([_fmt(row[c]) for c in header])
    return path, medians_path
