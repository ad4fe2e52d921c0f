"""CSV ingestion with categorical encoding, JSON run configs, result
serialization, and the command-line interface.

Files
-----
* data: RFC-4180-style CSV with a header row; one response column of
  non-negative integers, numeric columns (optionally standardized), and
  categorical columns expanded to k-1 dummies against a reference level.
* ``draws.csv``: one provenance comment line (``# config: {...}``), a
  header of coefficient names (plus ``log_weight`` for importance runs),
  then one full-precision row per retained draw.
* ``summary.json``: per-coefficient statistics plus the complete config
  echo, and ``cpo.csv`` on request.

Exit codes: 0 success, 2 argument/config errors, 3 data errors, 4 numeric
failures.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import bench as bench_mod
from .diagnostics import PosteriorSummary, cpo as compute_cpo, summarize
from .errors import ConfigError, DataError, EstimationError, GenerationError, NumericError
from .model import Dataset, GaussianPriorParams
from .samplers import (
    FixedGaussianPrior,
    HorseshoePrior,
    MHConfig,
    PriorSpec,
    is_run,
    mh_run,
    tau_optimal,
)
from .tuning import TuningPolicy

__all__ = [
    "ColumnSpec",
    "RunConfig",
    "load_dataset",
    "write_dataset",
    "load_draws",
    "write_outputs",
    "run_cli",
    "main",
]

_KINDS = ("numeric", "categorical", "response")


@dataclass(frozen=True)
class ColumnSpec:
    """How one CSV column enters the design matrix."""

    name: str
    kind: str
    standardize: bool = False
    reference_level: str | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if not isinstance(self.standardize, bool):
            raise ConfigError(f"column {self.name!r}: standardize must be true or false")
        if self.standardize and self.kind != "numeric":
            raise ConfigError(f"column {self.name!r}: only numeric columns standardize")
        if self.reference_level is not None and self.kind != "categorical":
            raise ConfigError(
                f"column {self.name!r}: reference_level applies to categorical columns"
            )


@dataclass(frozen=True)
class RunConfig:
    """Everything a ``fit`` needs; JSON-serializable and echoed into outputs."""

    data: str
    columns: tuple[ColumnSpec, ...]
    prior_kind: str = "gaussian"
    prior_mean: float = 0.0
    prior_var: float = 2.0
    tau: float | None = None
    p_n: int | None = None
    sampler: str = "mh"
    iterations: int = 10000
    burnin: int = 5000
    d: float = 0.1
    seed: int = 0
    level: float = 0.95
    out: str = "."
    add_intercept: bool = True
    keep_burnin: bool = False
    cpo: bool = False

    def __post_init__(self):
        if self.prior_kind not in ("gaussian", "horseshoe"):
            raise ConfigError(f"unknown prior {self.prior_kind!r}")
        if self.prior_kind == "horseshoe" and self.tau is None and self.p_n is None:
            raise ConfigError("horseshoe prior needs either tau or p_n")
        if self.sampler not in ("mh", "is"):
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        for key in ("add_intercept", "keep_burnin", "cpo"):
            if not isinstance(getattr(self, key), bool):
                raise ConfigError(f"{key} must be true or false, got {getattr(self, key)!r}")
        # iterations, burnin, d and seed follow MHConfig's rules
        _mh_config(self.iterations, self.burnin, self.d, self.seed)
        if not 0.0 < self.level < 1.0:
            raise ConfigError("level must be in (0, 1)")
        responses = [c for c in self.columns if c.kind == "response"]
        if len(responses) != 1:
            raise ConfigError(
                f"exactly one response column required, found {len(responses)}"
            )

    def to_dict(self) -> dict:
        prior: dict = {"kind": self.prior_kind}
        if self.prior_kind == "gaussian":
            prior.update(mean=self.prior_mean, var=self.prior_var)
        else:
            prior.update(tau=self.tau, p_n=self.p_n)
        return {
            "data": self.data,
            "columns": [
                {k: v for k, v in dataclasses.asdict(c).items() if v not in (None, False)}
                for c in self.columns
            ],
            "prior": prior,
            "sampler": self.sampler,
            "iterations": int(self.iterations),
            "burnin": int(self.burnin),
            "d": self.d,
            "seed": int(self.seed),
            "level": self.level,
            "out": self.out,
            "add_intercept": self.add_intercept,
            "keep_burnin": self.keep_burnin,
            "cpo": self.cpo,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        try:
            columns = tuple(
                ColumnSpec(
                    name=c["name"],
                    kind=c["kind"],
                    standardize=c.get("standardize", False),
                    reference_level=c.get("reference_level"),
                )
                for c in raw["columns"]
            )
        except KeyError as e:
            raise ConfigError(f"column spec missing field {e}") from None
        prior = raw.get("prior", {"kind": "gaussian"})
        kwargs = dict(
            data=raw["data"],
            columns=columns,
            prior_kind=prior.get("kind", "gaussian"),
            prior_mean=float(prior.get("mean", 0.0)),
            prior_var=float(prior.get("var", 2.0)),
            tau=prior.get("tau"),
            p_n=prior.get("p_n"),
        )
        for key in ("sampler", "iterations", "burnin", "d", "seed", "level", "out",
                    "add_intercept", "keep_burnin", "cpo"):
            if key in raw:
                kwargs[key] = raw[key]
        return cls(**kwargs)


def _parse_cell(raw: str, path: str, row: int, name: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DataError(
            f"{path}: row {row}, column {name!r}: cannot parse {raw!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise DataError(f"{path}: row {row}, column {name!r}: {raw!r} is not a finite number")
    return value


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CSV without ``#`` comment lines, each row
    as wide as the header; row numbers count the header as line 1."""
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}") from None
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    body = rows[1:]
    if not body:
        raise DataError(f"{path}: no data rows")
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {i + 2}: expected {len(header)} fields, got {len(row)}"
            )
    return header, body


def load_dataset(path: str, specs, add_intercept: bool = True) -> Dataset:
    """Read a CSV with header into a Dataset.

    Numeric columns optionally standardized to mean 0, variance 1
    (population convention); categorical columns become k-1 dummies named
    ``col=level`` against the reference level (default: lexicographically
    smallest).  An intercept column of ones is prepended unless disabled.
    Row numbers in error messages count the header as line 1.
    """
    specs = tuple(specs)
    responses = [c for c in specs if c.kind == "response"]
    if len(responses) != 1:
        raise ConfigError(f"exactly one response column required, found {len(responses)}")
    header, body = _read_rows(path)
    col_index = {name: i for i, name in enumerate(header)}
    for spec in specs:
        if spec.name not in col_index:
            raise DataError(f"unknown column {spec.name!r}; file has {header}")

    n = len(body)
    y = None
    blocks: list[np.ndarray] = []
    names: list[str] = []
    if add_intercept:
        blocks.append(np.ones((n, 1)))
        names.append("(Intercept)")
    for spec in specs:
        idx = col_index[spec.name]
        raw = [body[i][idx].strip() for i in range(n)]
        if spec.kind == "response":
            vals = np.array([_parse_cell(v, path, i + 2, spec.name) for i, v in enumerate(raw)])
            # counts are held as int64
            bad = np.flatnonzero((vals < 0) | (vals != np.floor(vals)) | (vals >= 2**63))
            if bad.size:
                i = int(bad[0])
                raise DataError(
                    f"row {i + 2}, column {spec.name!r}: response must be a "
                    f"non-negative integer below 2**63, got {raw[i]!r}"
                )
            y = vals
        elif spec.kind == "numeric":
            vals = np.array([_parse_cell(v, path, i + 2, spec.name) for i, v in enumerate(raw)])
            if spec.standardize:
                with np.errstate(over="ignore", invalid="ignore"):
                    sd = float(vals.std())
                if not math.isfinite(sd):
                    raise DataError(
                        f"column {spec.name!r}: standard deviation is non-finite "
                        "(values too large to standardize)"
                    )
                if sd == 0.0:
                    raise DataError(
                        f"column {spec.name!r}: constant column cannot be standardized"
                    )
                vals = (vals - vals.mean()) / sd
            blocks.append(vals[:, None])
            names.append(spec.name)
        else:
            levels = sorted(set(raw))
            reference = spec.reference_level
            if reference is None:
                reference = levels[0]
            elif reference not in levels:
                raise DataError(
                    f"column {spec.name!r}: reference level {reference!r} not among "
                    f"observed levels {levels}"
                )
            for level in levels:
                if level == reference:
                    continue
                blocks.append((np.array(raw) == level).astype(np.float64)[:, None])
                names.append(f"{spec.name}={level}")
    if y is None:  # pragma: no cover - guarded above
        raise ConfigError("no response column")
    X = np.hstack(blocks)
    try:
        return Dataset(y=y, X=X, column_names=tuple(names))
    except ValueError as e:
        raise DataError(f"{path}: {e}") from None


def write_dataset(dataset: Dataset, path: str, include: list[str] | None = None) -> None:
    """Write a Dataset back to CSV, the response as column ``y`` (full float
    precision, exact round trip)."""
    cols = list(dataset.column_names) if include is None else list(include)
    idx = [dataset.column_names.index(c) for c in cols]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"] + cols)
        for i in range(dataset.n):
            writer.writerow(
                [str(int(dataset.y[i]))] + [repr(float(dataset.X[i, j])) for j in idx]
            )


def _json_safe(value):
    """``value`` with every non-finite float, an unknown, replaced by None,
    so that it is written as JSON null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    return value


def _provenance(config: dict) -> str:
    brief = {"seed": config["seed"], "d": config["d"], "prior": config["prior"]}
    return "# config: " + json.dumps(brief, separators=(",", ":"))


def write_outputs(output, summary: PosteriorSummary, outdir: str, names,
                  config: dict, cpo_values=None) -> dict[str, str]:
    """Write draws.csv (retained draws only), summary.json, optionally
    cpo.csv, and trace.csv with the full pre-burn-in chain when the run
    kept it.  ``config``, the run's config echo (``RunConfig.to_dict()``),
    names the producing run in every file.  summary.json is strict JSON: an
    unknown value (a counter the output lacks or holds as None, or a NaN
    such as the elapsed time of a run that was not timed) is written as
    null."""
    os.makedirs(outdir, exist_ok=True)
    names = list(names)
    log_weights = getattr(output, "log_weights", None)
    paths = {}

    def _write_matrix(path, matrix, header, log_weights=None):
        with open(path, "w", newline="") as fh:
            fh.write(_provenance(config) + "\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            for t in range(matrix.shape[0]):
                row = [repr(float(v)) for v in matrix[t]]
                if log_weights is not None:
                    row.append(repr(float(log_weights[t])))
                writer.writerow(row)

    draws_path = os.path.join(outdir, "draws.csv")
    columns = names + (["log_weight"] if log_weights is not None else [])
    _write_matrix(draws_path, output.draws, columns, log_weights)
    paths["draws"] = draws_path

    full_draws = getattr(output, "full_draws", None)
    if full_draws is not None:
        trace_path = os.path.join(outdir, "trace.csv")
        _write_matrix(trace_path, full_draws, names)
        paths["trace"] = trace_path

    summary_path = os.path.join(outdir, "summary.json")
    payload = {
        "coefficients": [
            {
                "name": names[j],
                "mean": float(summary.mean[j]),
                "sd": float(summary.sd[j]),
                "lower": float(summary.lower[j]),
                "upper": float(summary.upper[j]),
                "ess": float(summary.ess[j]),
                "excludes_zero": bool(summary.excludes_zero[j]),
            }
            for j in range(len(names))
        ],
        "level": summary.level,
        "acceptance_rate": summary.acceptance_rate,
        "weight_ess": summary.weight_ess,
        "elapsed_seconds": summary.elapsed_seconds,
        "time_per_independent_sample": summary.time_per_independent_sample,
        **{key: None if (count := getattr(output, key, None)) is None else int(count)
           for key in ("proposal_failures", "tuning_fallbacks")},
        "config": config,
    }
    with open(summary_path, "w") as fh:
        json.dump(_json_safe(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")
    paths["summary"] = summary_path

    if cpo_values is not None:
        cpo_path = os.path.join(outdir, "cpo.csv")
        with open(cpo_path, "w", newline="") as fh:
            fh.write(_provenance(config) + "\n")
            writer = csv.writer(fh)
            writer.writerow(["observation", "cpo"])
            for i, v in enumerate(cpo_values):
                writer.writerow([i, repr(float(v))])
        paths["cpo"] = cpo_path
    return paths


def load_draws(path: str):
    """Read a draws.csv back: (coefficient names, draws, log_weights or None)."""
    header, body = _read_rows(path)
    # a zero importance weight is written as log_weight -inf
    values = np.array([
        [-math.inf if (name, v) == ("log_weight", "-inf")
         else _parse_cell(v, path, i + 2, name) for name, v in zip(header, row)]
        for i, row in enumerate(body)
    ])
    if header[-1] == "log_weight":
        return header[:-1], values[:, :-1], values[:, -1]
    return header, values, None


def _build_prior(config: RunConfig, data: Dataset) -> PriorSpec:
    with _config_errors():
        if config.prior_kind == "gaussian":
            params = GaussianPriorParams(
                np.full(data.p, config.prior_mean),
                config.prior_var * np.eye(data.p),
            )
            return FixedGaussianPrior(params)
        tau = config.tau if config.tau is not None else tau_optimal(data.n, config.p_n)
        return HorseshoePrior(tau=float(tau))


@contextlib.contextmanager
def _config_errors():
    """Report the library's error for an out-of-range or mistyped argument
    as a ConfigError (exit code 2); the range rules themselves live in the
    library's configs."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(str(e)) from None


def _mh_config(iterations, burnin, d, seed) -> MHConfig:
    with _config_errors():
        return MHConfig(
            iterations=iterations,
            burnin=burnin,
            tuning=TuningPolicy(d=float(d)),
            seed=seed,
        )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fit(args) -> int:
    config = _config_from_args(args, out=args.out_override)
    data = load_dataset(config.data, config.columns, add_intercept=config.add_intercept)
    prior = _build_prior(config, data)
    mh_config = _mh_config(config.iterations, config.burnin, config.d, config.seed)
    if config.sampler == "mh":
        output = mh_run(data, prior, mh_config, keep_burnin=config.keep_burnin)
    else:
        output = is_run(data, prior, mh_config)
    summary = summarize(output, level=config.level)
    cpo_values = None
    if config.cpo:
        cpo_values = compute_cpo(output.draws, data,
                                 log_weights=getattr(output, "log_weights", None))
    paths = write_outputs(output, summary, config.out, data.column_names,
                          config.to_dict(), cpo_values=cpo_values)
    print(f"wrote {paths['draws']} and {paths['summary']}")
    return 0


def _read_fit_summary(path: str) -> dict:
    """What ``diagnose`` takes from a fit's summary.json: the fields a draws
    file cannot hold, each None (unknown) when the file or the field is
    missing or null.  A field of the wrong kind is a DataError naming the
    file."""
    fields = dict.fromkeys(("elapsed_seconds", "acceptance_rate", "proposal_failures",
                            "tuning_fallbacks", "config"))
    if not os.path.exists(path):
        return fields
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as e:
        raise DataError(f"cannot read {path}: {e}") from None
    if not isinstance(raw, dict):
        raise DataError(f"{path}: not a JSON object")
    for key in fields:
        value = raw.get(key)
        if value is None:
            continue
        if key == "config":
            # the keys every output file's provenance line echoes
            ok = isinstance(value, dict) and {"seed", "d", "prior"} <= value.keys()
            kind = "an object with seed, d and prior"
        elif key in ("proposal_failures", "tuning_fallbacks"):
            ok = type(value) is int and value >= 0
            kind = "a count or null"
        else:
            ok = type(value) in (int, float)
            kind = "a number or null"
        if not ok:
            raise DataError(f"{path}: {key} must be {kind}, got {value!r}")
        fields[key] = value
    return fields


def _cmd_diagnose(args) -> int:
    # --out only redirects where the recomputed files go, and the echoed
    # config is taken from the producing fit's summary when available, so
    # the summary round trip is identical whatever flags diagnose gets
    config = _config_from_args(args)
    data = load_dataset(config.data, config.columns, add_intercept=config.add_intercept)
    draws_path = args.draws or os.path.join(config.out, "draws.csv")
    names, draws, log_weights = load_draws(draws_path)
    if list(names) != list(data.column_names):
        raise DataError(
            f"draws file columns {names} do not match design columns "
            f"{list(data.column_names)}"
        )
    summary_path = args.summary or os.path.join(os.path.dirname(draws_path), "summary.json")
    # what the draws file does not hold comes from the fit's summary, or
    # stays unknown without one
    previous = _read_fit_summary(summary_path)
    elapsed = previous.pop("elapsed_seconds")
    echo = previous.pop("config") or config.to_dict()
    output = SimpleNamespace(
        draws=draws, log_weights=log_weights,
        elapsed_seconds=math.nan if elapsed is None else elapsed, **previous,
    )
    summary = summarize(output, level=config.level)
    cpo_values = compute_cpo(draws, data, log_weights=log_weights) if config.cpo else None
    outdir = args.out_override or config.out
    paths = write_outputs(output, summary, outdir, data.column_names, echo,
                          cpo_values=cpo_values)
    print(f"wrote {paths['summary']}")
    return 0


def _cmd_simulate(args) -> int:
    with _config_errors():
        design = bench_mod.SimDesign(
            n=args.n, p=args.p, seed=args.seed if args.seed is not None else 0
        )
        rng = np.random.default_rng(design.seed)
    try:
        data, beta_true = bench_mod.simulate_dataset(design, rng)
    except GenerationError as e:
        raise NumericError(str(e)) from None
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    data_path = os.path.join(outdir, "data.csv")
    covariates = [c for c in data.column_names if c != "(Intercept)"]
    write_dataset(data, data_path, include=covariates)
    truth_path = os.path.join(outdir, "truth.json")
    with open(truth_path, "w") as fh:
        json.dump(
            {
                "beta": {name: float(b) for name, b in zip(data.column_names, beta_true)},
                "n": design.n,
                "p": design.p,
                "seed": design.seed,
                "columns": [{"name": "y", "kind": "response"}]
                + [{"name": c, "kind": "numeric"} for c in covariates],
                "add_intercept": True,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    print(f"wrote {data_path} and {truth_path}")
    return 0


def _parse_grid(raw: str) -> tuple[list[int], list[int]]:
    ns = ps = None
    for part in raw.split(";"):
        key, _, vals = part.partition("=")
        key = key.strip()
        try:
            parsed = [int(v) for v in vals.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"bad grid component {part!r}") from None
        if key == "n":
            ns = parsed
        elif key == "p":
            ps = parsed
        else:
            raise ConfigError(f"bad grid key {key!r}; use n=...;p=...")
    if not ns or not ps:
        raise ConfigError("grid must specify both n=... and p=...")
    return ns, ps


def _cmd_benchmark(args) -> int:
    ns, ps = _parse_grid(args.grid)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    config = _mh_config(args.iterations, args.burnin, args.d, 0)
    # run_benchmark raises ValueError only for its arguments (methods,
    # replications, grid, prior, step scale); a chain's numeric failures
    # become failed records instead
    with _config_errors():
        result = bench_mod.run_benchmark(
            ns, ps, methods, config,
            replications=args.reps,
            seed=args.seed if args.seed is not None else 0,
            rw_step_scale=args.rw_scale,
            prior=args.prior or "gaussian",
        )
    table_path, medians_path = bench_mod.write_benchmark_csv(result, args.out or "results.csv")
    for row in result.cell_medians():
        print(
            f"{row['method']:12s} n={row['n']:<5d} p={row['p']:<3d} "
            f"median time/indep sample = {row['median_time_per_independent_sample']:.3e} s"
        )
    print(f"wrote {table_path} and {medians_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _config_from_args(args, out: str | None = None) -> RunConfig:
    """The run config in ``--config`` with every flag that was given put
    over it, and ``out``, when given, as its output directory.  A flag the
    subcommand does not take counts as not given."""
    if not args.config:
        raise ConfigError("--config is required")
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {args.config}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {args.config} is not valid JSON: {e}") from None
    overrides = {key: getattr(args, key, None)
                 for key in ("data", "seed", "iterations", "burnin", "d", "level",
                             "sampler", "keep_burnin", "cpo")}
    overrides["out"] = out
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value
    if getattr(args, "prior", None) is not None:
        raw.setdefault("prior", {})["kind"] = args.prior
    if "data" not in raw or raw["data"] is None:
        raise ConfigError("no data file given (config 'data' or --data)")
    try:
        return RunConfig.from_dict(raw)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad config: {e}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisbayes",
        description="Posterior sampling for Bayesian Poisson log-linear regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--data", help="CSV data file (overrides config)")
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", dest="out_override", help="output directory")
        p.add_argument("--level", type=float, help="credible level in (0,1)")
        # a switch left off keeps the config's value
        p.add_argument("--cpo", action="store_true", default=None, help="also write cpo.csv")

    p_fit = sub.add_parser("fit", help="run the sampler and write draws + summary")
    common(p_fit)
    p_fit.add_argument("--seed", type=int)
    p_fit.add_argument("--iterations", type=int)
    p_fit.add_argument("--burnin", type=int)
    p_fit.add_argument("--d", type=float, help="NB/Poisson distance bound")
    p_fit.add_argument("--prior", choices=["gaussian", "horseshoe"])
    p_fit.add_argument("--sampler", choices=["mh", "is"])
    p_fit.add_argument("--keep-burnin", dest="keep_burnin", action="store_true", default=None)
    p_fit.set_defaults(func=_cmd_fit)

    p_diag = sub.add_parser("diagnose", help="recompute summaries from a draws file")
    common(p_diag)
    p_diag.add_argument("--draws", help="draws.csv produced by fit")
    p_diag.add_argument("--summary", help="summary.json of the original fit")
    p_diag.set_defaults(func=_cmd_diagnose)

    p_sim = sub.add_parser("simulate", help="emit a synthetic dataset")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--p", type=int, required=True)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=_cmd_simulate)

    p_bench = sub.add_parser("benchmark", help="run the timing grid")
    p_bench.add_argument("--grid", required=True, help="e.g. n=50,100;p=5,10")
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--methods", default="pg_mh,adaptive_is,rw_mh")
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--out")
    p_bench.add_argument("--iterations", type=int, default=10000)
    p_bench.add_argument("--burnin", type=int, default=5000)
    p_bench.add_argument("--d", type=float, default=0.1)
    p_bench.add_argument("--rw-scale", dest="rw_scale", type=float, default=1.0)
    p_bench.add_argument("--prior", choices=["gaussian", "horseshoe"])
    p_bench.set_defaults(func=_cmd_benchmark)
    return parser


def run_cli(argv=None) -> int:
    """Entry point returning an exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except (NumericError, EstimationError, np.linalg.LinAlgError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4


def main():  # pragma: no cover - thin wrapper
    sys.exit(run_cli(sys.argv[1:]))
