"""Time-per-iteration and set-up benchmark of poisbayes over three workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run generates the workload's inputs from ``--seed``, writes them as CSV
and hands only that file to the program.  It times the program's set-up in
fresh interpreters, then runs whole rounds (one ``mh_run`` chain, one
``is_run`` chain) for ``--seconds``, times the post-processing a ``fit``
does, and checks the outputs against the computations in ``inputs.py`` and
``checks.py``.  ``--trace 1`` also times each layer's public functions at
visited states and prints the per-layer metrics instead of the end-to-end
ones.  The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
from manifest import manifest
import layers
from inputs import WORKLOADS, generate, laplace, quadrature_2d, seed_sequence, tau_for, write_csv
from setup_probe import set_up

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 7
# post-processing samples taken after each round's MH chain
REPORT_PER_ROUND = 3
CHECK_STATES = 8
# the warm-up chains are this share of a measured chain
WARMUP_SHARE = 0.25
# most rounds one run makes; the draw buffers are sized for this many
MAX_ROUNDS = 256
# grid error of the quadrature, and an allowance for the Laplace
# approximation's own error, both in posterior sds: at n = 5000 the
# intercept's posterior mean sits 0.015 sd below the mode and the sds agree
# within 0.4% (importance sampling from the Laplace fit, 1e5 draws)
QUADRATURE_TOL = 1e-6
LAPLACE_TOL = 0.05


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_times(csv_path: str, columns: list, prior: dict) -> list[float]:
    """Seconds of each of SETUP_REPEATS set-ups, each in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), csv_path,
             json.dumps(columns), json.dumps(prior)],
            capture_output=True, text=True, timeout=120, env=env, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "poisbayes", "__init__.py")):
        return _fail(f"no program source under {SRC}; run from the root of a checkout")
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    sys.path.insert(0, SRC)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result = _run(WORKLOADS[args.workload], args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run is using it
    print(json.dumps(result))
    return 0


class Chains:
    """Draws of the measured chains of one sampler, copied into buffers that
    are allocated before the clock starts, plus each chain's scalars.

    Keeping every ``ChainOutput`` alive instead leaves its arrays on the heap
    between chains, and glibc then serves the sampler's temporaries from a
    different heap layout: MH chains on tall-n5000-p5 ran about 20% slower
    from the fifth kept output on.  A fresh ``fit`` holds no earlier output.
    """

    def __init__(self, rows: int, p: int, horseshoe: bool):
        self.draws = np.empty((MAX_ROUNDS, rows, p))
        self.log_w = np.empty((MAX_ROUNDS, rows))
        self.eta2 = np.empty((MAX_ROUNDS, rows, p)) if horseshoe else None
        self.records = []

    def add(self, out, seconds: float, iterations: int) -> None:
        k = len(self.records)
        self.draws[k] = out.draws
        if hasattr(out, "log_weights"):
            self.log_w[k] = out.log_weights
        if self.eta2 is not None and getattr(out, "prior_trace", None) is not None:
            self.eta2[k] = out.prior_trace
        self.records.append({
            "seconds": seconds, "iterations": iterations,
            "acceptance_rate": getattr(out, "acceptance_rate", None),
            "proposal_failures": out.proposal_failures,
            "tuning_fallbacks": out.tuning_fallbacks,
        })

    def __len__(self) -> int:
        return len(self.records)

    def chains(self) -> list:
        return [self.draws[k] for k in range(len(self))]

    def rate(self) -> float:
        """Median over chains of iterations per second."""
        return statistics.median(r["iterations"] / r["seconds"] for r in self.records)


def _run(workload, args, work: str) -> dict:
    inputs = generate(workload, args.seed)
    csv_path = os.path.join(work, "data.csv")
    write_csv(inputs, csv_path)
    setup_times = _setup_times(csv_path, inputs.columns, workload.prior)
    data, prior = set_up(csv_path, inputs.columns, workload.prior)

    import poisbayes
    from poisbayes.errors import PoisBayesError
    from poisbayes.samplers import MHConfig, is_run, mh_run

    if not os.path.abspath(poisbayes.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported poisbayes from {poisbayes.__file__}, not from {SRC}")
    print("manifest " + json.dumps(manifest(ROOT)), flush=True)

    failures: list[str] = []
    if not (np.array_equal(data.X, inputs.X) and np.array_equal(data.y, inputs.y)):
        failures.append("the design read back through load_dataset differs from the CSV's")
    horseshoe = workload.prior["kind"] == "horseshoe"
    if horseshoe and not abs(prior.tau / tau_for(workload) - 1.0) <= 1e-12:
        failures.append(f"horseshoe tau {prior.tau!r} != {tau_for(workload)!r}")

    counts = {"attempted": 0, "failed": 0}
    samplers = {"mh": mh_run, "is": is_run}

    def chain(kind: str, seed_path: tuple, share: float = 1.0):
        """One timed sampler call; a PoisBayesError counts as a failed operation.
        Returns (output, seconds, iterations), or None when the call failed."""
        seed = int(seed_sequence(args.seed, workload, *seed_path).generate_state(
            1, dtype=np.uint64)[0])
        iters = max(8, int(workload.iterations * share))
        config = MHConfig(iterations=iters, seed=seed,
                          burnin=int(workload.burnin * iters / workload.iterations))
        counts["attempted"] += 1
        t0 = time.perf_counter()
        try:
            out = samplers[kind](data, prior, config)
        except PoisBayesError as e:
            counts["failed"] += 1
            print(f"perfbench: {kind} chain {seed_path} failed: {e}", file=sys.stderr)
            return None
        return out, time.perf_counter() - t0, iters

    # warm-up pair: first-call costs are paid before the clock runs
    chain("mh", (2, 0), WARMUP_SHARE)
    chain("is", (2, 1), WARMUP_SHARE)
    rows = workload.iterations - workload.burnin
    runs = {kind: Chains(rows, data.p, horseshoe) for kind in samplers}
    # The post-processing is timed after every MH chain rather than once at
    # the end, so its samples span the run as the chains' do, and its memory
    # counts in the peak.  Its large temporaries leave later chains' minor
    # page faults at about 0 per chain (checked with getrusage).
    report = {"summarize": [], "cpo": [], "write": [], "ess": []}
    t_start = time.perf_counter()
    rounds = 0
    while rounds < MAX_ROUNDS and (rounds == 0 or time.perf_counter() - t_start < args.seconds):
        for slot, kind in enumerate(samplers):
            res = chain(kind, (1, rounds, slot))
            if res is not None:
                runs[kind].add(*res)
                if kind == "mh":
                    for _ in range(REPORT_PER_ROUND):
                        _time_report(report, data, res[0], workload, work, args.trace)
            res = None  # drop the output before the next chain
        rounds += 1
    measured_s = time.perf_counter() - t_start
    if not (len(runs["mh"]) and len(runs["is"])):
        raise RuntimeError("every chain of one sampler failed; nothing to measure")

    # the first round's chains again, with their seeds: the draws must agree
    # bit for bit
    for slot, kind in enumerate(samplers):
        res = chain(kind, (1, 0, slot))
        if res is not None:
            same = runs[kind].draws[0].tobytes() == res[0].draws.tobytes()
            if kind == "is":
                same = same and runs[kind].log_w[0].tobytes() == res[0].log_weights.tobytes()
            if not same:
                failures.append(f"two same-seed {kind} chains gave different draws")

    # read before the checks, whose own arrays are not the program's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    states, eta2_states = _check(workload, inputs, data, prior, runs, failures)

    print(f"rounds {rounds} in {measured_s:.1f} s; setup_s samples "
          + " ".join(f"{t:.4f}" for t in setup_times), flush=True)
    for kind in samplers:
        print(f"{kind} iterations/s per chain " + " ".join(
            f"{r['iterations'] / r['seconds']:.1f}" for r in runs[kind].records), flush=True)
    print("report parts (median s) " + " ".join(
        f"{k} {statistics.median(report[k]):.5f}" for k in ("summarize", "cpo", "write")),
        flush=True)
    for line in failures:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    result = {"correct": not failures, **counts}
    if args.trace:
        metrics = _per_layer(data, prior, inputs, csv_path, runs, report,
                             states, eta2_states, horseshoe)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "mh_iter_per_s": (runs["mh"].rate(), "1/s"),
            "is_iter_per_s": (runs["is"].rate(), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def _time_report(parts: dict, data, out, workload, work: str, trace: bool) -> None:
    """Time once what a fit does after sampling, on one MH output:
    summarize, CPO and writing the output files, each part apart."""
    from poisbayes import diagnostics, io_cli
    from poisbayes.samplers import MHConfig

    echo = {"seed": out.seed, "d": MHConfig().tuning.d, "prior": workload.prior}
    t0 = time.perf_counter()
    summary = diagnostics.summarize(out)
    t1 = time.perf_counter()
    cpo_values = diagnostics.cpo(out.draws, data)
    t2 = time.perf_counter()
    paths = io_cli.write_outputs(out, summary, os.path.join(work, "fit"), data.column_names,
                                 echo, cpo_values=cpo_values)
    t3 = time.perf_counter()
    parts["summarize"].append(t1 - t0)
    parts["cpo"].append(t2 - t1)
    parts["write"].append(t3 - t2)
    parts["bytes"] = sum(os.path.getsize(p) for p in paths.values())
    if trace:
        t0 = time.perf_counter()
        diagnostics.ess_vector(out.draws)
        parts["ess"].append(time.perf_counter() - t0)


def _check(workload, inputs, data, prior, runs, failures: list):
    """Check the outputs against the benchmark's own computations; returns
    the visited states the r-solve and proposal checks used."""
    from poisbayes.model import GaussianPriorParams
    from poisbayes.proposal import build_proposal
    from poisbayes.samplers import MHConfig
    from poisbayes.tuning import compute_r_vector

    mh, is_ = runs["mh"], runs["is"]
    mh_chains = mh.chains()
    is_draws = is_.chains()
    is_log_w = [is_.log_w[k] for k in range(len(is_))]
    if not all(np.isfinite(a).all() for a in mh_chains + is_draws):
        failures.append("non-finite draws")
    if any(np.isnan(lw).any() or np.isposinf(lw).any() for lw in is_log_w):
        failures.append("NaN or +inf importance log-weights")

    # posterior moments against the independent references
    prior_var = workload.prior.get("var")
    if workload.name.startswith("groups"):
        ref_mean, ref_sd = quadrature_2d(inputs.X, inputs.y, prior_var)
        ref_tol = QUADRATURE_TOL * ref_sd
        estimates = [("MH", checks.mh_moments(mh_chains)),
                     ("IS", checks.is_moments(is_draws, is_log_w))]
    elif workload.name.startswith("tall"):
        mode, cov = laplace(inputs.X, inputs.y, prior_var)
        ref_mean, ref_sd = mode, np.sqrt(np.diag(cov))
        ref_tol = LAPLACE_TOL * ref_sd
        estimates = [("MH", checks.mh_moments(mh_chains))]
    else:
        estimates = []
    for label, (mean, sd, se_mean, se_sd) in estimates:
        checks.compare(f"{label} mean", mean, se_mean, ref_mean, ref_tol, failures)
        checks.compare(f"{label} sd", sd, se_sd, ref_sd, ref_tol, failures)

    # r-solve and proposal build at visited states, from their definitions
    policy = MHConfig().tuning
    pooled = np.concatenate(mh_chains)
    picks = np.linspace(0, pooled.shape[0] - 1, CHECK_STATES).astype(int)
    states = [pooled[i].copy() for i in picks]
    horseshoe = mh.eta2 is not None
    eta2_states = None
    if horseshoe:
        eta2_pooled = np.concatenate([mh.eta2[k] for k in range(len(mh))])
        eta2_states = [eta2_pooled[i].copy() for i in picks]
        tau = tau_for(workload)
    for k, beta in enumerate(states):
        r = compute_r_vector(beta, data, policy)
        checks.check_r(f"state {k}", np.exp(inputs.X @ beta), r, policy.d, policy.r_min,
                       policy.r_max, failures)
        if horseshoe:
            prior_params = GaussianPriorParams(np.zeros(data.p), np.diag(tau**2 * eta2_states[k]))
            prec = np.diag(1.0 / (tau**2 * eta2_states[k]))
        else:
            prior_params = prior.params
            prec = np.eye(data.p) / prior_var
        mean, cov = checks.pg_proposal(inputs.X, inputs.y.astype(np.float64), beta, r,
                                       prec, np.zeros(data.p))
        checks.check_proposal(f"state {k}", build_proposal(beta, data, r, prior_params),
                              mean, cov, failures)
    return states, eta2_states


def _per_layer(data, prior, inputs, csv_path, runs, report, states, eta2_states,
               horseshoe: bool) -> dict:
    lay = layers.measure(data, prior, states, eta2_states, csv_path, inputs.columns)
    mh, is_ = runs["mh"], runs["is"]
    mh_chains = mh.chains()
    min_ess = float(checks.pooled_ess(mh_chains).min())
    wess = sum(checks.weight_ess(is_.log_w[k]) for k in range(len(is_)))
    rows = mh.draws.shape[1]
    us = lay["us"]
    mh_rate, is_rate = mh.rate(), is_.rate()
    return {
        "io_cli.load_dataset_s": (lay["load_dataset_s"], "s"),
        "samplers.poisson_mle_s": (lay["poisson_mle_s"], "s"),
        "tuning.compute_r_vector_us": (us["r"], "us"),
        "tuning.solves_per_call": (lay["solves_per_call"], "count"),
        "tuning.fallbacks_per_call": (lay["fallbacks_per_call"], "count"),
        "proposal.build_proposal_us": (us["build"], "us"),
        "proposal.proposal_logpdf_us": (us["logpdf"], "us"),
        "proposal.sample_proposal_us": (us["sample"], "us"),
        "model.log_poisson_likelihood_us": (us["loglik"], "us"),
        "model.log_gaussian_prior_us": (us["prior"], "us"),
        "samplers.horseshoe_update_us": (us["hs"], "us"),
        "samplers.mh_other_us_per_iter": (
            layers.other_us_per_iter("mh", horseshoe, 1e6 / mh_rate, us), "us"),
        "samplers.is_other_us_per_iter": (
            layers.other_us_per_iter("is", horseshoe, 1e6 / is_rate, us), "us"),
        "samplers.mh_accept_rate": (
            statistics.mean(r["acceptance_rate"] for r in mh.records), "ratio"),
        "samplers.mh_ess_per_iter": (min_ess / (rows * len(mh)), "ratio"),
        "samplers.mh_ms_per_indep": (
            1e3 * sum(r["seconds"] for r in mh.records) / min_ess, "ms"),
        "samplers.is_wess_per_iter": (wess / (rows * len(is_)), "ratio"),
        "samplers.is_ms_per_indep": (
            1e3 * sum(r["seconds"] for r in is_.records) / wess, "ms"),
        "samplers.proposal_failures": (
            sum(r["proposal_failures"] for r in mh.records + is_.records), "count"),
        "samplers.tuning_fallbacks": (
            sum(r["tuning_fallbacks"] for r in mh.records + is_.records), "count"),
        "diagnostics.ess_vector_s": (statistics.median(report["ess"]), "s"),
        "diagnostics.summarize_s": (statistics.median(report["summarize"]), "s"),
        "diagnostics.cpo_s": (statistics.median(report["cpo"]), "s"),
        "io_cli.write_outputs_s": (statistics.median(report["write"]), "s"),
        "io_cli.output_bytes": (report["bytes"], "bytes"),
    }


if __name__ == "__main__":
    sys.exit(main())
