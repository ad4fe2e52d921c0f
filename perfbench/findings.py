"""Reproduce the faults and waste the benchmark does not count as failures,
and the random-walk comparator's figure on groups-n200-p2.

Usage (from the root of a checkout):

    python3 perfbench/findings.py rw-accept     # random_walk_mh acceptance
    python3 perfbench/findings.py is-collapse   # is_run weight ESS at n=5000, p=5
    python3 perfbench/findings.py blas-build    # build_proposal, default vs 1 BLAS thread
    python3 perfbench/findings.py r-cost        # compute_r_vector with 2 distinct lambdas
    python3 perfbench/findings.py rw-groups     # rw_mh time per independent sample
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from inputs import WORKLOADS, generate  # noqa: E402


def _workload_data(name: str, seed: int = 1):
    from poisbayes import Dataset, FixedGaussianPrior, GaussianPriorParams, HorseshoePrior
    from poisbayes.samplers import tau_optimal

    w = WORKLOADS[name]
    inp = generate(w, seed)
    data = Dataset(y=inp.y, X=inp.X, column_names=tuple(f"c{j}" for j in range(w.p)))
    if w.prior["kind"] == "gaussian":
        prior = FixedGaussianPrior(GaussianPriorParams(np.zeros(w.p), w.prior["var"] * np.eye(w.p)))
    else:
        prior = HorseshoePrior(tau=tau_optimal(w.n, w.prior["p_n"]))
    return w, data, prior


def rw_accept() -> None:
    from poisbayes import FixedGaussianPrior, GaussianPriorParams, MHConfig, random_walk_mh
    from poisbayes.bench import SimDesign, simulate_dataset

    for n, p in ((200, 2), (1000, 10), (5000, 5)):
        data, _ = simulate_dataset(SimDesign(n=n, p=p), np.random.default_rng(1))
        prior = FixedGaussianPrior(GaussianPriorParams(np.zeros(p), 2.0 * np.eye(p)))
        for scale in (1.0, 2.38):
            out = random_walk_mh(data, prior, MHConfig(iterations=2000, burnin=500, seed=1),
                                 step_scale=scale)
            print(f"n={n} p={p} step_scale={scale}: acceptance {out.acceptance_rate:.4f}")


def is_collapse() -> None:
    from poisbayes import MHConfig, is_run

    _, data, prior = _workload_data("tall-n5000-p5")
    for seed in (1, 2, 3):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = is_run(data, prior, MHConfig(iterations=4000, burnin=800, seed=seed))
        print(f"seed {seed}: weight ESS {checks.weight_ess(out.log_weights):.1f} of "
              f"{out.draws.shape[0]} draws; warnings raised: {len(caught)}")


def blas_build() -> None:
    if os.environ.get("PERFBENCH_CHILD") != "1":
        for threads in (None, "1"):
            env = dict(os.environ, PERFBENCH_CHILD="1")
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            subprocess.run([sys.executable, __file__, "blas-build"], env=env, check=True)
        return
    from poisbayes import GaussianPriorParams, MHConfig
    from poisbayes.proposal import build_proposal
    from poisbayes.tuning import compute_r_vector

    w, data, prior = _workload_data("horseshoe-n2000-p30")
    beta = np.zeros(w.p)
    beta[0] = 1.0
    r = compute_r_vector(beta, data, MHConfig().tuning)
    params = GaussianPriorParams(np.zeros(w.p), np.eye(w.p) * prior.tau**2)
    times = []
    for _ in range(200):
        t0 = time.perf_counter()
        build_proposal(beta, data, r, params)
        times.append(time.perf_counter() - t0)
    label = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    print(f"OPENBLAS_NUM_THREADS={label}: build_proposal median "
          f"{1e6 * statistics.median(times):.0f} us at n={w.n}, p={w.p}")


def r_cost() -> None:
    from poisbayes import MHConfig
    from poisbayes.tuning import TuningDiagnostics, compute_r_vector

    _, data, _ = _workload_data("groups-n200-p2")
    diag = TuningDiagnostics()
    beta = np.array([0.0, 0.7])
    times = []
    for _ in range(2000):
        t0 = time.perf_counter()
        compute_r_vector(beta, data, MHConfig().tuning, diag)
        times.append(time.perf_counter() - t0)
    print(f"compute_r_vector: median {1e6 * statistics.median(times):.1f} us per call, "
          f"{diag.solves / len(times):.0f} distinct lambdas solved per call, n={data.n}")


def rw_groups() -> None:
    from poisbayes import MHConfig, mh_run, random_walk_mh

    w, data, prior = _workload_data("groups-n200-p2")
    for label, run in (("pg_mh", lambda c: mh_run(data, prior, c)),
                       ("rw_mh step 1.0", lambda c: random_walk_mh(data, prior, c, 1.0)),
                       ("rw_mh step 2.38", lambda c: random_walk_mh(data, prior, c, 2.38))):
        chains, seconds, accept = [], 0.0, []
        for seed in range(8):
            t0 = time.perf_counter()
            out = run(MHConfig(iterations=w.iterations, burnin=w.burnin, seed=seed))
            seconds += time.perf_counter() - t0
            chains.append(out.draws)
            accept.append(out.acceptance_rate)
        ess = float(checks.pooled_ess(chains).min())
        print(f"{label}: acceptance {statistics.mean(accept):.3f}, min ESS {ess:.0f} of "
              f"{8 * chains[0].shape[0]}, {1e3 * seconds / ess:.3f} ms per independent sample")


COMMANDS = {"rw-accept": rw_accept, "is-collapse": is_collapse, "blas-build": blas_build,
            "r-cost": r_cost, "rw-groups": rw_groups}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in COMMANDS:
        sys.exit(__doc__)
    COMMANDS[sys.argv[1]]()
