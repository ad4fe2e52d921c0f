"""Per-layer timings for the traced run.

Each public function of a layer is called from outside the program at
states the workload's chains visited, and its median cost per call is
reported.  The layer calls one sampler iteration makes are listed in
``CALLS_PER_ITER``; the loop time left after them is the sampler's own
bookkeeping (``*_other_us_per_iter``).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# budget per layer, and the shortest batch timed as one sample
LAYER_SECONDS = 0.25
BATCH_SECONDS = 0.005

# Layer calls per iteration of the current samplers.  MH under a fixed
# prior reuses the forward proposal (an accepted move promotes the backward
# build), so it pays one r-solve and one build; under the horseshoe the prior
# changes every sweep and the forward proposal is rebuilt too.  IS re-anchors
# at every draw: one r-solve and one build either way.
CALLS_PER_ITER = {
    ("mh", False): {"r": 1, "build": 1, "logpdf": 2, "sample": 1, "loglik": 1, "prior": 1, "hs": 0},
    ("mh", True): {"r": 1, "build": 2, "logpdf": 2, "sample": 1, "loglik": 1, "prior": 2, "hs": 1},
    ("is", False): {"r": 1, "build": 1, "logpdf": 1, "sample": 1, "loglik": 1, "prior": 1, "hs": 0},
    ("is", True): {"r": 1, "build": 1, "logpdf": 1, "sample": 1, "loglik": 1, "prior": 1, "hs": 1},
}


def per_call_seconds(fn, arg_sets: list, seconds: float = LAYER_SECONDS) -> tuple[float, int]:
    """Median seconds per call of ``fn(*args)`` over batches that cycle
    through ``arg_sets``; also returns the number of calls made."""
    t0 = time.perf_counter()
    fn(*arg_sets[0])
    first = time.perf_counter() - t0
    reps = max(1, int(BATCH_SECONDS / max(first, 1e-9)))
    samples = []
    calls = 1
    deadline = time.perf_counter() + seconds
    k = 0
    while len(samples) < 5 or time.perf_counter() < deadline:
        args = arg_sets[k % len(arg_sets)]
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(*args)
        samples.append((time.perf_counter() - t0) / reps)
        calls += reps
        k += 1
    return statistics.median(samples), calls


def measure(data, prior, states, eta2_states, csv_path, columns) -> dict:
    """Time each layer at the visited ``states`` (rows of beta) and, under
    the horseshoe, the visited local scales ``eta2_states``."""
    from poisbayes.io_cli import ColumnSpec, load_dataset
    from poisbayes.model import GaussianPriorParams, log_gaussian_prior, log_poisson_likelihood
    from poisbayes.proposal import build_proposal, proposal_logpdf, sample_proposal
    from poisbayes.samplers import (FixedGaussianPrior, HorseshoeState, MHConfig,
                                    horseshoe_update, poisson_mle)
    from poisbayes.tuning import TuningDiagnostics, compute_r_vector

    policy = MHConfig().tuning
    horseshoe = not isinstance(prior, FixedGaussianPrior)
    priors = ([GaussianPriorParams(np.zeros(data.p), np.diag(prior.tau**2 * e2))
               for e2 in eta2_states] if horseshoe else [prior.params] * len(states))
    rs = [compute_r_vector(b, data, policy) for b in states]
    props = [build_proposal(b, data, r, pr) for b, r, pr in zip(states, rs, priors)]
    nxt = states[1:] + states[:1]
    rng = np.random.default_rng(0)
    us = {}

    diag = TuningDiagnostics()
    sec, calls = per_call_seconds(lambda b: compute_r_vector(b, data, policy, diag),
                                  [(b,) for b in states])
    us["r"] = sec * 1e6
    solves_per_call = diag.solves / calls
    fallbacks_per_call = diag.closed_form_fallbacks / calls
    us["build"] = per_call_seconds(build_proposal, [
        (b, data, r, pr) for b, r, pr in zip(states, rs, priors)])[0] * 1e6
    us["logpdf"] = per_call_seconds(proposal_logpdf, list(zip(props, nxt)))[0] * 1e6
    us["sample"] = per_call_seconds(sample_proposal, [(q, rng) for q in props])[0] * 1e6
    us["loglik"] = per_call_seconds(log_poisson_likelihood, [(b, data) for b in states])[0] * 1e6
    us["prior"] = per_call_seconds(log_gaussian_prior, list(zip(states, priors)))[0] * 1e6
    us["hs"] = 0.0
    if horseshoe:
        us["hs"] = per_call_seconds(horseshoe_update, [
            (b, HorseshoeState(eta2=e2, nu=np.ones(data.p)), prior.tau, rng)
            for b, e2 in zip(states, eta2_states)])[0] * 1e6
    specs = [ColumnSpec(**c) for c in columns]
    load_s = per_call_seconds(load_dataset, [(csv_path, specs)], seconds=0.5)[0]
    mle_s = per_call_seconds(poisson_mle, [(data,)], seconds=0.5)[0]
    return {
        "us": us,
        "horseshoe": horseshoe,
        "solves_per_call": solves_per_call,
        "fallbacks_per_call": fallbacks_per_call,
        "load_dataset_s": load_s,
        "poisson_mle_s": mle_s,
    }


def other_us_per_iter(sampler: str, horseshoe: bool, loop_us_per_iter: float, us: dict) -> float:
    """Loop time per iteration minus the layer calls the loop makes."""
    calls = CALLS_PER_ITER[(sampler, horseshoe)]
    return loop_us_per_iter - sum(count * us[layer] for layer, count in calls.items())
