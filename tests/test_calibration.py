"""Simulation-based calibration of the PG-mean MH kernel at p = 3, where
the quadrature oracles do not reach (Cook, Gelman & Rubin 2006; Talts et
al. 2018).

Each replicate draws beta from the prior and y given beta, so beta is a
draw from the posterior of its own data set.  It then picks k uniformly in
0..M and runs two independent chains from beta, keeping k and M - k
thinned draws.  The MH kernel is reversible, so the two chains are the
backward and forward parts of one stationary chain through beta, and beta
sits at a uniformly random place among the M + 1 states: under an exact
kernel its rank among the M draws is exactly uniform.  A wrong acceptance
ratio skews the ranks.
"""

import numpy as np
from scipy.stats import chisquare

import poisbayes.samplers as samplers_mod
from poisbayes import (Dataset, FixedGaussianPrior, GaussianPriorParams, MHConfig,
                       TuningPolicy, mh_run)

REPLICATES = 200
THINNED = 7  # M, the draws beta is ranked among
THIN = 20
N, P = 30, 3
PRIOR_VAR = 0.5
# every coordinate of the correct kernel must clear this; on this seed its
# p-values are 0.44, 0.13 and 0.37 (at least 0.04 over seeds 1-6), and a
# kernel without the q-ratio gives 4e-4, 0.03 and below 1e-6
P_FLOOR = 1e-3
SEED = 1


def thinned_draws(data, prior, beta, count, seed):
    """``count`` draws, every THIN-th of a chain started at ``beta``."""
    if count == 0:
        return np.empty((0, P))
    config = MHConfig(iterations=count * THIN, burnin=0, tuning=TuningPolicy(d=0.1),
                      seed=seed, init_beta=beta)
    return mh_run(data, prior, config).draws[THIN - 1 :: THIN]


def rank_p_values(seed: int) -> np.ndarray:
    """Per-coordinate chi-square p-values of the true beta's rank among the
    THINNED draws, over REPLICATES simulated data sets."""
    rng = np.random.default_rng(seed)
    prior = FixedGaussianPrior(GaussianPriorParams(np.zeros(P), PRIOR_VAR * np.eye(P)))
    ranks = np.empty((REPLICATES, P), dtype=int)
    for i in range(REPLICATES):
        X = np.column_stack([np.ones(N), rng.standard_normal((N, P - 1))])
        beta = rng.normal(0.0, np.sqrt(PRIOR_VAR), P)
        data = Dataset(y=rng.poisson(np.exp(X @ beta)), X=X,
                       column_names=tuple(f"b{j}" for j in range(P)))
        k = int(rng.integers(THINNED + 1))
        backward, forward = (thinned_draws(data, prior, beta, count, int(rng.integers(2**63)))
                             for count in (k, THINNED - k))
        ranks[i] = (np.vstack([backward, forward]) < beta).sum(axis=0)
    return np.array([chisquare(np.bincount(ranks[:, j], minlength=THINNED + 1)).pvalue
                     for j in range(P)])


def test_mh_ranks_are_uniform():
    assert np.all(rank_p_values(SEED) > P_FLOOR)


def test_mh_without_q_ratio_is_caught(monkeypatch):
    # drops log q(beta | beta*) - log q(beta* | beta) from log alpha
    monkeypatch.setattr(samplers_mod, "proposal_logpdf", lambda proposal, beta: 0.0)
    assert np.any(rank_p_values(SEED) < P_FLOOR)
