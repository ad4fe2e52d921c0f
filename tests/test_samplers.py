import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from oracles import mc_se_mean, mc_se_sd, quad_posterior_1d, weighted_mc_se_mean
from poisbayes import (
    Dataset,
    EstimationError,
    FixedGaussianPrior,
    GaussianPriorParams,
    HorseshoePrior,
    HorseshoeState,
    MHConfig,
    TuningDiagnostics,
    TuningPolicy,
    build_proposal,
    compute_r_vector,
    ess_chain,
    ess_from_log_weights,
    horseshoe_update,
    is_run,
    log_gaussian_prior,
    log_poisson_likelihood,
    mh_run,
    poisson_mle,
    proposal_logpdf,
    random_walk_mh,
    tau_optimal,
)
import poisbayes.samplers as samplers_mod
from poisbayes.diagnostics import WeightCollapseWarning


def unit_prior(p=1, var=1.0):
    return GaussianPriorParams(np.zeros(p), var * np.eye(p))


def pg_kernel(data, policy):
    return samplers_mod._PGKernel(data, policy, TuningDiagnostics())


@pytest.fixture
def step_record(monkeypatch):
    """(proposal, log_alpha, u) of every PG-kernel MH step, in order."""
    record = []
    real = samplers_mod._PGKernel.step

    def recording(self, state, prior, z, u):
        out = real(self, state, prior, z, u)
        record.append((out[1], out[3], u))
        return out

    monkeypatch.setattr(samplers_mod._PGKernel, "step", recording)
    return record


class TestMHStep:
    def test_identity_proposal_accepts_with_log_alpha_zero(self, toy_1d):
        prior = unit_prior()
        policy = TuningPolicy(d=0.1)
        beta_prev = np.array([0.3])
        # exact symmetry: with beta* = beta_prev both ratios cancel bit-for-bit
        log_alpha = TestMHRun._replay_log_alpha(beta_prev, beta_prev, toy_1d, prior, policy)
        assert log_alpha == 0.0
        # end to end, the scripted draw reproduces beta_prev up to one ulp of
        # the affine round trip, so log_alpha is zero to float precision
        r = compute_r_vector(beta_prev, toy_1d, policy)
        prop = build_proposal(beta_prev, toy_1d, r, prior)
        z_star = solve_triangular(prop.L, beta_prev - prop.m, lower=True)
        kernel = pg_kernel(toy_1d, policy)
        state, _, accepted, log_alpha = kernel.step(
            kernel.make_state(beta_prev), prior, z_star, 0.999999
        )
        np.testing.assert_allclose(state.beta, beta_prev, rtol=1e-12)
        assert abs(log_alpha) < 1e-9
        assert accepted

    def test_positive_log_alpha_always_accepts(self, toy_1d, step_record):
        prior = unit_prior()
        config = MHConfig(iterations=300, burnin=0, tuning=TuningPolicy(d=0.5), seed=4)
        out = mh_run(toy_1d, FixedGaussianPrior(prior), config)
        positive = np.array([log_alpha for _, log_alpha, _ in step_record]) > 0
        assert positive.any()
        assert out.accepted[positive].all()

    def test_rejects_overflowing_proposal(self, toy_1d):
        prior = unit_prior()
        policy = TuningPolicy(d=0.1)
        # enormous forced z pushes the proposal into likelihood overflow
        kernel = pg_kernel(toy_1d, policy)
        state, _, accepted, log_alpha = kernel.step(
            kernel.make_state(np.array([0.0])), prior, np.array([1e5]), 0.5
        )
        assert not accepted
        assert log_alpha == -np.inf
        np.testing.assert_array_equal(state.beta, [0.0])

    def test_requires_finite_start(self, toy_1d):
        config = MHConfig(iterations=10, burnin=0, init_beta=np.array([np.nan]))
        with pytest.raises(ValueError, match="non-finite"):
            mh_run(toy_1d, FixedGaussianPrior(unit_prior()), config)


class TestMHRun:
    def test_deterministic_given_seed(self, toy_1d):
        prior = FixedGaussianPrior(unit_prior())
        config = MHConfig(iterations=400, burnin=100, tuning=TuningPolicy(d=0.1), seed=11)
        a = mh_run(toy_1d, prior, config)
        b = mh_run(toy_1d, prior, config)
        np.testing.assert_array_equal(a.draws, b.draws)
        np.testing.assert_array_equal(a.accepted, b.accepted)

    def test_matches_stepwise_composition(self, toy_1d):
        policy = TuningPolicy(d=0.2)
        prior = unit_prior()
        config = MHConfig(iterations=12, burnin=0, tuning=policy, seed=42)
        out = mh_run(toy_1d, FixedGaussianPrior(prior), config, keep_burnin=True)
        # the same normal and uniform per iteration, in mh_run's order
        rng = np.random.default_rng(42)
        kernel = pg_kernel(toy_1d, policy)
        state = kernel.make_state(poisson_mle(toy_1d))
        manual = np.empty((12, 1))
        for t in range(12):
            z = rng.standard_normal(1)
            state, _, _, _ = kernel.step(state, prior, z, rng.uniform())
            manual[t] = state.beta
        np.testing.assert_array_equal(out.full_draws, manual)

    def test_acceptance_rate_definition(self, toy_1d):
        config = MHConfig(iterations=300, burnin=50, tuning=TuningPolicy(d=0.1), seed=3)
        out = mh_run(toy_1d, FixedGaussianPrior(unit_prior()), config)
        assert out.acceptance_rate == pytest.approx(out.accepted.mean())
        assert out.draws.shape == (250, 1)
        assert np.all(np.isfinite(out.draws))
        assert out.prior_trace is None

    def test_acceptance_monotone_in_distance_bound(self, toy_1d):
        prior = FixedGaussianPrior(unit_prior())
        rates = {}
        for d in (1e-4, 1.0):
            config = MHConfig(iterations=1500, burnin=0, tuning=TuningPolicy(d=d), seed=5)
            rates[d] = mh_run(toy_1d, prior, config).acceptance_rate
        assert rates[1e-4] > rates[1.0]

    def test_matches_quadrature_1d(self, toy_1d):
        config = MHConfig(iterations=4000, burnin=1500, tuning=TuningPolicy(d=0.1), seed=9)
        out = mh_run(toy_1d, FixedGaussianPrior(unit_prior()), config)
        draws = out.draws[:, 0]
        ess = ess_chain(draws)
        mean_q, sd_q = quad_posterior_1d(toy_1d.y, np.ones(toy_1d.n))
        assert abs(draws.mean() - mean_q) < 3 * mc_se_mean(draws, ess)
        assert abs(draws.std(ddof=1) - sd_q) < 3 * mc_se_sd(draws, ess)

    def test_replay_reproduces_decisions(self, toy_1d, step_record):
        policy = TuningPolicy(d=0.3)
        prior = unit_prior()
        config = MHConfig(iterations=60, burnin=0, tuning=policy, seed=77)
        out = mh_run(toy_1d, FixedGaussianPrior(prior), config, keep_burnin=True)
        assert len(step_record) == config.iterations
        beta_prev = poisson_mle(toy_1d)
        for t in range(config.iterations):
            beta_star, recorded_log_alpha, u = step_record[t]
            log_alpha = self._replay_log_alpha(beta_prev, beta_star, toy_1d, prior, policy)
            assert log_alpha == recorded_log_alpha
            accepted = log_alpha >= 0.0 or np.log(u) < log_alpha
            assert accepted == out.accepted[t]
            beta_prev = out.full_draws[t]

    @staticmethod
    def _replay_log_alpha(beta_prev, beta_star, data, prior, policy):
        loglik_prev = log_poisson_likelihood(beta_prev, data)
        loglik_star = log_poisson_likelihood(beta_star, data)
        if loglik_star == -np.inf:
            return -np.inf
        r_fwd = compute_r_vector(beta_prev, data, policy)
        fwd = build_proposal(beta_prev, data, r_fwd, prior)
        r_bwd = compute_r_vector(beta_star, data, policy)
        bwd = build_proposal(beta_star, data, r_bwd, prior)
        log_post_ratio = (loglik_star - loglik_prev) + (
            log_gaussian_prior(beta_star, prior) - log_gaussian_prior(beta_prev, prior)
        )
        log_q_ratio = proposal_logpdf(bwd, beta_prev) - proposal_logpdf(fwd, beta_star)
        return log_post_ratio + log_q_ratio

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux page faults")
    def test_loop_keeps_its_working_memory_resident(self):
        # a fresh interpreter, so the allocator starts from the state a user's has
        script = """
import resource
import numpy as np
import poisbayes as pb

rng = np.random.default_rng(2)
X = np.column_stack([np.ones(5000), rng.standard_normal((5000, 4))])
data = pb.Dataset(y=rng.poisson(np.exp(X @ [1.5, 0.3, -0.2, 0.15, 0.1])), X=X,
                  column_names=[f"c{j}" for j in range(5)])
prior = pb.FixedGaussianPrior(pb.GaussianPriorParams(np.zeros(5), 2.0 * np.eye(5)))
pb.mh_run(data, prior, pb.MHConfig(iterations=20, burnin=0, seed=1))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
pb.mh_run(data, prior, pb.MHConfig(iterations=400, burnin=0, seed=2))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        # returning freed heap to the OS each iteration costs about 125 faults
        assert int(result.stdout.split()[-1]) < 400

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/smaps")
    def test_loop_leaves_no_huge_page_advice_on_the_heap(self):
        # numpy advises huge pages for arrays of 4 MiB and more; a block that
        # size served from the heap marks the loop's scratch memory with it
        script = """
import re
import numpy as np
import poisbayes as pb

rng = np.random.default_rng(2)
X = np.column_stack([np.ones(200), rng.integers(0, 2, 200)])
data = pb.Dataset(y=rng.poisson(np.exp(0.7 * X[:, 1])), X=X, column_names=["b0", "b1"])
prior = pb.FixedGaussianPrior(pb.GaussianPriorParams(np.zeros(2), 2.0 * np.eye(2)))
for seed in range(3):
    pb.mh_run(data, prior, pb.MHConfig(iterations=50, burnin=0, seed=seed))
    pb.is_run(data, prior, pb.MHConfig(iterations=50, burnin=0, seed=seed))
advised = 0
for block in re.split(r"\\n(?=[0-9a-f]+-[0-9a-f]+ )", open("/proc/self/smaps").read()):
    if block.split("\\n", 1)[0].split()[5:] == ["[heap]"]:
        advised += "hg" in re.search(r"^VmFlags:(.*)$", block, re.M).group(1).split()
print(advised)
"""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split()[-1] == "0"

    def test_init_beta_options(self, toy_1d):
        explicit = MHConfig(iterations=20, burnin=0, seed=1, init_beta=np.array([0.5]))
        out = mh_run(toy_1d, FixedGaussianPrior(unit_prior()), explicit, keep_burnin=True)
        assert out.full_draws.shape == (20, 1)
        zeros = MHConfig(iterations=20, burnin=0, seed=1, init_beta="zeros")
        mh_run(toy_1d, FixedGaussianPrior(unit_prior()), zeros)
        with pytest.raises(ValueError):
            MHConfig(iterations=20, burnin=0, init_beta="warmup")
        with pytest.raises(ValueError):
            mh_run(toy_1d, FixedGaussianPrior(unit_prior()),
                   MHConfig(iterations=20, burnin=0, init_beta=np.array([1.0, 2.0])))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MHConfig(iterations=0)
        with pytest.raises(ValueError):
            MHConfig(iterations=10, burnin=10)
        with pytest.raises(ValueError):
            MHConfig(iterations=10, burnin=0, seed=-1)


class TestPoissonMLE:
    def test_recovers_mle_1d(self, toy_1d):
        beta_hat = poisson_mle(toy_1d)
        # closed form: log(ybar) for an intercept-only model
        assert beta_hat[0] == pytest.approx(math.log(toy_1d.y.mean()), abs=1e-6)

    def test_handles_all_zero_counts(self):
        ds = Dataset(y=[0, 0, 0], X=np.ones((3, 1)), column_names=("b0",))
        beta_hat = poisson_mle(ds)
        assert np.all(np.isfinite(beta_hat))


class TestHorseshoe:
    def test_tau_optimal_values(self):
        assert tau_optimal(100, 5) == pytest.approx(0.05 * math.sqrt(math.log(20.0)), rel=1e-12)
        assert tau_optimal(2, 1) == pytest.approx(0.5 * math.sqrt(math.log(2.0)), rel=1e-12)
        assert tau_optimal(27, 10) == pytest.approx((10 / 27) * math.sqrt(math.log(2.7)), rel=1e-12)

    def test_tau_optimal_rejects_degenerate(self):
        with pytest.raises(ValueError):
            tau_optimal(10, 10)
        with pytest.raises(ValueError):
            tau_optimal(10, 0)
        with pytest.raises(ValueError, match="integer"):
            tau_optimal(10, 2.5)

    def test_update_stays_positive(self):
        rng = np.random.default_rng(2)
        state = HorseshoeState.initial(6)
        beta = rng.standard_normal(6)
        for _ in range(200):
            state = horseshoe_update(beta, state, tau=0.3, rng=rng)
            assert np.all(state.eta2 > 0) and np.all(state.nu > 0)

    def test_zero_beta_conditional(self):
        # with beta_j = 0 the eta^2 scale reduces to 1/nu_j exactly
        rng = np.random.default_rng(3)
        nu_fixed = 2.0
        state = HorseshoeState(eta2=np.ones(1), nu=np.array([nu_fixed]))
        draws = np.empty(100_000)
        for i in range(draws.size):
            new = horseshoe_update(np.zeros(1), state, tau=1.0, rng=rng)
            draws[i] = new.eta2[0]
        # InvGamma(1, 1/nu) median is (1/nu)/log 2
        expected = (1.0 / nu_fixed) / math.log(2.0)
        assert np.median(draws) == pytest.approx(expected, rel=0.02)

    def test_nu_conditional_at_unit_eta2(self):
        # force eta^2 = 1, check nu | eta^2 = 1 ~ InvGamma(1, 2) via E[1/nu] = 1/2
        class EtaFixer:
            def __init__(self, real):
                self.real = real
                self.block = 0

            def gamma(self, shape, scale, size=None):
                self.block += 1
                if self.block % 2 == 1:  # eta2 draw: force gamma variate 1 -> eta2 = 1
                    return np.ones(size if size is not None else 1)
                return self.real.gamma(shape, scale, size=size)

        rng = EtaFixer(np.random.default_rng(5))
        state = HorseshoeState.initial(1)
        inv_nu = np.empty(100_000)
        for i in range(inv_nu.size):
            new = horseshoe_update(np.array([0.7]), state, tau=1.0, rng=rng)
            inv_nu[i] = 1.0 / new.nu[0]
        assert inv_nu.mean() == pytest.approx(0.5, rel=0.02)

    def test_horseshoe_run_exposes_scale_trace(self, toy_1d):
        config = MHConfig(iterations=200, burnin=50, tuning=TuningPolicy(d=0.1), seed=8)
        for run in (mh_run, random_walk_mh):
            out = run(toy_1d, HorseshoePrior(tau=0.5), config)
            assert out.prior_trace is not None
            assert out.prior_trace.shape == (150, 1)
            assert np.all(out.prior_trace > 0)
        # the importance sampler keeps no scale trace, but samples under it
        out = is_run(toy_1d, HorseshoePrior(tau=0.5), config)
        assert out.draws.shape == (150, 1)
        assert np.all(np.isfinite(out.draws))

    def test_horseshoe_run_deterministic(self, toy_1d):
        config = MHConfig(iterations=150, burnin=0, tuning=TuningPolicy(d=0.1), seed=13)
        for run in (mh_run, random_walk_mh, is_run):
            a = run(toy_1d, HorseshoePrior(tau=0.3), config)
            b = run(toy_1d, HorseshoePrior(tau=0.3), config)
            np.testing.assert_array_equal(a.draws, b.draws)
            for field in ("prior_trace", "accepted", "log_weights"):
                if hasattr(a, field):
                    np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            HorseshoePrior(tau=0.0)

    @staticmethod
    def _data_p3():
        rng = np.random.default_rng(41)
        X = np.column_stack([np.ones(40), rng.standard_normal((40, 2))])
        y = rng.poisson(np.exp(X @ np.array([0.6, 0.4, 0.0])))
        return Dataset(y=y, X=X, column_names=("b0", "b1", "b2"))

    def test_replay_reproduces_decisions(self, step_record):
        # the effective prior changes every sweep, so each step re-factors the
        # current state's cached data terms under a new prior
        data = self._data_p3()
        policy = TuningPolicy(d=0.3)
        tau = 0.4
        config = MHConfig(iterations=60, burnin=0, tuning=policy, seed=5)
        out = mh_run(data, HorseshoePrior(tau=tau), config, keep_burnin=True)
        assert len(step_record) == config.iterations
        beta_prev = poisson_mle(data)
        eta2 = np.ones(data.p)
        for t in range(config.iterations):
            prior = GaussianPriorParams(np.zeros(data.p), np.diag(tau**2 * eta2))
            beta_star, recorded_log_alpha, u = step_record[t]
            log_alpha = TestMHRun._replay_log_alpha(beta_prev, beta_star, data, prior, policy)
            assert log_alpha == recorded_log_alpha
            assert (log_alpha >= 0.0 or np.log(u) < log_alpha) == out.accepted[t]
            beta_prev = out.full_draws[t]
            eta2 = out.prior_trace[t]
        assert 0 < out.accepted.sum() < config.iterations

    def test_one_data_term_product_per_iteration(self, monkeypatch):
        data = self._data_p3()
        real = samplers_mod._data_terms
        calls = {"n": 0}

        def counting(*args):
            calls["n"] += 1
            return real(*args)

        monkeypatch.setattr(samplers_mod, "_data_terms", counting)
        config = MHConfig(iterations=100, burnin=0, tuning=TuningPolicy(d=0.3), seed=5)
        mh_run(data, HorseshoePrior(tau=0.4), config)
        # one at the start and one per proposed state; none for a changed prior
        assert config.iterations // 2 < calls["n"] <= config.iterations + 1


class TestImportanceSampler:
    def test_weight_ess_in_bounds(self, toy_1d):
        config = MHConfig(iterations=800, burnin=200, tuning=TuningPolicy(d=0.1), seed=19)
        out = is_run(toy_1d, FixedGaussianPrior(unit_prior()), config)
        t_kept = config.iterations - config.burnin
        assert 1.0 <= out.ess_weights <= t_kept
        assert out.draws.shape == (t_kept, 1)
        assert out.log_weights.shape == (t_kept,)
        # log-weights are finite once centered at their max
        centered = out.log_weights - out.log_weights.max()
        assert np.all(np.isfinite(centered))

    def test_single_draw_ess_is_one(self, toy_1d):
        config = MHConfig(iterations=1, burnin=0, tuning=TuningPolicy(d=0.1), seed=19)
        out = is_run(toy_1d, FixedGaussianPrior(unit_prior()), config)
        assert out.ess_weights == 1.0

    def test_uniform_weights_ess_equals_t(self):
        assert ess_from_log_weights(np.zeros(500)) == 500.0
        assert ess_from_log_weights(np.full(500, -3.7)) == pytest.approx(500.0)

    def test_all_zero_weights_raise(self):
        with pytest.raises(EstimationError, match="increase"):
            ess_from_log_weights(np.array([-np.inf, -np.inf]))

    def test_deterministic(self, toy_1d):
        config = MHConfig(iterations=300, burnin=100, tuning=TuningPolicy(d=0.1), seed=23)
        a = is_run(toy_1d, FixedGaussianPrior(unit_prior()), config)
        b = is_run(toy_1d, FixedGaussianPrior(unit_prior()), config)
        np.testing.assert_array_equal(a.draws, b.draws)
        np.testing.assert_array_equal(a.log_weights, b.log_weights)

    def test_matches_quadrature_and_mh(self, toy_1d):
        config = MHConfig(iterations=4000, burnin=1000, tuning=TuningPolicy(d=0.1), seed=29)
        is_out = is_run(toy_1d, FixedGaussianPrior(unit_prior()), config)
        w = np.exp(is_out.log_weights - is_out.log_weights.max())
        w /= w.sum()
        is_mean = float(w @ is_out.draws[:, 0])
        mean_q, _ = quad_posterior_1d(toy_1d.y, np.ones(toy_1d.n))
        se_is = weighted_mc_se_mean(is_out.draws[:, 0], is_out.log_weights)
        assert abs(is_mean - mean_q) < 3 * se_is

        mh_out = mh_run(toy_1d, FixedGaussianPrior(unit_prior()), config)
        mh_draws = mh_out.draws[:, 0]
        se_mh = mc_se_mean(mh_draws, ess_chain(mh_draws))
        combined = math.hypot(se_is, se_mh)
        assert abs(is_mean - mh_draws.mean()) < 3 * combined

    def test_replay_reproduces_log_weights(self, toy_2d):
        data, _ = toy_2d
        policy = TuningPolicy(d=0.3)
        prior = unit_prior(p=2, var=2.0)
        config = MHConfig(iterations=80, burnin=0, tuning=policy, seed=37)
        out = is_run(data, FixedGaussianPrior(prior), config)
        anchor = poisson_mle(data)
        for t in range(config.iterations):
            draw = out.draws[t]
            prop = build_proposal(anchor, data, compute_r_vector(anchor, data, policy), prior)
            expected = (
                log_poisson_likelihood(draw, data)
                + log_gaussian_prior(draw, prior)
                - proposal_logpdf(prop, draw)
            )
            assert out.log_weights[t] == pytest.approx(expected, rel=1e-12, abs=0.0)
            # the replay makes the sampler's calls in the sampler's order
            assert out.log_weights[t] == expected
            anchor = draw

    def test_far_off_start_warns_of_weight_collapse(self, toy_2d):
        # a chain still drifting in from far off: its last draw carries all the weight
        data, _ = toy_2d
        config = MHConfig(iterations=400, burnin=0, tuning=TuningPolicy(d=0.1), seed=1,
                          init_beta=np.array([5.0, 5.0]))
        with pytest.warns(WeightCollapseWarning, match="weight ESS"):
            out = is_run(data, FixedGaussianPrior(unit_prior(p=2, var=2.0)), config)
        assert out.ess_weights < 0.01 * config.iterations

    def test_healthy_run_does_not_warn(self, toy_1d):
        config = MHConfig(iterations=800, burnin=200, tuning=TuningPolicy(d=0.1), seed=19)
        with warnings.catch_warnings():
            warnings.simplefilter("error", WeightCollapseWarning)
            out = is_run(toy_1d, FixedGaussianPrior(unit_prior()), config)
        assert out.ess_weights >= 0.01 * (config.iterations - config.burnin)

    def test_horseshoe_is_runs(self, toy_1d):
        config = MHConfig(iterations=300, burnin=100, tuning=TuningPolicy(d=0.1), seed=31)
        out = is_run(toy_1d, HorseshoePrior(tau=0.5), config)
        assert 1.0 <= out.ess_weights <= 200.0
