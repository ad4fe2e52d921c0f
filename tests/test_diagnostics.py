import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import gammaln

from oracles import quad_cpo_1d
from poisbayes import Dataset, cpo, ess_chain, lpml, summarize, time_per_independent_sample
from poisbayes.diagnostics import (
    CPOInstabilityWarning,
    DegenerateSeriesWarning,
    _weighted_quantile,
)


def chain_output(draws, acceptance=0.5, elapsed=1.0):
    return SimpleNamespace(
        draws=np.asarray(draws, dtype=float),
        acceptance_rate=acceptance,
        elapsed_seconds=elapsed,
    )


def is_output(draws, log_weights, elapsed=1.0):
    return SimpleNamespace(
        draws=np.asarray(draws, dtype=float),
        log_weights=np.asarray(log_weights, dtype=float),
        elapsed_seconds=elapsed,
    )


class TestEssChain:
    def test_iid_close_to_t(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(10_000)
        assert abs(ess_chain(x) - 10_000) < 1_000

    def test_ar1_matches_theory(self):
        rng = np.random.default_rng(2)
        rho, t_len = 0.9, 10_000
        x = np.empty(t_len)
        x[0] = rng.standard_normal()
        innov = rng.standard_normal(t_len) * math.sqrt(1 - rho**2)
        for i in range(1, t_len):
            x[i] = rho * x[i - 1] + innov[i]
        expected = t_len * (1 - rho) / (1 + rho)
        assert abs(ess_chain(x) - expected) < 0.25 * expected

    def test_constant_series_flagged(self):
        with pytest.warns(DegenerateSeriesWarning):
            assert ess_chain(np.full(50, 3.3)) == 50.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(5_000).cumsum() * 0.1 + rng.standard_normal(5_000)
        a = ess_chain(x)
        b = ess_chain(3.0 * x + 7.0)
        assert abs(a - b) <= 1e-10 * a

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            ess_chain(np.arange(5.0))


class TestTimePerIndependentSample:
    def test_direct_ratio(self):
        assert time_per_independent_sample(10.0, np.full(3, 1000.0)) == pytest.approx(0.01)

    def test_min_rule(self):
        ess = np.array([100.0, 1000.0, 1000.0])
        assert time_per_independent_sample(10.0, ess) == pytest.approx(0.1)

    def test_linear_in_elapsed(self):
        ess = np.array([50.0, 500.0])
        assert time_per_independent_sample(20.0, ess) == pytest.approx(
            2 * time_per_independent_sample(10.0, ess)
        )

    def test_monotone_in_ess(self):
        rng = np.random.default_rng(4)
        ess = rng.uniform(10, 1000, 5)
        base = time_per_independent_sample(10.0, ess)
        for j in range(5):
            bumped = ess.copy()
            bumped[j] *= 2
            assert time_per_independent_sample(10.0, bumped) <= base

    def test_validation(self):
        with pytest.raises(ValueError):
            time_per_independent_sample(0.0, [10.0])
        with pytest.raises(ValueError):
            time_per_independent_sample(1.0, [0.0])


class TestCPO:
    def make_data(self):
        rng = np.random.default_rng(5)
        y = rng.poisson(2.0, 8)
        return Dataset(y=y, X=np.ones((8, 1)), column_names=("b0",))

    def test_constant_chain_equals_pointwise_likelihood(self):
        data = self.make_data()
        beta0 = 0.4
        draws = np.full((200, 1), beta0)
        values = cpo(draws, data)
        lam = math.exp(beta0)
        expected = np.exp(data.y * math.log(lam) - lam - gammaln(data.y + 1.0))
        np.testing.assert_allclose(values, expected, rtol=1e-12)

    def test_matches_leave_one_out_quadrature(self, toy_1d):
        from poisbayes import FixedGaussianPrior, GaussianPriorParams, MHConfig, mh_run

        config = MHConfig(iterations=8000, burnin=2000, seed=3)
        prior = FixedGaussianPrior(GaussianPriorParams([0.0], [[1.0]]))
        out = mh_run(toy_1d, prior, config)
        est = cpo(out.draws, toy_1d)
        exact = quad_cpo_1d(toy_1d.y, np.ones(toy_1d.n))
        np.testing.assert_allclose(est, exact, rtol=0.05)

    def test_permutation_equivariance(self):
        data = self.make_data()
        rng = np.random.default_rng(6)
        draws = rng.normal(0.5, 0.1, size=(300, 1))
        perm = rng.permutation(data.n)
        permuted = Dataset(y=data.y[perm], X=data.X[perm], column_names=data.column_names)
        np.testing.assert_allclose(cpo(draws, permuted), cpo(draws, data)[perm], rtol=1e-12)

    def test_instability_warning(self):
        data = self.make_data()
        draws = np.vstack([np.full((150, 1), 0.5), [[800.0]]])  # one overflowing draw
        with pytest.warns(CPOInstabilityWarning):
            values = cpo(draws, data)
        assert np.all(values == 0.0)

    def test_one_draw_per_block_matches_default_blocks(self, monkeypatch):
        import poisbayes.diagnostics as diagnostics

        rng = np.random.default_rng(14)
        x = np.repeat([0.0, 1.0], 6)
        data = Dataset(y=rng.poisson(2.0, 12), X=np.column_stack([np.ones(12), x]),
                       column_names=("b0", "b1"))
        draws = rng.normal([0.6, 0.1], 0.2, size=(300, 2))
        # the last draw's rate overflows where x = 1
        overflow = np.vstack([draws, [[0.6, 800.0]]])
        default = cpo(draws, data, return_log=True)
        with pytest.warns(CPOInstabilityWarning):
            default_overflow = cpo(overflow, data)
        monkeypatch.setattr(diagnostics, "_CPO_BLOCK", data.n)
        np.testing.assert_allclose(cpo(draws, data, return_log=True), default, rtol=1e-13)
        with pytest.warns(CPOInstabilityWarning):
            values = cpo(overflow, data)
        assert np.all(values[x == 1] == 0.0) and np.all(values[x == 0] > 0.0)
        np.testing.assert_allclose(values, default_overflow, rtol=1e-13)

    def test_traced_peak_is_bounded(self):
        import tracemalloc

        rng = np.random.default_rng(15)
        n, p = 5000, 5
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        data = Dataset(y=rng.poisson(2.0, n), X=X, column_names=tuple("abcde"))
        draws = rng.normal(0.0, 0.05, size=(1000, p)) + [math.log(2.0), 0, 0, 0, 0]
        tracemalloc.start()
        try:
            cpo(draws, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_few_draws_warning(self):
        data = self.make_data()
        with pytest.warns(UserWarning, match="unstable"):
            cpo(np.full((50, 1), 0.4), data)

    def test_log_space_consistency(self):
        data = self.make_data()
        rng = np.random.default_rng(7)
        draws = rng.normal(0.5, 0.2, size=(400, 1))
        values = cpo(draws, data)
        logs = cpo(draws, data, return_log=True)
        assert lpml(values) == pytest.approx(float(np.sum(logs)), abs=1e-10)


    def test_uniform_weights_match_unweighted_exactly(self):
        data = self.make_data()
        rng = np.random.default_rng(8)
        draws = rng.normal(0.5, 0.2, size=(400, 1))
        logs = cpo(draws, data, return_log=True)
        for lw in (np.zeros(400), np.full(400, -812.5)):
            np.testing.assert_array_equal(cpo(draws, data, return_log=True, log_weights=lw), logs)
        # a zero weight leaves its draw out
        lw = np.zeros(401)
        lw[0] = -np.inf
        with_zero = cpo(np.vstack([[[50.0]], draws]), data, return_log=True, log_weights=lw)
        np.testing.assert_array_equal(with_zero, logs)

    @pytest.mark.parametrize("lw, match", [
        (np.zeros(399), "log_weights must be"),
        (np.r_[np.zeros(399), np.nan], "finite or -inf"),
        (np.r_[np.zeros(399), np.inf], "finite or -inf"),
    ], ids=["short", "nan", "plus_inf"])
    def test_bad_log_weights_rejected(self, lw, match):
        with pytest.raises(ValueError, match=match):
            cpo(np.full((400, 1), 0.4), self.make_data(), log_weights=lw)

    def test_importance_sample_weighted_like_mh(self):
        # adaptive IS draws come from the proposal, not the posterior: their
        # CPO needs the importance weights (unweighted, LPML read -101.29)
        from poisbayes import (FixedGaussianPrior, GaussianPriorParams, MHConfig, SimDesign,
                               TuningPolicy, is_run, mh_run, simulate_dataset)

        data, _ = simulate_dataset(SimDesign(50, 3), np.random.default_rng(2))
        prior = FixedGaussianPrior(GaussianPriorParams(np.zeros(3), 2.0 * np.eye(3)))
        config = MHConfig(iterations=6000, burnin=1000, tuning=TuningPolicy(d=1.0), seed=5)
        mh = mh_run(data, prior, config)
        importance = is_run(data, prior, config)
        mh_lpml = lpml(cpo(mh.draws, data))
        is_lpml = lpml(cpo(importance.draws, data, log_weights=importance.log_weights))
        assert abs(is_lpml - mh_lpml) < 0.1


class TestLPML:
    def test_all_ones(self):
        assert lpml(np.ones(5)) == 0.0

    def test_hand_case(self):
        assert lpml([math.exp(-1.0), math.exp(-2.0)]) == pytest.approx(-3.0, abs=1e-12)

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(8)
        a, b = rng.uniform(0.1, 1.0, 4), rng.uniform(0.1, 1.0, 6)
        assert lpml(np.concatenate([a, b])) == pytest.approx(lpml(a) + lpml(b), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lpml([0.5, 0.0])


class TestSummarize:
    def test_two_atom_chain(self):
        draws = np.tile([[-1.0], [1.0]], (30, 1))
        summary = summarize(chain_output(draws), level=0.5)
        assert summary.mean[0] == pytest.approx(0.0, abs=1e-12)
        assert summary.lower[0] == -1.0
        assert summary.upper[0] == 1.0
        assert not summary.excludes_zero[0]

    def test_gaussian_interval(self):
        rng = np.random.default_rng(9)
        draws = rng.standard_normal((100_000, 1))
        summary = summarize(chain_output(draws), level=0.95)
        assert abs(summary.lower[0] + 1.96) < 0.03
        assert abs(summary.upper[0] - 1.96) < 0.03

    def test_degenerate_chain(self):
        draws = np.full((40, 2), 1.5)
        summary = summarize(chain_output(draws), level=0.9)
        np.testing.assert_array_equal(summary.lower, summary.upper)
        np.testing.assert_array_equal(summary.lower, [1.5, 1.5])

    def test_uniform_weights_match_unweighted_exactly(self):
        rng = np.random.default_rng(10)
        draws = rng.normal(0.3, 1.2, size=(5_000, 2))
        unweighted = summarize(chain_output(draws), level=0.9)
        weighted = summarize(is_output(draws, np.full(5_000, -2.0)), level=0.9)
        for fieldname in ("mean", "sd", "lower", "upper"):
            np.testing.assert_array_equal(
                getattr(weighted, fieldname), getattr(unweighted, fieldname)
            )
        assert weighted.weight_ess == pytest.approx(5_000.0)
        assert weighted.acceptance_rate is None

    def test_weighted_summary_downweights(self):
        # two atoms, weights 3:1 -> weighted mean 0.5
        draws = np.array([[1.0], [1.0], [1.0], [-1.0]])
        out = is_output(draws, np.log([1.0, 1.0, 1.0, 1.0]) + [0.0, 0.0, 0.0, math.log(3.0)])
        summary = summarize(out, level=0.5)
        assert summary.mean[0] == pytest.approx(0.0, abs=1e-12)

    def test_excludes_zero_marking(self):
        rng = np.random.default_rng(11)
        draws = np.column_stack([
            rng.normal(5.0, 0.1, 2_000),
            rng.normal(0.0, 1.0, 2_000),
            rng.normal(-3.0, 0.05, 2_000),
        ])
        summary = summarize(chain_output(draws), level=0.95)
        assert summary.excludes_zero.tolist() == [True, False, True]

    def test_level_validation(self):
        with pytest.raises(ValueError):
            summarize(chain_output(np.zeros((20, 1))), level=1.0)

    def test_weighted_quantile_reduces_to_type7(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(401)
        qs = np.array([0.025, 0.5, 0.975])
        wq = _weighted_quantile(x, np.full(x.size, 1.0 / x.size), qs)
        np.testing.assert_allclose(wq, np.quantile(x, qs), atol=1e-12)

    def test_importance_output_uses_weight_ess(self, toy_1d):
        from poisbayes import FixedGaussianPrior, GaussianPriorParams, MHConfig, is_run

        config = MHConfig(iterations=500, burnin=100, seed=5)
        out = is_run(toy_1d, FixedGaussianPrior(GaussianPriorParams([0.0], [[1.0]])), config)
        summary = summarize(out, level=0.9)
        assert summary.weight_ess == pytest.approx(out.ess_weights)
        np.testing.assert_allclose(summary.ess, out.ess_weights)
        assert summary.time_per_independent_sample == pytest.approx(
            out.elapsed_seconds / out.ess_weights
        )
