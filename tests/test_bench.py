import numpy as np
import pytest

from oracles import mc_se_mean, quad_posterior_1d
from poisbayes import (
    FixedGaussianPrior,
    GaussianPriorParams,
    MHConfig,
    SimDesign,
    TuningPolicy,
    ess_chain,
    random_walk_mh,
    run_benchmark,
    simulate_dataset,
)
from poisbayes.bench import write_benchmark_csv
from poisbayes.errors import GenerationError


def unit_prior(p=1, var=1.0):
    return FixedGaussianPrior(GaussianPriorParams(np.zeros(p), var * np.eye(p)))


class TestSimulateDataset:
    def test_design_validation(self):
        with pytest.raises(ValueError):
            SimDesign(n=0, p=5)
        with pytest.raises(ValueError):
            SimDesign(n=10, p=2, lambda_lo=5.0, lambda_hi=1.0)

    def test_lambda_bounds_always_hold(self):
        rng = np.random.default_rng(0)
        for trial in range(1000):
            n = int(rng.integers(5, 120))
            p = int(rng.integers(1, 12))
            design = SimDesign(n=n, p=p)
            data, beta = simulate_dataset(design, np.random.default_rng(trial))
            lam = np.exp(data.X @ beta)
            assert lam.min() >= design.lambda_lo
            assert lam.max() <= design.lambda_hi

    def test_zero_coefficients_hit_lower_edge(self):
        class ZeroBetaRng:
            def __init__(self, real):
                self.real = real

            def normal(self, loc, scale, size=None):
                return np.zeros(size if size is not None else 1)

            def __getattr__(self, name):
                return getattr(self.real, name)

        design = SimDesign(n=30, p=4)
        data, beta = simulate_dataset(design, ZeroBetaRng(np.random.default_rng(1)))
        lam = np.exp(data.X @ beta)
        np.testing.assert_allclose(lam, 1.0, rtol=1e-8)
        np.testing.assert_allclose(beta[1:], 0.0)

    def test_structure_and_names(self):
        design = SimDesign(n=40, p=6)
        data, beta = simulate_dataset(design, np.random.default_rng(2))
        assert data.column_names[0] == "(Intercept)"
        assert data.p == 6 and data.n == 40
        # default mix: ceil((p-1)/2) continuous, rest binary
        assert data.column_names[1:4] == ("x1", "x2", "x3")
        assert data.column_names[4:] == ("g1", "g2")
        np.testing.assert_allclose(data.X[:, 0], 1.0)
        for j in (1, 2, 3):
            assert abs(data.X[:, j].mean()) < 1e-12
            assert abs(data.X[:, j].std() - 1.0) < 1e-12
        for j in (4, 5):
            assert set(np.unique(data.X[:, j])) <= {0.0, 1.0}

    def test_deterministic(self):
        design = SimDesign(n=25, p=5)
        a_data, a_beta = simulate_dataset(design, np.random.default_rng(7))
        b_data, b_beta = simulate_dataset(design, np.random.default_rng(7))
        np.testing.assert_array_equal(a_data.X, b_data.X)
        np.testing.assert_array_equal(a_data.y, b_data.y)
        np.testing.assert_array_equal(a_beta, b_beta)

    def test_generation_error_when_infeasible(self):
        class HugeBetaRng:
            def __init__(self, real):
                self.real = real

            def normal(self, loc, scale, size=None):
                return np.full(size if size is not None else 1, 100.0)

            def __getattr__(self, name):
                return getattr(self.real, name)

        design = SimDesign(n=50, p=5)
        with pytest.raises(GenerationError):
            simulate_dataset(design, HugeBetaRng(np.random.default_rng(3)))


class TestRandomWalkMH:
    def test_tiny_steps_accept_everything(self, toy_1d):
        config = MHConfig(iterations=600, burnin=100, seed=1)
        out_tiny = random_walk_mh(toy_1d, unit_prior(), config, step_scale=1e-4)
        out_mid = random_walk_mh(toy_1d, unit_prior(), config, step_scale=2.38)
        assert out_tiny.acceptance_rate > 0.98
        ess_tiny = ess_chain(out_tiny.draws[:, 0])
        ess_mid = ess_chain(out_mid.draws[:, 0])
        assert ess_tiny < 0.2 * ess_mid

    def test_huge_steps_reject_everything(self, toy_1d):
        config = MHConfig(iterations=400, burnin=0, seed=2)
        out = random_walk_mh(toy_1d, unit_prior(), config, step_scale=500.0)
        assert out.acceptance_rate < 0.05

    def test_matches_quadrature(self, toy_1d):
        config = MHConfig(iterations=6000, burnin=1000, seed=3)
        out = random_walk_mh(toy_1d, unit_prior(), config, step_scale=2.38)
        draws = out.draws[:, 0]
        mean_q, _ = quad_posterior_1d(toy_1d.y, np.ones(toy_1d.n))
        assert abs(draws.mean() - mean_q) < 3 * mc_se_mean(draws, ess_chain(draws))

    def test_validates_step_scale(self, toy_1d):
        with pytest.raises(ValueError):
            random_walk_mh(toy_1d, unit_prior(), MHConfig(iterations=10, burnin=0), 0.0)


class TestRunBenchmark:
    @pytest.fixture(scope="class")
    @staticmethod
    def small_result():
        config = MHConfig(iterations=400, burnin=100, tuning=TuningPolicy(d=0.1))
        return run_benchmark(
            ns=[30], ps=[3], methods=["pg_mh", "adaptive_is", "rw_mh"],
            config=config, replications=2, seed=5, rw_step_scale=1.0,
        )

    def test_bookkeeping(self, small_result):
        assert len(small_result.records) == 1 * 1 * 3 * 2
        methods = {r.method for r in small_result.records}
        assert methods == {"pg_mh", "adaptive_is", "rw_mh"}

    def test_metrics_positive_finite(self, small_result):
        for rec in small_result.records:
            assert not rec.failed
            assert rec.elapsed_seconds > 0
            assert rec.min_ess > 0
            assert np.isfinite(rec.time_per_independent_sample)
            if rec.method == "adaptive_is":
                assert rec.weight_ess is not None and rec.acceptance_rate is None
            else:
                assert rec.weight_ess is None and 0 <= rec.acceptance_rate <= 1

    def test_determinism_modulo_timing(self, small_result):
        config = MHConfig(iterations=400, burnin=100, tuning=TuningPolicy(d=0.1))
        again = run_benchmark(
            ns=[30], ps=[3], methods=["pg_mh", "adaptive_is", "rw_mh"],
            config=config, replications=2, seed=5, rw_step_scale=1.0,
        )
        for a, b in zip(small_result.records, again.records):
            assert a.method == b.method and a.replicate == b.replicate
            assert a.min_ess == b.min_ess
            assert a.acceptance_rate == b.acceptance_rate
            assert a.weight_ess == b.weight_ess

    def test_csv_output(self, small_result, tmp_path):
        table, medians = write_benchmark_csv(small_result, str(tmp_path / "bench.csv"))
        lines = open(table).read().strip().splitlines()
        assert lines[0].startswith("method,n,p,replicate")
        assert len(lines) == 1 + len(small_result.records)
        med_lines = open(medians).read().strip().splitlines()
        assert len(med_lines) == 1 + 3  # one row per method cell

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark([10], [2], ["hmc"], MHConfig(iterations=10, burnin=0))

    def test_median_table(self, small_result):
        rows = small_result.cell_medians()
        assert len(rows) == 3
        for row in rows:
            assert row["runs"] == 2
            assert row["median_time_per_independent_sample"] > 0
