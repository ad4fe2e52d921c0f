import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from oracles import log_nb_likelihood
from poisbayes import (
    Dataset,
    GaussianPriorParams,
    log_gaussian_prior,
    log_poisson_likelihood,
)


def make(y, X, names=None):
    X = np.asarray(X, dtype=float)
    names = names or tuple(f"c{j}" for j in range(X.shape[1]))
    return Dataset(y=y, X=X, column_names=names)


class TestDataset:
    def test_basic_construction(self):
        ds = make([0, 2, 1], [[1.0], [1.0], [1.0]])
        assert ds.n == 3 and ds.p == 1
        assert ds.y.dtype == np.int64

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            make([-1, 2], [[1.0], [1.0]])

    def test_rejects_fractional_counts(self):
        with pytest.raises(ValueError, match="non-negative integers"):
            make([1.5, 2], [[1.0], [1.0]])

    def test_rejects_counts_beyond_int64(self):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            make([1, 1e19], [[1.0], [1.0]])

    def test_rejects_nonfinite_design(self):
        with pytest.raises(ValueError, match="non-finite"):
            make([1, 2], [[np.inf], [1.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="row count"):
            make([1, 2, 3], [[1.0], [1.0]])

    def test_rejects_name_mismatch(self):
        with pytest.raises(ValueError, match="column names"):
            Dataset(y=[1], X=[[1.0, 2.0]], column_names=("a",))

    def test_arrays_are_immutable(self):
        ds = make([1], [[1.0]])
        with pytest.raises(ValueError):
            ds.X[0, 0] = 5.0


class TestLogPoissonLikelihood:
    def test_zero_count_unit_lambda(self):
        ds = make([0], [[1.0]])
        assert log_poisson_likelihood([0.0], ds) == pytest.approx(-1.0, abs=1e-14)

    def test_count_two_unit_lambda(self):
        ds = make([2], [[1.0]])
        expected = -1.0 - math.log(2.0)
        assert log_poisson_likelihood([0.0], ds) == pytest.approx(expected, abs=1e-12)

    def test_two_observations(self):
        ds = make([3, 1], [[1.0], [1.0]])
        expected = 4 * math.log(2.0) - 4.0 - math.log(6.0)
        assert log_poisson_likelihood([math.log(2.0)], ds) == pytest.approx(expected, abs=1e-12)

    def test_overflow_returns_neg_inf(self):
        ds = make([1], [[1.0]])
        assert log_poisson_likelihood([800.0], ds) == -np.inf

    def test_dimension_mismatch(self):
        ds = make([1], [[1.0, 2.0]], names=("a", "b"))
        with pytest.raises(ValueError):
            log_poisson_likelihood([0.0], ds)

    def test_nonfinite_beta_rejected(self):
        ds = make([1], [[1.0]])
        with pytest.raises(ValueError):
            log_poisson_likelihood([np.nan], ds)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        n, p = 17, 3
        X = rng.standard_normal((n, p))
        y = rng.poisson(2.0, n)
        beta = rng.standard_normal(p) * 0.3
        perm = rng.permutation(n)
        a = log_poisson_likelihood(beta, make(y, X))
        b = log_poisson_likelihood(beta, make(y[perm], X[perm]))
        assert a == pytest.approx(b, rel=1e-14)


class TestLogNbLikelihood:
    def test_unnormalized_kernel(self):
        ds = make([0], [[1.0]])
        value = log_nb_likelihood([0.0], [1.0], ds, normalized=False)
        assert value == pytest.approx(math.log(0.5), abs=1e-12)

    def test_large_r_approaches_poisson(self):
        ds = make([2], [[1.0]])
        value = log_nb_likelihood([0.0], [1e6], ds, normalized=True)
        assert value == pytest.approx(-1.0 - math.log(2.0), abs=1e-4)

    def test_normalized_is_nb_pmf(self):
        ds = make([1], [[1.0]])
        value = log_nb_likelihood([0.0], [1.0], ds, normalized=True)
        assert value == pytest.approx(-2.0 * math.log(2.0), abs=1e-12)

    def test_rejects_nonpositive_r(self):
        ds = make([1], [[1.0]])
        with pytest.raises(ValueError, match="positive"):
            log_nb_likelihood([0.0], [0.0], ds)

    def test_normalized_pmf_sums_to_one(self):
        # single observation, sweep the count with beta fixed
        lam, r = 3.0, 7.0
        beta = [math.log(lam)]
        total = 0.0
        y = 0
        while True:
            ds = make([y], [[1.0]])
            total += math.exp(log_nb_likelihood(beta, [r], ds, normalized=True))
            # truncate once the NB upper tail is negligible
            if y > 20 and 1.0 - total < 1e-10:
                break
            y += 1
            assert y < 10_000
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_nb_to_poisson_error_decreasing(self):
        # near-mode pairs; the full-rectangle version appears in the
        # acceptance suite with its grid documented there
        for lam, y in [(0.5, 0), (1.0, 2), (5.0, 4), (20.0, 26)]:
            ds = make([y], [[1.0]])
            beta = [math.log(lam)]
            pois = log_poisson_likelihood(beta, ds)
            errs = [
                abs(log_nb_likelihood(beta, [r], ds, normalized=True) - pois)
                for r in (10.0, 100.0, 1000.0, 10000.0)
            ]
            assert all(errs[i + 1] < errs[i] for i in range(3))
            assert errs[-1] < 1e-3


class TestLogGaussianPrior:
    def test_standard_normal_at_zero(self):
        prior = GaussianPriorParams([0.0], [[1.0]])
        expected = -0.5 * math.log(2 * math.pi)
        assert log_gaussian_prior([0.0], prior) == pytest.approx(expected, abs=1e-12)

    def test_scaled_case(self):
        prior = GaussianPriorParams([0.0], [[4.0]])
        expected = -0.5 * math.log(8 * math.pi) - 0.5
        assert log_gaussian_prior([2.0], prior) == pytest.approx(expected, abs=1e-12)

    def test_at_mean_only_normalizer(self):
        B = np.array([[2.0, 0.3], [0.3, 1.0]])
        prior = GaussianPriorParams([1.0, -1.0], B)
        expected = -math.log(2 * math.pi) - 0.5 * math.log(np.linalg.det(B))
        assert log_gaussian_prior([1.0, -1.0], prior) == pytest.approx(expected, abs=1e-12)

    def test_non_pd_names_leading_minor(self):
        with pytest.raises(LinAlgError, match="leading minor"):
            GaussianPriorParams([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_nonfinite_entries_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            GaussianPriorParams([np.inf], [[1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            GaussianPriorParams([0.0], [[np.nan]])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianPriorParams([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_integrates_to_one_on_grid(self):
        prior = GaussianPriorParams([0.3], [[1.7]])
        grid = np.linspace(-15, 15, 20001)
        dens = np.array([math.exp(log_gaussian_prior([b], prior)) for b in grid])
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)

