import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

import poisbayes.proposal as proposal_mod
from poisbayes import (
    Dataset,
    GaussianPriorParams,
    NumericError,
    build_proposal,
    pg_mean,
    proposal_logpdf,
    sample_proposal,
)


def make(y, X):
    X = np.asarray(X, dtype=float)
    return Dataset(y=y, X=X, column_names=tuple(f"c{j}" for j in range(X.shape[1])))


class FixedNormals:
    """Generator stub returning prescribed normal variates."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=float)

    def standard_normal(self, size=None):
        assert size == self.z.size
        return self.z.copy()


class TestPgMean:
    def test_limit_at_zero(self):
        assert pg_mean(2.0, 0.0) == 0.5
        assert pg_mean(2.0, 1e-12) == 0.5

    def test_closed_form(self):
        assert pg_mean(1.0, 2.0) == pytest.approx(math.tanh(1.0) / 4.0, rel=1e-14)

    def test_even_in_c(self):
        assert pg_mean(4.0, -3.0) == pg_mean(4.0, 3.0)
        assert pg_mean(4.0, 3.0) == pytest.approx((4.0 / 6.0) * math.tanh(1.5), rel=1e-14)

    def test_identity_against_exponential_form(self):
        # same quantity written with expm1 instead of tanh
        bs = np.array([0.5, 1.0, 10.0, 1e3])
        cs = np.linspace(-30.0, 30.0, 121)
        cs = cs[cs != 0.0]
        for b in bs:
            expected = (b / (2.0 * cs)) * np.expm1(cs) / (np.exp(cs) + 1.0)
            np.testing.assert_allclose(pg_mean(b, cs), expected, rtol=1e-12)

    def test_continuity_through_zero(self):
        for b in (0.5, 1.0, 10.0, 1e3):
            assert abs(pg_mean(b, 1e-9) - b / 4.0) < 1e-10

    def test_positive(self):
        rng = np.random.default_rng(0)
        b = rng.uniform(0.1, 50, 100)
        c = rng.uniform(-40, 40, 100)
        assert np.all(pg_mean(b, c) > 0)

    def test_rejects_nonpositive_b(self):
        with pytest.raises(ValueError):
            pg_mean(0.0, 1.0)


class TestBuildProposal:
    def test_hand_example(self):
        ds = make([1], [[1.0]])
        prior = GaussianPriorParams([0.0], [[1.0]])
        prop = build_proposal([0.0], ds, [1.0], prior)
        # c = 0 - log 1 = 0, E(omega) = (1+1)/4, V = 1/(0.5 + 1), kappa = 0
        np.testing.assert_allclose(prop.L @ prop.L.T, [[2.0 / 3.0]], rtol=1e-12)
        np.testing.assert_allclose(prop.m, [0.0], atol=1e-15)
        assert prop.log_det_V == pytest.approx(math.log(2.0 / 3.0), rel=1e-12)

    def test_flat_prior_limit(self):
        rng = np.random.default_rng(3)
        n, p = 20, 2
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        ds = make(rng.poisson(3.0, n), X)
        r = np.full(n, 7.0)
        prior = GaussianPriorParams(np.zeros(p), 1e12 * np.eye(p))
        prop = build_proposal([0.1, -0.2], ds, r, prior)
        # independent evaluation of the same normal equations with B^{-1} = 0
        c = X @ np.array([0.1, -0.2]) - np.log(r)
        omega = (ds.y + r) / (2 * c) * np.tanh(c / 2)
        kappa = omega * np.log(r) + (ds.y - r) / 2
        m_expected = np.linalg.solve(X.T @ (omega[:, None] * X), X.T @ kappa)
        np.testing.assert_allclose(prop.m, m_expected, rtol=1e-9)

    def test_identity_design_decouples(self):
        ds = make([2, 5], np.eye(2))
        prior = GaussianPriorParams(np.zeros(2), np.diag([2.0, 0.5]))
        r = np.array([3.0, 4.0])
        prop = build_proposal([0.0, 0.0], ds, r, prior)
        c = -np.log(r)
        omega = (ds.y + r) / (2 * c) * np.tanh(c / 2)
        V = prop.L @ prop.L.T
        np.testing.assert_allclose(np.diag(V), 1.0 / (omega + np.array([0.5, 2.0])), rtol=1e-10)
        assert abs(V[0, 1]) < 1e-15

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        n, p = 15, 3
        X = rng.standard_normal((n, p))
        y = rng.poisson(2.0, n)
        r = rng.uniform(1.0, 20.0, n)
        prior = GaussianPriorParams(np.zeros(p), np.eye(p))
        beta = np.array([0.2, -0.1, 0.3])
        perm = rng.permutation(n)
        a = build_proposal(beta, make(y, X), r, prior)
        b = build_proposal(beta, make(y[perm], X[perm]), r[perm], prior)
        np.testing.assert_allclose(a.m, b.m, rtol=1e-12)
        np.testing.assert_allclose(a.L, b.L, rtol=1e-10)

    def test_variance_shrinks_as_r_grows(self, toy_1d):
        prior = GaussianPriorParams([0.0], [[1.0]])
        norms = []
        for r in (1e2, 1e3, 1e4):
            prop = build_proposal([0.3], toy_1d, np.full(toy_1d.n, r), prior)
            norms.append(np.linalg.norm(prop.L @ prop.L.T))
        assert norms[0] > norms[1] > norms[2]

    def test_cholesky_reconstructs_inverse_precision(self):
        rng = np.random.default_rng(9)
        n, p = 25, 4
        X = rng.standard_normal((n, p))
        ds = make(rng.poisson(2.0, n), X)
        r = rng.uniform(0.5, 50.0, n)
        prior = GaussianPriorParams(rng.standard_normal(p), np.eye(p) * 1.5)
        beta = rng.standard_normal(p) * 0.2
        prop = build_proposal(beta, ds, r, prior)
        c = X @ beta - np.log(r)
        omega = (ds.y + r) / (2 * c) * np.tanh(c / 2)
        precision = X.T @ (omega[:, None] * X) + np.linalg.inv(prior.B)
        V = np.linalg.inv(precision)
        rel = np.linalg.norm(prop.L @ prop.L.T - V) / np.linalg.norm(V)
        assert rel < 1e-8
        assert prop.log_det_V == pytest.approx(2 * np.sum(np.log(np.diag(prop.L))))
        assert np.all(np.diag(prop.L) > 0)

    @pytest.mark.parametrize("diagonal", [True, False], ids=["diag", "full"])
    @pytest.mark.parametrize("p", [1, 5, 30])
    def test_matches_inverse_precision_formula(self, p, diagonal):
        rng = np.random.default_rng(100 + p)
        n = 200
        X = np.column_stack([np.ones(n), 0.5 * rng.standard_normal((n, p - 1))])
        ds = make(rng.poisson(3.0, n), X)
        r = rng.uniform(0.5, 30.0, n)
        if diagonal:
            B = np.diag(rng.uniform(0.5, 3.0, p))
        else:
            A = rng.standard_normal((p, p))
            B = A @ A.T / p + np.eye(p)
        prior = GaussianPriorParams(rng.standard_normal(p), B)
        assert prior.is_diagonal == (diagonal or p == 1)
        beta = 0.1 * rng.standard_normal(p)
        prop = build_proposal(beta, ds, r, prior)

        c = X @ beta - np.log(r)
        omega = (ds.y + r) / (2 * c) * np.tanh(c / 2)
        kappa = omega * np.log(r) + (ds.y - r) / 2
        B_inv = np.linalg.inv(B)
        V = np.linalg.inv(X.T @ (omega[:, None] * X) + B_inv)
        m = V @ (X.T @ kappa + B_inv @ prior.b)
        log_det_V = np.linalg.slogdet(V)[1]

        def rel(a, b):
            return np.linalg.norm(a - b) / np.linalg.norm(b)

        assert rel(prop.m, m) < 1e-10
        assert rel(prop.L @ prop.L.T, V) < 1e-10
        assert prop.log_det_V == pytest.approx(log_det_V, rel=1e-10)
        np.testing.assert_array_equal(prop.L, np.tril(prop.L))
        assert np.all(np.diag(prop.L) > 0)
        for point in (m, beta, m + prop.L @ rng.standard_normal(p)):
            expected = multivariate_normal.logpdf(point, mean=m, cov=V)
            assert proposal_logpdf(prop, point) == pytest.approx(expected, rel=1e-10)

    def test_jitter_recovers_then_surfaces(self, monkeypatch, toy_1d):
        prior = GaussianPriorParams([0.0], [[1.0]])
        real = proposal_mod._chol_lower
        calls = {"n": 0}

        def flaky(a):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise proposal_mod.LinAlgError("forced")
            return real(a)

        monkeypatch.setattr(proposal_mod, "_chol_lower", flaky)
        prop = build_proposal([0.0], toy_1d, np.ones(toy_1d.n), prior)
        assert np.isfinite(prop.log_det_V)

        monkeypatch.setattr(
            proposal_mod, "_chol_lower",
            lambda a: (_ for _ in ()).throw(proposal_mod.LinAlgError("forced")),
        )
        with pytest.raises(NumericError):
            build_proposal([0.0], toy_1d, np.ones(toy_1d.n), prior)

    def test_factor_reuses_data_terms_across_priors(self):
        rng = np.random.default_rng(17)
        X = np.column_stack([np.ones(50), rng.standard_normal((50, 3))])
        data = make(rng.poisson(np.exp(X @ [0.5, 0.2, -0.1, 0.0])), X)
        beta = np.array([0.4, 0.1, -0.2, 0.05])
        r = rng.uniform(0.5, 20.0, data.n)
        terms = proposal_mod._data_terms(data.X @ beta, data, r)
        B = np.array([[2.0, 0.3, 0.0, 0.1], [0.3, 1.0, 0.2, 0.0],
                      [0.0, 0.2, 1.5, 0.0], [0.1, 0.0, 0.0, 0.5]])
        for prior in (GaussianPriorParams(np.zeros(4), np.diag([0.01, 4.0, 0.3, 2.0])),
                      GaussianPriorParams([0.1, 0.0, -0.3, 0.2], B)):
            cached = proposal_mod._factor(*terms, prior)
            fresh = build_proposal(beta, data, r, prior)
            for name in ("m", "L", "L_inv"):
                np.testing.assert_array_equal(getattr(cached, name), getattr(fresh, name))
            assert cached.log_det_V == fresh.log_det_V

    def test_rejects_bad_r(self, toy_1d):
        prior = GaussianPriorParams([0.0], [[1.0]])
        with pytest.raises(ValueError):
            build_proposal([0.0], toy_1d, np.zeros(toy_1d.n), prior)


class TestSampleAndLogpdf:
    def test_zero_noise_returns_mean(self, toy_1d):
        prior = GaussianPriorParams([0.0], [[1.0]])
        prop = build_proposal([0.0], toy_1d, np.ones(toy_1d.n), prior)
        draw = sample_proposal(prop, FixedNormals([0.0]))
        np.testing.assert_array_equal(draw, prop.m)

    def test_affine_map(self):
        from poisbayes.proposal import ProposalDensity

        prop = ProposalDensity(m=np.array([1.0]), L=np.array([[2.0]]),
                               log_det_V=math.log(4.0), L_inv=np.array([[0.5]]))
        draw = sample_proposal(prop, FixedNormals([1.5]))
        assert draw[0] == pytest.approx(4.0, rel=1e-15)

    def test_moment_check(self):
        rng = np.random.default_rng(17)
        n = 40
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        ds = make(rng.poisson(2.0, n), X)
        prior = GaussianPriorParams(np.zeros(2), np.eye(2) * 2.0)
        prop = build_proposal([0.5, 0.1], ds, np.full(n, 5.0), prior)
        draws = np.array([sample_proposal(prop, rng) for _ in range(100_000)])
        V = prop.L @ prop.L.T
        se = np.sqrt(np.diag(V) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - prop.m) < 4 * se)
        cov = np.cov(draws.T)
        assert np.all(np.abs(cov - V) <= 0.05 * np.abs(V) + 1e-12)

    def test_logpdf_at_mean(self, toy_1d):
        prior = GaussianPriorParams([0.0], [[1.0]])
        prop = build_proposal([0.2], toy_1d, np.ones(toy_1d.n), prior)
        expected = -0.5 * math.log(2 * math.pi) - 0.5 * prop.log_det_V
        assert proposal_logpdf(prop, prop.m) == pytest.approx(expected, rel=1e-12)

    def test_logpdf_standard_normal(self):
        from poisbayes.proposal import ProposalDensity

        prop = ProposalDensity(m=np.array([0.0]), L=np.array([[1.0]]),
                               log_det_V=0.0, L_inv=np.array([[1.0]]))
        expected = -0.5 * math.log(2 * math.pi) - 0.5
        assert proposal_logpdf(prop, [1.0]) == pytest.approx(expected, rel=1e-14)

    def test_logpdf_integrates_to_one(self, toy_1d):
        prior = GaussianPriorParams([0.0], [[1.0]])
        prop = build_proposal([0.4], toy_1d, np.full(toy_1d.n, 3.0), prior)
        sd = float(prop.L[0, 0])
        grid = np.linspace(prop.m[0] - 10 * sd, prop.m[0] + 10 * sd, 40001)
        dens = np.array([math.exp(proposal_logpdf(prop, [b])) for b in grid])
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)

    def test_logpdf_finite_on_repeated_draws(self, toy_1d):
        prior = GaussianPriorParams([0.0], [[1.0]])
        prop = build_proposal([0.0], toy_1d, np.ones(toy_1d.n), prior)
        rng = np.random.default_rng(23)
        for _ in range(10_000):
            lp = proposal_logpdf(prop, sample_proposal(prop, rng))
            assert np.isfinite(lp)
