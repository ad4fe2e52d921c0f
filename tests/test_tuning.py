import math
import warnings

import numpy as np
import pytest

import poisbayes.tuning as tuning
from oracles import empirical_cdf_ratio_distance
from poisbayes import (
    Dataset,
    TuningDiagnostics,
    TuningPolicy,
    compute_r_vector,
    lambert_w,
    nb_poisson_distance,
    solve_r,
)


class TestPolicy:
    def test_defaults(self):
        policy = TuningPolicy(d=0.1)
        assert policy.r_min == 1e-2 and policy.r_max == 1e6

    @pytest.mark.parametrize("kwargs", [
        {"d": 0.0}, {"d": -1.0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TuningPolicy(**kwargs)


class TestDistance:
    def test_unit_case(self):
        assert nb_poisson_distance(1.0, 1.0) == pytest.approx(math.e / 2 - 1, abs=1e-9)

    def test_vanishes_for_large_r(self):
        assert nb_poisson_distance(1.0, 1e6) < 1e-6

    def test_monotone_in_r(self):
        small = nb_poisson_distance(5.0, 0.02)
        mid = nb_poisson_distance(5.0, 100.0)
        assert small > mid > 0

    def test_strictly_decreasing_on_grid(self):
        for lam in (0.5, 1.0, 5.0, 20.0, 100.0):
            rs = np.geomspace(0.05, 1e5, 40)
            vals = nb_poisson_distance(lam, rs)
            assert np.all(np.diff(vals) < 0)

    def test_overflow_sentinel(self):
        assert nb_poisson_distance(1000.0, 1e-2) == np.inf

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            nb_poisson_distance(-1.0, 1.0)
        with pytest.raises(ValueError):
            nb_poisson_distance(1.0, 0.0)


class TestEmpiricalDistance:
    def test_matches_analytic_at_large_r(self):
        emp = empirical_cdf_ratio_distance(1.0, 1e4)
        assert emp == pytest.approx(nb_poisson_distance(1.0, 1e4), abs=1e-6)

    def test_sup_attained_at_zero(self):
        value, argmax = empirical_cdf_ratio_distance(1.0, 1.0, full_output=True)
        assert argmax == 0
        assert value == pytest.approx(math.e / 2 - 1, abs=1e-9)

    def test_degenerate_lambda(self):
        assert empirical_cdf_ratio_distance(0.0, 3.0) == 0.0
        assert empirical_cdf_ratio_distance(1e-9, 3.0) < 1e-8

    def test_agrees_with_analytic_on_grid(self):
        for lam in (0.5, 1.0, 5.0, 20.0, 100.0):
            for r in (0.5, 5.0, 50.0, 5e3):
                ana = nb_poisson_distance(lam, r)
                if not np.isfinite(ana) or ana > 50:
                    continue
                emp = empirical_cdf_ratio_distance(lam, r)
                assert emp == pytest.approx(ana, abs=max(1e-6, 1e-3 * ana))


class TestLambertW:
    def test_trivial_points(self):
        assert lambert_w(0.0) == 0.0
        assert lambert_w(math.e) == pytest.approx(1.0, rel=1e-14)
        assert lambert_w(-math.exp(-1.0), "minus_one") == -1.0
        assert lambert_w(-math.exp(-1.0), "principal") == -1.0

    def test_identity_principal(self):
        xs = np.concatenate([
            np.linspace(-math.exp(-1) + 1e-10, -1e-10, 57),
            np.geomspace(1e-8, 1e8, 65),
        ])
        for x in xs:
            w = lambert_w(float(x), "principal")
            assert w * math.exp(w) == pytest.approx(x, rel=1e-12)

    def test_identity_minus_one(self):
        xs = -np.geomspace(1e-6, math.exp(-1) - 1e-12, 73)
        for x in xs:
            w = lambert_w(float(x), "minus_one")
            assert w <= -1.0
            assert w * math.exp(w) == pytest.approx(x, rel=1e-12)

    @pytest.mark.parametrize("branch", ["principal", "minus_one"])
    def test_kernel_dense_grid(self, branch):
        # the vectorised kernel against the defining identity (no external
        # reference: scipy's W_{-1} loses accuracy near -1/e), branch
        # membership, and a fifth Halley step moving w by rounding only
        near = -math.exp(-1) + np.geomspace(1e-12, 0.1, 2001)
        x = np.concatenate([near, -np.geomspace(1e-300, math.exp(-1) - 1e-12, 4001)])
        if branch == "principal":
            x = np.concatenate([x, [0.0], np.geomspace(1e-300, 1e300, 4001)])
        w = tuning._lambert_w_vec(x, branch)
        np.testing.assert_allclose(w * np.exp(w), x, rtol=1e-12, atol=0)
        assert np.all(w >= -1.0) if branch == "principal" else np.all(w <= -1.0)
        ew = np.exp(w)
        f = w * ew - x
        w5 = w - f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * (w + 1.0)))
        away = x + math.exp(-1) > 1e-3
        np.testing.assert_allclose(w5[away], w[away], rtol=1e-14, atol=0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lambert_w(-1.0, "principal")
        with pytest.raises(ValueError):
            lambert_w(0.1, "minus_one")
        with pytest.raises(ValueError):
            lambert_w(-1.0, "minus_one")
        with pytest.raises(ValueError):
            lambert_w(0.0, "zero_branch")


class TestSolveR:
    def test_inverts_unit_distance(self):
        d = math.e / 2 - 1
        policy = TuningPolicy(d=d)
        assert solve_r(1.0, policy) == pytest.approx(1.0, rel=1e-6)

    def test_huge_bound_returns_floor(self):
        policy = TuningPolicy(d=1e6)
        assert solve_r(5.0, policy) == policy.r_min

    def test_cap_rule(self):
        policy = TuningPolicy(d=1e-3)
        assert solve_r(200.0, policy) == policy.r_max

    def test_fast_path_matches_bisection(self):
        for lam in (0.5, 1.0, 5.0, 10.0, 20.0, 100.0):
            for d in (0.5, 0.1, 0.01):
                policy = TuningPolicy(d=d)
                diag = TuningDiagnostics()
                fast = solve_r(lam, policy, diag)
                assert diag.closed_form_fallbacks == 0
                assert fast == pytest.approx(tuning._bisect_r(lam, policy), rel=1e-6)

    def test_round_trip_bound(self):
        for lam in (0.5, 1.0, 5.0, 20.0, 100.0, 200.0):
            for d in (0.5, 0.1, 0.01):
                policy = TuningPolicy(d=d)
                r = solve_r(lam, policy)
                if r < policy.r_max:
                    assert nb_poisson_distance(lam, r) <= d * (1 + 1e-6)

    def test_nonfinite_lambda_capped(self):
        policy = TuningPolicy(d=0.1)
        assert solve_r(np.inf, policy) == policy.r_max

    @pytest.mark.parametrize("w_value", [-0.5, np.nan, -1e4, -2.0],
                             ids=["negative_root", "nan", "below_r_min", "wrong_interior"])
    def test_fallback_counter(self, monkeypatch, w_value):
        # sabotage the closed form on each side of the contract check;
        # bisection must still deliver the root, counted once
        monkeypatch.setattr(tuning, "_lambert_w_vec", lambda a, branch: np.full(np.shape(a), w_value))
        calls = []
        bisect = tuning._bisect_r

        def counting_bisect(lam, policy):
            calls.append(lam)
            return bisect(lam, policy)

        monkeypatch.setattr(tuning, "_bisect_r", counting_bisect)
        diag = TuningDiagnostics()
        policy = TuningPolicy(d=0.1)
        r = solve_r(5.0, policy, diag)
        assert calls == [5.0]
        assert diag.closed_form_fallbacks == 1
        assert nb_poisson_distance(5.0, r) == pytest.approx(0.1, rel=1e-6)

    def test_lambda_edges_need_no_fallback(self):
        policy = TuningPolicy(d=0.1)
        lams = np.array([0.0, 1e-300, math.log1p(policy.d), 1e300, np.inf])
        diag = TuningDiagnostics()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = tuning.r_vector_for_lambdas(lams, policy, diag)
        np.testing.assert_array_equal(r, [policy.r_min] * 3 + [policy.r_max] * 2)
        assert diag.closed_form_fallbacks == 0


class TestComputeRVector:
    def test_constant_design_gives_equal_r(self):
        ds = Dataset(y=[1, 2, 3], X=np.ones((3, 1)), column_names=("b0",))
        r = compute_r_vector([0.3], ds, TuningPolicy(d=0.1))
        assert r[0] == r[1] == r[2]

    def test_unit_pair(self):
        ds = Dataset(y=[0, 1], X=np.ones((2, 1)), column_names=("b0",))
        r = compute_r_vector([0.0], ds, TuningPolicy(d=math.e / 2 - 1))
        np.testing.assert_allclose(r, 1.0, rtol=1e-6)

    def test_monotone_in_lambda(self):
        policy = TuningPolicy(d=0.05)
        lams = np.array([0.5, 1.0, 2.0, 8.0, 30.0, 120.0])
        for rs in (tuning.r_vector_for_lambdas(lams, policy),
                   [tuning._bisect_r(lam, policy) for lam in lams]):
            assert np.all(np.diff(rs) > 0)

    def test_ties_solved_per_observation(self):
        # 1003 rows (not a multiple of a SIMD width) drawn from 7 values
        rng = np.random.default_rng(8)
        values = np.array([0.05, 0.7, 1.0, 3.0, 12.5, 80.0, 250.0])
        lams = rng.permutation(np.repeat(values, 150)[:1003])
        policy = TuningPolicy(d=0.1)
        diag = TuningDiagnostics()
        r = tuning.r_vector_for_lambdas(lams, policy, diag)
        assert diag.solves == lams.size
        for lam in values:
            tied = r[lams == lam]
            assert np.all(tied.view(np.uint64) == tied[0].view(np.uint64))
            assert tied[0] == solve_r(lam, policy)

    def test_dimension_check(self):
        ds = Dataset(y=[1], X=[[1.0]], column_names=("b0",))
        with pytest.raises(ValueError):
            compute_r_vector([0.0, 1.0], ds, TuningPolicy(d=0.1))
