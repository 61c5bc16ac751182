"""Exact-identity checks for the ridge decomposition.

The expectations here are independent routes to the same numbers: an
augmented least-squares solve for the weights, hand-derived closed forms for
the planted two-feature setup, and brute-force refits for leave-one-out.
"""

import numpy as np
import pytest

from tfa.ridge import (
    RidgeProblem,
    ToySetup,
    feature_contributions,
    leave_one_out_delta,
    representer_coefficients,
    ridge_fit,
)


def random_problem(rng, n=12, d=4, lam=0.5):
    return RidgeProblem(rng.standard_normal((n, d)), rng.standard_normal(n), lam)


class TestRidgeFit:
    def test_matches_augmented_least_squares(self):
        # independent route: ridge == OLS on X stacked with sqrt(lam) I
        rng = np.random.default_rng(0)
        for _ in range(5):
            problem = random_problem(rng)
            n, d = problem.X.shape
            X_aug = np.vstack([problem.X, np.sqrt(problem.lam) * np.eye(d)])
            y_aug = np.append(problem.y, np.zeros(d))
            expected, *_ = np.linalg.lstsq(X_aug, y_aug, rcond=None)
            np.testing.assert_allclose(ridge_fit(problem), expected, rtol=1e-10)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(1)
        problem = random_problem(rng)
        w = ridge_fit(problem)
        lhs = (problem.X.T @ problem.X + problem.lam * np.eye(4)) @ w
        np.testing.assert_allclose(lhs, problem.X.T @ problem.y, atol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            RidgeProblem(np.ones((3, 2)), np.ones(4), 1.0)
        for lam in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="ridge penalty must be positive"):
                RidgeProblem(np.ones((3, 2)), np.ones(3), lam)
        with pytest.raises(ValueError, match="infs or NaNs"):
            RidgeProblem(np.ones((3, 2)), [1.0, np.nan, 1.0], 1.0)
        problem = RidgeProblem(np.ones((3, 2)), np.ones(3), 1.0)
        for oracle in (representer_coefficients, feature_contributions):
            with pytest.raises(ValueError, match="infs or NaNs"):
                oracle(problem, np.array([np.inf, 1.0]))

    def test_overflowing_normal_matrix_is_a_value_error(self):
        problem = ToySetup(c=1e200).problem()  # c^2 overflows to inf in X'X
        with np.errstate(all="raise"):  # and no floating-point warning escapes
            with pytest.raises(ValueError, match="not finite"):
                ridge_fit(problem)
            with pytest.raises(ValueError, match="not finite"):
                representer_coefficients(problem, np.array([0.0, 1.0]))


class TestRepresenterIdentity:
    def test_prediction_equals_alpha_weighted_labels(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            problem = random_problem(rng, n=rng.integers(3, 20), d=rng.integers(2, 6))
            x_test = rng.standard_normal(problem.X.shape[1])
            alphas = representer_coefficients(problem, x_test)
            pred = float(x_test @ ridge_fit(problem))
            np.testing.assert_allclose(alphas @ problem.y, pred, rtol=1e-10, atol=1e-12)

    def test_beta_rows_sum_to_alpha(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            problem = random_problem(rng)
            x_test = rng.standard_normal(4)
            alphas = representer_coefficients(problem, x_test)
            betas = feature_contributions(problem, x_test)
            np.testing.assert_allclose(betas.sum(axis=1), alphas, rtol=1e-10, atol=1e-12)

    def test_beta_vanishes_for_zero_feature(self):
        rng = np.random.default_rng(4)
        problem = random_problem(rng)
        X = problem.X.copy()
        X[2, 1] = 0.0
        problem = RidgeProblem(X, problem.y, problem.lam)
        betas = feature_contributions(problem, rng.standard_normal(4))
        assert betas[2, 1] == 0.0

    def test_beta_shrinks_to_zero_for_large_lam(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        x_test = rng.standard_normal(3)
        last = np.inf
        for lam in (1e4, 1e6, 1e8):
            peak = np.abs(feature_contributions(RidgeProblem(X, y, lam), x_test)).max()
            assert peak < last
            last = peak
        assert last < 1e-6


class TestToySetup:
    def test_closed_form_weights(self):
        setup = ToySetup(axis_coords=(1.0, 1.0, 1.0, 1.0), c=2.0, lam=1.0)
        s11 = sum(a * a for a in setup.axis_coords)
        w = ridge_fit(setup.problem())
        np.testing.assert_allclose(
            w, [s11 / (s11 + setup.lam), setup.c**2 / (setup.c**2 + setup.lam)], atol=1e-12
        )

    def test_axis_examples_get_exactly_zero_alpha(self):
        setup = ToySetup()
        alphas = representer_coefficients(setup.problem(), setup.test_point(1.0))
        np.testing.assert_allclose(alphas[:-1], 0.0, atol=1e-12)

    def test_planted_prediction_value(self):
        # t = 1, c = 2, lam = 1: the off-axis example alone contributes
        # t c^2 / (c^2 + lam) = 4/5
        setup = ToySetup(c=2.0, lam=1.0)
        problem = setup.problem()
        alphas = representer_coefficients(problem, setup.test_point(1.0))
        np.testing.assert_allclose(alphas[-1] * problem.y[-1], 0.8, atol=1e-12)
        np.testing.assert_allclose(
            float(setup.test_point(1.0) @ ridge_fit(problem)), 0.8, atol=1e-12
        )

    def test_default_toy_is_exact_in_floating_point(self):
        # alpha_n = c t / (c^2 + lam) = 2/5 and alpha_n y_n = 4/5, correctly rounded
        setup = ToySetup()
        problem = setup.problem()
        alphas = representer_coefficients(problem, setup.test_point(1.0))
        assert alphas[-1] == 0.4
        assert float(alphas @ problem.y) == 0.8

    def test_general_closed_form_in_t_c_lam(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            c = float(rng.uniform(0.5, 3.0))
            lam = float(rng.uniform(0.1, 5.0))
            t = float(rng.uniform(-2.0, 2.0))
            setup = ToySetup(axis_coords=tuple(rng.uniform(0.5, 2.0, size=3)), c=c, lam=lam)
            problem = setup.problem()
            alphas = representer_coefficients(problem, setup.test_point(t))
            np.testing.assert_allclose(alphas[-1], t * c / (c**2 + lam), atol=1e-12)
            betas = feature_contributions(problem, setup.test_point(t))
            # axis examples have zero second feature, so their rows vanish
            np.testing.assert_allclose(betas[:-1], 0.0, atol=1e-12)


class TestLeaveOneOut:
    def test_matches_brute_force_refit(self):
        rng = np.random.default_rng(7)
        problem = random_problem(rng, n=8, d=3)
        x_test = rng.standard_normal(3)
        y_test = 0.4
        for i in range(8):
            keep = [j for j in range(8) if j != i]
            reduced = RidgeProblem(problem.X[keep], problem.y[keep], problem.lam)
            expected = (float(x_test @ ridge_fit(reduced)) - y_test) ** 2 - (
                float(x_test @ ridge_fit(problem)) - y_test
            ) ** 2
            np.testing.assert_allclose(
                leave_one_out_delta(problem, i, x_test, y_test), expected, rtol=1e-12
            )

    def test_duplicate_example_matters_less(self):
        rng = np.random.default_rng(8)
        base = rng.standard_normal((6, 3))
        base[1] = base[0]  # exact duplicate pair 0/1
        y = base @ np.array([1.0, -0.5, 0.2]) + rng.normal(0, 0.05, size=6)
        y[1] = y[0]
        problem = RidgeProblem(base, y, 0.1)
        x_test = base[0] + rng.normal(0, 0.01, size=3)
        y_test = float(y[0])
        with_backup = abs(leave_one_out_delta(problem, 0, x_test, y_test))
        # removing the same point from a version without its duplicate
        solo = RidgeProblem(np.delete(base, 1, axis=0), np.delete(y, 1), 0.1)
        without_backup = abs(leave_one_out_delta(solo, 0, x_test, y_test))
        assert with_backup < without_backup

    def test_removing_only_informative_point_collapses_prediction(self):
        setup = ToySetup(axis_coords=(1.0, 1.0), c=2.0, lam=1.0)
        problem = setup.problem()
        x_test = setup.test_point(1.0)
        keep = np.arange(len(problem.y)) != 2
        reduced = RidgeProblem(problem.X[keep], problem.y[keep], problem.lam)
        assert abs(float(x_test @ ridge_fit(reduced))) < 1e-12

    def test_zero_row_changes_nothing(self):
        # an all-zero example touches neither X'X nor X'y; the refit differs
        # only by summation order, so the delta is zero up to roundoff
        rng = np.random.default_rng(9)
        X = rng.standard_normal((5, 3))
        X[3] = 0.0
        problem = RidgeProblem(X, rng.standard_normal(5), 1.0)
        delta = leave_one_out_delta(problem, 3, rng.standard_normal(3), 0.0)
        assert abs(delta) < 1e-15

    def test_index_out_of_range(self):
        rng = np.random.default_rng(10)
        problem = random_problem(rng, n=4)
        with pytest.raises(IndexError):
            leave_one_out_delta(problem, 4, np.zeros(4), 0.0)
