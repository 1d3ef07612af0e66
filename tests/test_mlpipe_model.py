"""Baseline estimators: OLS, lasso, multinomial logistic, scoring."""

import numpy as np
import pytest

from voxfeat.errors import DegenerateClasses
from voxfeat.mlpipe import (
    accuracy_score,
    fit_lasso,
    fit_logistic,
    fit_ols,
    r2_score,
)


class TestOls:
    def test_exact_on_noiseless_data(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 2))
        y = 2.0 * x[:, 0] - 3.0 * x[:, 1] + 5.0
        model = fit_ols(x, y)
        assert np.allclose(model.coef, [2.0, -3.0], atol=1e-9)
        assert model.intercept == pytest.approx(5.0, abs=1e-9)
        assert np.allclose(model.predict(x), y, atol=1e-9)

    def test_importance_is_abs_coef(self):
        model = fit_ols(np.array([[1.0], [2.0], [3.0]]), np.array([3.0, 1.0, -1.0]))
        assert np.allclose(model.importance(), np.abs(model.coef))


class TestLasso:
    def test_soft_threshold_exact(self):
        # unit column norm: solution is the OLS coefficient minus alpha
        x = (np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(5.0))[:, None]
        y = 2.0 * x[:, 0]
        model = fit_lasso(x, y, alpha=0.5)
        assert model.coef[0] == pytest.approx(1.5, abs=1e-9)
        assert model.intercept == pytest.approx(0.0, abs=1e-12)

    def test_tiny_alpha_approaches_ols(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(60, 3))
        y = x @ np.array([1.0, 0.0, -0.5]) + 2.0
        ols = fit_ols(x, y)
        lasso = fit_lasso(x, y, alpha=1e-10)
        assert np.allclose(lasso.coef, ols.coef, atol=1e-5)

    def test_large_alpha_zeroes_everything(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 4))
        y = x[:, 0] + rng.normal(size=30)
        model = fit_lasso(x, y, alpha=1e3)
        assert np.array_equal(model.coef, np.zeros(4))
        assert model.intercept == pytest.approx(float(y.mean()), abs=1e-12)

    def test_selects_informative_feature(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(200, 5))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        y = 3.0 * x[:, 1]
        model = fit_lasso(x, y, alpha=0.3)
        assert np.abs(model.coef[1]) > 1.0
        others = np.delete(np.abs(model.coef), 1)
        assert others.max() < 0.1

    def test_constant_column_gets_zero_weight(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        y = np.arange(10.0)
        model = fit_lasso(x, y, alpha=1e-6)
        assert model.coef[0] == 0.0


class TestLogistic:
    def test_separable_two_class(self):
        rng = np.random.default_rng(5)
        x = np.vstack([rng.normal(size=(25, 2)) - 3.0, rng.normal(size=(25, 2)) + 3.0])
        y = np.array([0] * 25 + [1] * 25)
        model = fit_logistic(x, y)
        assert accuracy_score(y, model.predict(x)) == 1.0

    def test_three_class_blobs(self):
        rng = np.random.default_rng(6)
        centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
        x = np.vstack([rng.normal(size=(20, 2)) + c for c in centers])
        y = np.repeat([0, 1, 2], 20)
        model = fit_logistic(x, y)
        assert model.classes.tolist() == [0, 1, 2]
        assert accuracy_score(y, model.predict(x)) == 1.0

    def test_importance_is_column_l2(self):
        rng = np.random.default_rng(7)
        x = np.vstack([rng.normal(size=(20, 3)) - 2, rng.normal(size=(20, 3)) + 2])
        y = np.array([0] * 20 + [1] * 20)
        model = fit_logistic(x, y)
        expect = np.sqrt((model.coef ** 2).sum(axis=0))
        assert np.array_equal(model.importance(), expect)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateClasses):
            fit_logistic(np.zeros((5, 2)), np.zeros(5))


class TestScores:
    def test_accuracy(self):
        assert accuracy_score(np.array([1, 0, 1, 1]), np.array([1, 1, 1, 0])) == 0.5

    def test_r2_perfect(self):
        y = np.arange(5.0)
        assert r2_score(y, y) == 1.0

    def test_r2_mean_predictor_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        pred = np.full(3, 2.0)
        assert r2_score(y, pred) == 0.0

    def test_r2_constant_target_convention(self):
        y = np.full(4, 7.0)
        assert r2_score(y, np.arange(4.0)) == 0.0
