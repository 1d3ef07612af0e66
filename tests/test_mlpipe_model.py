"""Baseline estimators: OLS, lasso, multinomial logistic, scoring."""

import tracemalloc
import warnings

import numpy as np
import pytest

from voxfeat.errors import ConvergenceFailure, DegenerateClasses
from voxfeat.mlpipe.model import (
    LogisticModel,
    _sigmoid,
    accuracy_score,
    fit_lasso,
    fit_logistic,
    fit_logistic_stack,
    fit_ols,
    r2_score,
)
from voxfeat.mlpipe import model as model_module


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


def logistic_gradient(x, y, model, alpha):
    """Gradient of mean softmax cross-entropy + alpha/2 ||coef||^2 with
    respect to (coef, intercept), evaluated at the fitted model."""
    onehot = (y[:, None] == model.classes[None, :]).astype(np.float64)
    logits = model.decision(x)
    prob = np.exp(logits - logits.max(axis=1, keepdims=True))
    prob /= prob.sum(axis=1, keepdims=True)
    err = prob - onehot
    return np.concatenate([(err.T @ x / x.shape[0] + alpha * model.coef).ravel(),
                           err.mean(axis=0)])


def logistic_objective(x, y, model, alpha):
    onehot = (y[:, None] == model.classes[None, :]).astype(np.float64)
    logits = model.decision(x)
    top = logits.max(axis=1, keepdims=True)
    lse = top[:, 0] + np.log(np.exp(logits - top).sum(axis=1))
    return float((lse - (logits * onehot).sum(axis=1)).mean()
                 + 0.5 * alpha * (model.coef ** 2).sum())


def reference_gd_logistic(x, y, alpha=1e-3, max_iter=20_000, lr=0.5):
    """The former fit_logistic (full-batch gradient descent from zero), run
    for many more steps than it used to take."""
    classes = np.unique(y)
    n, p = x.shape
    onehot = (y[:, None] == classes[None, :]).astype(np.float64)
    coef = np.zeros((classes.size, p))
    intercept = np.zeros(classes.size)
    for _ in range(max_iter):
        logits = x @ coef.T + intercept[None, :]
        logits -= logits.max(axis=1, keepdims=True)
        expl = np.exp(logits)
        prob = expl / expl.sum(axis=1, keepdims=True)
        err = prob - onehot  # (n, c)
        grad_w = err.T @ x / n + alpha * coef
        grad_b = err.mean(axis=0)
        coef -= lr * grad_w
        intercept -= lr * grad_b
    return coef, intercept


def reference_lbfgsb_logistic(x, y, alpha=1e-3, tol=1e-8, max_iter=1000):
    """The former fit for three or more classes: L-BFGS-B from scipy.optimize
    on the stacked (weights, intercept) rows, intercepts centred after."""
    from scipy.optimize import minimize
    classes = np.unique(y)
    onehot = (y[:, None] == classes[None, :]).astype(np.float64)
    n, p = x.shape
    c, q = classes.size, p + 1
    xt = np.column_stack([x, np.ones(n)])
    ridge = np.full(q, alpha)
    ridge[-1] = 0.0

    def value_and_grad(theta):
        w = theta.reshape(c, q)
        logits = xt @ w.T
        logits -= logits.max(axis=1, keepdims=True)
        log_prob = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        value = -(log_prob * onehot).sum() / n + 0.5 * (ridge * w ** 2).sum()
        grad = (np.exp(log_prob) - onehot).T @ xt / n + ridge * w
        return float(value), grad.reshape(-1)

    res = minimize(value_and_grad, np.zeros(c * q), jac=True, method="L-BFGS-B",
                   options={"gtol": tol, "ftol": 0.0, "maxiter": max_iter})
    assert res.success, res.message
    theta = res.x.reshape(c, q).copy()
    theta[:, -1] -= theta[:, -1].mean()
    return LogisticModel(theta[:, :p], theta[:, p], classes)


def sweep_columns(rng, n_rows, n_cols, n_classes=2):
    """Standardized columns shaped like analyze's sweep tables: a few planted
    informative columns, blocks of 8 sharing a latent factor, and near-copies."""
    y = rng.permutation(np.arange(n_rows) % n_classes)
    x = rng.normal(size=(n_rows, n_cols))
    n_planted = min(6, n_cols)
    x[:, :n_planted] += 1.2 * (y[:, None] - (n_classes - 1) / 2)
    for start in range(n_planted, n_cols, 8):
        x[:, start:start + 8] = 0.75 * rng.normal(size=(n_rows, 1)) + 0.66 * x[:, start:start + 8]
    for j in range(n_planted + 3, n_cols, 20):
        x[:, j] = x[:, j - 1] + 0.03 * rng.normal(size=n_rows)
    x = x[:, rng.permutation(n_cols)]
    return (x - x.mean(axis=0)) / x.std(axis=0), y


class TestLogisticSolver:
    """The fit stops at a stated gradient tolerance."""

    @pytest.mark.parametrize("n_classes", [2, 3, 4])
    def test_gradient_below_tol_at_returned_point(self, n_classes):
        rng = np.random.default_rng(30 + n_classes)
        # Newton's method gets below the objective's rounding
        settings = [(1e-3, 1e-8), (0.01, 1e-8), (1e-3, 1e-11)]
        for n_cols in (1, 5, 40, 120):
            x, y = sweep_columns(rng, 90, n_cols, n_classes)
            for alpha, tol in settings:
                model = fit_logistic(x, y, alpha=alpha, tol=tol)
                assert np.max(np.abs(logistic_gradient(x, y, model, alpha))) < tol

    @pytest.mark.parametrize("n_classes", [3, 4, 12])
    @pytest.mark.parametrize("n_cols", [10, 40, 120, 200])
    def test_reaches_the_lbfgsb_optimum(self, n_cols, n_classes):
        rng = np.random.default_rng(36 + n_cols + n_classes)
        x, y = sweep_columns(rng, 240, n_cols, n_classes)
        model = fit_logistic(x, y)
        ref = reference_lbfgsb_logistic(x, y)
        assert logistic_objective(x, y, model, 1e-3) <= (
            logistic_objective(x, y, ref, 1e-3) * (1.0 + 1e-9))
        np.testing.assert_array_equal(model.predict(x), ref.predict(x))

    def test_many_classes_form_no_newton_system(self):
        # 22 classes on 200 columns: a dense system of c(p+1) unknowns alone
        # would take (22 * 201)^2 * 8 bytes, 156 MB; the fit peaks near 2 MB
        x, y = sweep_columns(np.random.default_rng(58), 240, 200, 22)
        tracemalloc.start()
        try:
            model = fit_logistic(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert np.max(np.abs(logistic_gradient(x, y, model, 1e-3))) < 1e-8

    def test_separable_weights_stay_finite(self):
        # far apart classes: without the penalty the loss has no minimum
        rng = np.random.default_rng(31)
        x = np.vstack([rng.normal(size=(30, 3)) - 20.0, rng.normal(size=(30, 3)) + 20.0])
        y = np.repeat([0, 1], 30)
        for alpha in (1e-3, 1e-6):
            model = fit_logistic(x, y, alpha=alpha)
            assert np.all(np.isfinite(model.coef)) and np.all(np.isfinite(model.intercept))
            assert accuracy_score(y, model.predict(x)) == 1.0
            assert np.max(np.abs(logistic_gradient(x, y, model, alpha))) < 1e-8

    @pytest.mark.parametrize("n_cols, n_classes", [(10, 2), (200, 2), (10, 3)])
    def test_matches_long_gradient_descent(self, n_cols, n_classes):
        # 20,000 gradient steps leave a gradient of 1e-9 to 1e-6 (the largest
        # with 200 columns, several near-copies among them), which bounds how
        # closely the two fits can agree
        rng = np.random.default_rng(32 + n_cols)
        x, y = sweep_columns(rng, 240, n_cols, n_classes)
        model = fit_logistic(x, y)
        coef, intercept = reference_gd_logistic(x, y)
        np.testing.assert_allclose(model.coef, coef, rtol=0, atol=2e-3)
        np.testing.assert_allclose(model.intercept, intercept, rtol=0, atol=2e-3)
        ref = LogisticModel(coef, intercept, model.classes)
        np.testing.assert_array_equal(model.predict(x), ref.predict(x))
        assert logistic_objective(x, y, model, 1e-3) == pytest.approx(
            logistic_objective(x, y, ref, 1e-3), rel=0, abs=1e-10)

    def test_three_classes_intercepts_sum_to_zero(self):
        rng = np.random.default_rng(33)
        x, y = sweep_columns(rng, 120, 15, 3)
        model = fit_logistic(x + 3.0, y)
        assert abs(model.intercept.sum()) < 1e-12
        # the penalty also centres the weights across classes
        assert np.max(np.abs(model.coef.sum(axis=0))) < 1e-8

    def test_two_classes_are_mirror_images(self):
        rng = np.random.default_rng(34)
        x, y = sweep_columns(rng, 80, 7)
        model = fit_logistic(x, y)
        assert np.array_equal(model.coef[0], -model.coef[1])
        assert model.intercept[0] == -model.intercept[1]

    def test_iteration_cap_raises(self):
        rng = np.random.default_rng(35)
        for n_classes in (2, 3):
            x, y = sweep_columns(rng, 60, 8, n_classes)
            with pytest.raises(ConvergenceFailure):
                fit_logistic(x, y, max_iter=1)
            fit_logistic(x, y)


def general_product_fit_binary(xt, y1, alpha, tol, max_iter):
    """The former binary fit, as a stack of one: each Newton step forms the
    Hessian with a general product and adds the ridge as np.diag(ridge)."""
    n, q = xt.shape
    ridge = np.full(q, alpha / 2.0)
    ridge[-1] = 0.0

    def value(beta, rows):
        margin = xt @ beta[0]
        loss = np.logaddexp(0.0, margin) - y1 * margin
        return np.array([loss.mean() + 0.5 * (ridge * beta[0]) @ beta[0]]), margin[None]

    def derivatives(beta, margin, rows):
        prob = _sigmoid(margin[0])
        grad = xt.T @ (prob - y1) / n + ridge * beta[0]
        return grad[None], lambda g, keep: np.linalg.solve(
            xt.T @ (xt * (prob * (1.0 - prob))[:, None]) / n + np.diag(ridge), -g[0])[None]

    return model_module._newton(value, derivatives, (1, q), tol, max_iter)[0]


def binary_objective_and_gradient(xt, y1, alpha, beta):
    """The binary fit's objective and gradient at beta, formed directly."""
    ridge = np.full(xt.shape[1], alpha / 2.0)
    ridge[-1] = 0.0
    margin = xt @ beta
    value = float((np.logaddexp(0.0, margin) - y1 * margin).mean()
                  + 0.5 * (ridge * beta) @ beta)
    return value, xt.T @ (_sigmoid(margin) - y1) / xt.shape[0] + ridge * beta


class TestBinaryNewtonStep:
    """The symmetric-product Newton step reaches the former fit's optimum."""

    @pytest.mark.parametrize("n_rows, n_cols", [(240, 10), (240, 120), (240, 200), (80, 220)])
    @pytest.mark.parametrize("alpha", [1e-3, 0.01])
    def test_matches_the_general_product_fit(self, n_rows, n_cols, alpha):
        rng = np.random.default_rng(70 + n_cols)
        # held-out rows beyond n_rows; 80 x 220 has more columns than rows
        x, y = sweep_columns(rng, n_rows + 60, n_cols)
        xt = np.column_stack([x, np.ones(x.shape[0])])
        fit, held = xt[:n_rows], xt[n_rows:]
        y1 = y[:n_rows].astype(np.float64)
        tol = 1e-8
        beta = model_module._fit_binary(fit[None], y1[None], alpha, tol, 1000)[0]
        ref = general_product_fit_binary(fit, y1, alpha, tol, 1000)
        value, grad = binary_objective_and_gradient(fit, y1, alpha, beta)
        ref_value, _ = binary_objective_and_gradient(fit, y1, alpha, ref)
        assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
        assert np.max(np.abs(grad)) < tol
        np.testing.assert_array_equal(held @ beta > 0, held @ ref > 0)

    def test_hessian_is_exactly_symmetric(self, monkeypatch):
        x, y = sweep_columns(np.random.default_rng(75), 240, 200)
        solved = []
        solve = np.linalg.solve

        def spy(a, b):
            solved.append(a.copy())
            return solve(a, b)
        monkeypatch.setattr(np.linalg, "solve", spy)
        fit_logistic(x, y, alpha=0.01)
        assert solved
        for hessian in solved:
            assert np.array_equal(hessian, hessian.swapaxes(-1, -2))


def newton_counts(monkeypatch, fit):
    """Run fit() and return, per problem of the stack it fits, the number of
    Newton steps and of halved trials, read off the calls that _newton makes
    to value and derivatives."""
    counted = {}
    newton = model_module._newton

    def spy(value, derivatives, shape, tol, max_iter):
        steps, trials = np.zeros(shape[0], int), np.zeros(shape[0], int)

        def counted_value(points, rows):
            trials[rows] += 1
            return value(points, rows)

        def counted_derivatives(points, states, rows):
            steps[rows] += 1
            return derivatives(points, states, rows)

        theta = newton(counted_value, counted_derivatives, shape, tol, max_iter)
        counted["steps"], counted["halved"] = steps - 1, trials - steps
        return theta

    monkeypatch.setattr(model_module, "_newton", spy)
    fit()
    return counted["steps"], counted["halved"]


def five_problems(order="C"):
    """One stack of five 80 x 100 two-class problems, the shape of a fold of
    the 100-row wide table at k = 100: a planted signal, random labels, an
    all-zero (standardized constant) column, heavy-tailed columns whose
    Newton steps need halving, and well-separated classes."""
    rng = np.random.default_rng(90)
    problems = []
    x, y = sweep_columns(rng, 80, 100)
    problems.append((x, y))
    problems.append((sweep_columns(rng, 80, 100)[0], rng.permutation(np.arange(80) % 2)))
    x, y = sweep_columns(rng, 80, 100)
    x[:, 17] = 0.0
    problems.append((x, y))
    heavy = np.random.default_rng(26)
    x = heavy.standard_t(1, size=(80, 100))
    problems.append((x, (x[:, 0] + heavy.normal(size=80) > 0).astype(np.int64)))
    x, y = sweep_columns(rng, 80, 100)
    x[:, :3] += 6.0 * (y[:, None] - 0.5)
    problems.append((x, y))
    xs = np.stack([np.asarray(x, order=order) for x, _ in problems])
    return xs, np.stack([y for _, y in problems])


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestStackedNewton:
    """Fitting a stack of binary problems as one gives each problem its own
    fit, bit for bit, and its own failure."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_each_problem_is_its_own_fit(self, order, monkeypatch):
        x, y = five_problems(order)
        stacked = fit_logistic_stack(x, y)
        steps, halved = [], []
        for i in range(len(x)):
            alone = {}
            s, h = newton_counts(monkeypatch, lambda: alone.setdefault(
                "model", fit_logistic(x[i], y[i])))
            steps.append(int(s[0]))
            halved.append(int(h[0]))
            for name in ("coef", "intercept", "classes"):
                got, want = getattr(stacked[i], name), getattr(alone["model"], name)
                assert np.array_equal(bits(got), bits(want)), (i, name)
        # the stack covers problems that stop after different step counts,
        # and one whose steps need halving
        assert len(set(steps)) >= 3, steps
        assert halved[3] > 0 and sum(halved) == halved[3], halved
        counts = newton_counts(monkeypatch, lambda: fit_logistic_stack(x, y))
        assert counts[0].tolist() == steps
        assert counts[1].tolist() == halved

    def test_problems_leave_the_stack_once_converged(self, monkeypatch):
        x, y = five_problems()
        steps = np.array([newton_counts(monkeypatch, lambda: fit_logistic(x[i], y[i]))[0][0]
                          for i in range(len(x))])
        solved = []
        solve = np.linalg.solve

        def spy(a, b):
            solved.append(a.shape[0])
            return solve(a, b)
        monkeypatch.setattr(np.linalg, "solve", spy)
        fit_logistic_stack(x, y)
        # step s solves the problems that take more than s steps
        assert solved == [int((steps > s).sum()) for s in range(steps.max())]

    def test_iteration_cap_raises_the_problems_own_failure(self):
        x, y = five_problems()
        # the heavy-tailed problem takes the most steps
        with pytest.raises(ConvergenceFailure) as alone:
            fit_logistic(x[3], y[3], max_iter=12)
        for i in (0, 1, 2, 4):
            fit_logistic(x[i], y[i], max_iter=12)
        with pytest.raises(ConvergenceFailure) as stacked:
            fit_logistic_stack(x, y, max_iter=12)
        assert str(stacked.value) == str(alone.value)
        assert "after 12 Newton steps" in str(alone.value)

    def test_singular_system_raises_the_problems_own_failure(self):
        # without a ridge, the zero column leaves its Hessian singular
        rng = np.random.default_rng(91)
        problems = [sweep_columns(rng, 80, 12) for _ in range(4)]
        problems[1][0][:, 5] = 0.0
        x, y = np.stack([p[0] for p in problems]), np.stack([p[1] for p in problems])
        with pytest.raises(ConvergenceFailure) as alone:
            fit_logistic(x[1], y[1], alpha=0.0)
        for i in (0, 2, 3):
            fit_logistic(x[i], y[i], alpha=0.0)
        with pytest.raises(ConvergenceFailure) as stacked:
            fit_logistic_stack(x, y, alpha=0.0)
        assert str(stacked.value) == str(alone.value) == "logistic fit: singular Newton system"

    def test_every_problem_needs_the_same_two_classes(self):
        x, y = five_problems()
        for labels in (np.where(np.arange(5)[:, None] == 2, 0, y), y + np.arange(5)[:, None] % 2,
                       y * (np.arange(80) % 3)):
            with pytest.raises(ValueError, match="same two classes"):
                fit_logistic_stack(x, labels)


def test_sigmoid_matches_scipy_expit():
    from scipy.special import expit
    m = np.linspace(-800.0, 800.0, 1_600_001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _sigmoid(m)
    expected = expit(m)
    positive = expected > 0
    assert np.all(got[positive] > 0)
    assert np.all(np.abs(got - expected)[positive] <= 1e-14 * expected[positive])


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
