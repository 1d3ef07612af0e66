"""Baseline estimators: OLS, lasso (coordinate descent), and L2-penalized
multinomial logistic regression solved to a gradient tolerance.

The logistic objective is the mean softmax cross-entropy plus
alpha/2 * ||W||^2, intercepts unpenalized. Two classes reduce to one
binary system solved by Newton's method (IRLS; Hastie, Tibshirani &
Friedman, Elements of Statistical Learning, 4.4.1) with step halving;
more classes are solved by L-BFGS-B from scipy.optimize, voxfeat's only
scipy import, made on first use so that start-up needs numpy alone. Either
runs until the largest gradient entry is below `tol`; a fit that does not
get there within `max_iter` iterations raises ConvergenceFailure.

All fitters expect preprocessed (imputed, standardized) design matrices;
they add their own intercept and never penalize it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceFailure, DegenerateClasses


@dataclass(frozen=True)
class LinearModel:
    coef: np.ndarray  # (n_features,)
    intercept: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        return x @ self.coef + self.intercept

    def importance(self) -> np.ndarray:
        return np.abs(self.coef)


@dataclass(frozen=True)
class LogisticModel:
    coef: np.ndarray  # (n_classes, n_features)
    intercept: np.ndarray  # (n_classes,)
    classes: np.ndarray

    def decision(self, x: np.ndarray) -> np.ndarray:
        return x @ self.coef.T + self.intercept[None, :]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.classes[np.argmax(self.decision(x), axis=1)]

    def importance(self) -> np.ndarray:
        return np.sqrt((self.coef ** 2).sum(axis=0))


def fit_ols(x: np.ndarray, y: np.ndarray) -> LinearModel:
    design = np.column_stack([x, np.ones(x.shape[0])])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return LinearModel(beta[:-1], float(beta[-1]))


def fit_lasso(
    x: np.ndarray,
    y: np.ndarray,
    alpha: float = 0.01,
    max_iter: int = 1000,
    tol: float = 1e-8,
) -> LinearModel:
    """Coordinate descent for (1/2n)||y - Xw - b||^2 + alpha*||w||_1."""
    n, p = x.shape
    # with centered columns the optimal intercept is mean(y) for every w
    mu = x.mean(axis=0)
    xc = x - mu[None, :]
    base = float(y.mean())
    resid = y - base
    w = np.zeros(p)
    col_sq = (xc ** 2).sum(axis=0) / n
    for _ in range(max_iter):
        max_delta = 0.0
        for j in range(p):
            if col_sq[j] == 0:
                continue
            rho = (xc[:, j] @ resid) / n + col_sq[j] * w[j]
            new = np.sign(rho) * max(abs(rho) - alpha, 0.0) / col_sq[j]
            delta = new - w[j]
            if delta != 0.0:
                resid -= delta * xc[:, j]
                w[j] = new
                max_delta = max(max_delta, abs(delta))
        if max_delta < tol:
            break
    return LinearModel(w, base - float(mu @ w))


# Step halving accepts a step with the Armijo decrease, give or take this
# much relative rounding in the objective: near the optimum a full Newton
# step changes the objective by less than its rounding error.
_ROUNDING = 1e-12
_MAX_HALVINGS = 40


def _sigmoid(m: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-m)) as exp(-log(1 + exp(-m))), through the logaddexp
    the loss uses: no overflow for any margin, and no underflow to 0 where
    the sigmoid is representable."""
    return np.exp(-np.logaddexp(0.0, -m))


def _fit_binary(xt: np.ndarray, y1: np.ndarray, alpha: float,
                tol: float, max_iter: int) -> np.ndarray:
    """Class 1 against class 0 with coef[1] = -coef[0] = beta/2 and the
    intercepts likewise: the two-class objective becomes a binary logistic
    loss on the margin xt @ beta with penalty alpha/4 * ||beta_w||^2, whose
    gradient equals the class-1 rows of the full gradient. Newton's method
    from zero, each step halved until it decreases the loss, until the
    largest gradient entry is below tol."""
    n, q = xt.shape
    ridge = np.full(q, alpha / 2.0)
    ridge[-1] = 0.0

    def value(beta: np.ndarray) -> float:
        margin = xt @ beta
        loss = np.logaddexp(0.0, margin) - y1 * margin
        return float(loss.mean() + 0.5 * (ridge * beta) @ beta)

    beta = np.zeros(q)
    f = value(beta)
    for steps in range(max_iter + 1):
        prob = _sigmoid(xt @ beta)
        grad = xt.T @ (prob - y1) / n + ridge * beta
        if float(np.max(np.abs(grad))) < tol:
            return beta
        if steps == max_iter:
            break
        hess = xt.T @ (xt * (prob * (1.0 - prob))[:, None]) / n + np.diag(ridge)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            raise ConvergenceFailure("logistic fit: singular Newton system") from None
        slope = float(grad @ step)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            f_new = value(beta + t * step)
            if f_new <= f + 1e-4 * t * slope + _ROUNDING * abs(f):
                break
            t *= 0.5
        else:
            raise ConvergenceFailure("logistic fit: step halving found no decrease")
        beta, f = beta + t * step, f_new
    raise ConvergenceFailure(
        f"logistic fit: gradient {float(np.max(np.abs(grad))):.3g} is not below "
        f"{tol:g} after {max_iter} Newton steps")


def _fit_multinomial(xt: np.ndarray, onehot: np.ndarray, alpha: float,
                     tol: float, max_iter: int) -> np.ndarray:
    """L-BFGS-B on all classes' (weights, intercept) rows stacked, with the
    analytic gradient. A Newton system here has c(p+1) unknowns: on 200
    columns and 3 classes one solve costs more than the whole L-BFGS-B run.
    From zero the intercepts' gradient sums to 0, so they keep summing to 0
    up to rounding, which the final centring removes."""
    # voxfeat's only scipy import, made here: loading scipy at start-up
    # would add about 0.3 s and 27 MB to every CLI process
    from scipy.optimize import minimize

    n, q = xt.shape
    c = onehot.shape[1]
    ridge = np.full(q, alpha)
    ridge[-1] = 0.0

    def value_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        w = theta.reshape(c, q)
        logits = xt @ w.T
        logits -= logits.max(axis=1, keepdims=True)
        log_prob = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        value = -(log_prob * onehot).sum() / n + 0.5 * (ridge * w ** 2).sum()
        grad = (np.exp(log_prob) - onehot).T @ xt / n + ridge * w
        return float(value), grad.reshape(-1)

    res = minimize(value_and_grad, np.zeros(c * q), jac=True, method="L-BFGS-B",
                   options={"gtol": tol, "ftol": 0.0, "maxiter": max_iter})
    theta = res.x.reshape(c, q).copy()
    theta[:, -1] -= theta[:, -1].mean()
    worst = float(np.max(np.abs(value_and_grad(theta.reshape(-1))[1])))
    if not worst < tol:
        raise ConvergenceFailure(
            f"logistic fit: gradient {worst:.3g} is not below {tol:g} after "
            f"{res.nit} L-BFGS-B iterations ({res.message})")
    return theta


def fit_logistic(
    x: np.ndarray,
    y: np.ndarray,
    alpha: float = 1e-3,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> LogisticModel:
    """Multinomial logistic regression minimizing the mean softmax
    cross-entropy plus alpha/2 * ||coef||^2 (intercepts unpenalized).

    Solved from zero until the largest entry of the gradient with respect
    to (coef, intercept) is below tol; raises ConvergenceFailure when
    max_iter iterations do not get there. Two classes solve one binary
    system (coef[1] = -coef[0] at the optimum) by Newton's method with step
    halving; more classes run L-BFGS-B on the stacked rows, and their
    intercepts sum to 0.
    """
    classes = np.unique(y)
    if classes.size < 2:
        raise DegenerateClasses(f"need >= 2 classes, got {classes.size}")
    n, p = x.shape
    xt = np.column_stack([x, np.ones(n)])
    if classes.size == 2:
        half = _fit_binary(xt, (y == classes[1]).astype(np.float64),
                           alpha, tol, max_iter) / 2.0
        theta = np.stack([-half, half])
    else:
        onehot = (y[:, None] == classes[None, :]).astype(np.float64)
        theta = _fit_multinomial(xt, onehot, alpha, tol, max_iter)
    return LogisticModel(theta[:, :p], theta[:, p], classes)


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.mean(y_true == y_pred))


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """1 - SS_res/SS_tot; a constant target scores 0 by convention."""
    ss_tot = float(((y_true - y_true.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 0.0
    ss_res = float(((y_true - y_pred) ** 2).sum())
    return 1.0 - ss_res / ss_tot
