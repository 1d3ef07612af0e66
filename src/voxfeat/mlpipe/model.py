"""Baseline estimators: OLS, lasso (coordinate descent), and
multinomial logistic regression by gradient descent.

All fitters expect preprocessed (imputed, standardized) design matrices;
they add their own intercept and never penalize it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateClasses


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


def fit_logistic(
    x: np.ndarray,
    y: np.ndarray,
    alpha: float = 1e-3,
    max_iter: int = 500,
    lr: float = 0.5,
) -> LogisticModel:
    """Multinomial logistic regression, full-batch gradient descent with an
    L2 penalty on the weights (intercepts free)."""
    classes = np.unique(y)
    if classes.size < 2:
        raise DegenerateClasses(f"need >= 2 classes, got {classes.size}")
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
    return LogisticModel(coef, intercept, classes)


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.mean(y_true == y_pred))


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """1 - SS_res/SS_tot; a constant target scores 0 by convention."""
    ss_tot = float(((y_true - y_true.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 0.0
    ss_res = float(((y_true - y_pred) ** 2).sum())
    return 1.0 - ss_res / ss_tot
