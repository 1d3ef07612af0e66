"""Baseline estimators: OLS, lasso (coordinate descent), and L2-penalized
multinomial logistic regression solved to a gradient tolerance.

The logistic objective is the mean softmax cross-entropy plus
alpha/2 * ||W||^2, intercepts unpenalized, minimized by Newton's method with
step halving until the largest gradient entry is below `tol`: for two classes
one binary system solved exactly (IRLS; Hastie, Tibshirani & Friedman,
Elements of Statistical Learning, 4.4.1), for more by conjugate gradients.
A fit not there after `max_iter` steps raises ConvergenceFailure.

One Newton loop iterates a stack of same-shape problems at once: each keeps
its own gradient test, step, halving and ConvergenceFailure, and leaves the
stack once its gradient passes. numpy's stacked products and solves make
the same BLAS or LAPACK call for each problem as for that problem alone, so
each problem's result is bit for bit its own fit. fit_logistic is a stack
of one; fit_logistic_stack fits several two-class problems, as the score
curve does with its folds.

The binary Hessian X'WX/n is one symmetric product a'a with
a = X sqrt(W), which numpy runs as a BLAS syrk (one triangle, mirrored), so
it is exactly symmetric; the ridge is added to its diagonal in place, and
each step reuses the margin that the accepted step-halving trial formed.

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
    """Minimum-norm least squares. A column of zeros (a standardized
    constant) gets its minimum-norm coefficient, exactly 0, which lstsq can
    leave a few ulps off."""
    design = np.column_stack([x, np.ones(x.shape[0])])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    beta[:-1][~x.any(axis=0)] = 0.0
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


def _newton(value, derivatives, shape: tuple[int, int], tol: float,
            max_iter: int) -> np.ndarray:
    """Newton's method from zero with Armijo step halving on a stack of
    problems, one row of theta each, until each row's largest gradient entry
    is below tol. Every row takes its own steps and halvings, as alone; a
    row that passes leaves the active set, so the products and solves of
    later steps run on the rows still moving. The first row to fail raises
    the ConvergenceFailure that its own fit raises.

    rows is an ascending index array into the stack. value(points, rows)
    returns those rows' objectives (one per row) and a state array along the
    same axis; derivatives(points, states, rows) gets each row's state from
    the value call that accepted its point, and returns the gradients and a
    callable that maps (gradients, keep) to the Newton steps of rows[keep],
    called only for a step."""
    theta = np.zeros(shape)
    rows, point = np.arange(shape[0]), theta.copy()  # the rows still moving, at these points
    f, state = value(point, rows)
    for steps in range(max_iter + 1):
        grad, solve = derivatives(point, state, rows)
        worst = np.max(np.abs(grad), axis=1)
        moving = ~(worst < tol)
        if not moving.all():
            theta[rows[~moving]] = point[~moving]
            if not moving.any():
                return theta
            rows, point, grad, f, state = (rows[moving], point[moving], grad[moving],
                                           f[moving], state[moving])
        if steps == max_iter:
            raise ConvergenceFailure(f"logistic fit: gradient {float(worst[moving][0]):.3g} is "
                                     f"not below {tol:g} after {max_iter} Newton steps")
        try:
            step = solve(grad, moving)
        except np.linalg.LinAlgError:
            raise ConvergenceFailure("logistic fit: singular Newton system") from None
        slope = (grad[:, None, :] @ step[:, :, None])[:, 0, 0]
        t = 1.0
        trial = point + t * step
        f_new, state_new = value(trial, rows)
        todo = np.flatnonzero(~(f_new <= f + 1e-4 * t * slope + _ROUNDING * np.abs(f)))
        for _ in range(_MAX_HALVINGS - 1):
            if not todo.size:
                break
            t *= 0.5
            trial[todo] = point[todo] + t * step[todo]
            f_try, state_try = value(trial[todo], rows[todo])
            ok = f_try <= f[todo] + 1e-4 * t * slope[todo] + _ROUNDING * np.abs(f[todo])
            f_new[todo[ok]], state_new[todo[ok]] = f_try[ok], state_try[ok]
            todo = todo[~ok]
        if todo.size:
            raise ConvergenceFailure("logistic fit: step halving found no decrease")
        point, f, state = trial, f_new, state_new


def _fit_binary(xt: np.ndarray, y1: np.ndarray, alpha: float,
                tol: float, max_iter: int) -> np.ndarray:
    """Class 1 against class 0 for a stack of problems xt (F, n, q) with 0/1
    targets y1 (F, n), each with coef[1] = -coef[0] = beta/2, intercepts
    likewise: a binary logistic loss on the margin xt @ beta with penalty
    alpha/4 * ||beta_w||^2, whose gradient is the full one's class-1 rows.
    Returns beta (F, q).

    The Hessian is a'a/n with a = xt * sqrt(p(1 - p)), one symmetric product
    (BLAS syrk, half the multiplies of a general one), plus the ridge on its
    diagonal. The gradient reads the margin that value formed at the
    accepted trial. Every product and solve is numpy's stacked one, which
    makes the same BLAS or LAPACK call for each problem as for that problem
    alone, so each beta is bit for bit that problem's own fit."""
    count, n, q = xt.shape
    ridge = np.full(q, alpha / 2.0)
    ridge[-1] = 0.0

    def take(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (xt, y1) if rows.size == count else (xt[rows], y1[rows])

    def value(beta: np.ndarray, rows: np.ndarray):
        x, y = take(rows)
        margin = (x @ beta[:, :, None])[:, :, 0]
        loss = np.logaddexp(0.0, margin) - y * margin
        penalty = (0.5 * (ridge * beta))[:, None, :] @ beta[:, :, None]
        return loss.sum(axis=1) / n + penalty[:, 0, 0], margin

    def derivatives(beta: np.ndarray, margin: np.ndarray, rows: np.ndarray):
        x, y = take(rows)
        prob = _sigmoid(margin)
        grad = (x.transpose(0, 2, 1) @ (prob - y)[:, :, None])[:, :, 0] / n + ridge * beta

        def solve(g: np.ndarray, keep: np.ndarray) -> np.ndarray:
            if keep.all():
                a = x * np.sqrt(prob * (1.0 - prob))[:, :, None]
            else:
                a, pk = x[keep], prob[keep]
                a *= np.sqrt(pk * (1.0 - pk))[:, :, None]
            hessian = a.transpose(0, 2, 1) @ a
            hessian /= n
            hessian.reshape(len(a), q * q)[:, ::q + 1] += ridge
            return np.linalg.solve(hessian, -g[:, :, None])[:, :, 0]

        return grad, solve

    return _newton(value, derivatives, (count, q), tol, max_iter)


def _fit_multinomial(xt: np.ndarray, onehot: np.ndarray, alpha: float,
                     tol: float, max_iter: int) -> np.ndarray:
    """All classes' (weights, intercept) rows stacked. Each Newton step is
    solved by conjugate gradients on Hessian-vector products of O(n*q*c),
    preconditioned by Boehning's bound on the Hessian (Ann. Inst. Statist.
    Math. 44(1), 1992), 1/2 (I - 11'/c) kron xt'xt/n plus the ridge, so no
    system of c*q unknowns is formed. From zero the gradient, the products
    and so the steps have rows that sum to 0, where the Hessian is positive
    definite (an equal shift of all rows leaves the loss unchanged)."""
    n, q = xt.shape
    c = onehot.shape[1]
    ridge = np.append(np.full(q - 1, alpha), 0.0)
    # on rows that sum to 0 the bound is xt'xt/2n plus the ridge on each row
    bound_inv = np.linalg.inv(xt.T @ xt / (2.0 * n) + np.diag(ridge))

    def log_prob(w: np.ndarray) -> np.ndarray:
        logits = xt @ w.T
        logits -= logits.max(axis=1, keepdims=True)
        return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))

    def value(theta: np.ndarray, rows: np.ndarray):
        w = theta[0].reshape(c, q)
        lp = log_prob(w)
        return np.array([-(lp * onehot).sum() / n + 0.5 * (ridge * w * w).sum()]), lp[None]

    def derivatives(theta: np.ndarray, lp: np.ndarray, rows: np.ndarray):
        prob = np.exp(lp[0])
        grad = (prob - onehot).T @ xt / n + ridge * theta[0].reshape(c, q)

        def times(v: np.ndarray) -> np.ndarray:
            u = xt @ v.T
            u = prob * (u - (prob * u).sum(axis=1, keepdims=True))
            return u.T @ xt / n + ridge * v

        def precondition(r: np.ndarray) -> np.ndarray:
            # centring the rows drops the rounding that would leave the subspace
            return (r - r.mean(axis=0)) @ bound_inv

        def solve(g: np.ndarray, keep: np.ndarray) -> np.ndarray:
            # stopped once the residual is below min(1/2, sqrt|g|) |g|, which
            # keeps Newton's method superlinear (Nocedal & Wright, Numerical
            # Optimization, 2nd ed., 7.1)
            norm = float(np.linalg.norm(g))
            step, resid = np.zeros((c, q)), -g.reshape(c, q)
            direction = precondition(resid)
            rz = float((resid * direction).sum())
            for _ in range(c * q):
                product = times(direction)
                curvature = float((direction * product).sum())
                if not curvature > 0.0:
                    raise np.linalg.LinAlgError("no positive curvature")
                step += rz / curvature * direction
                resid -= rz / curvature * product
                if np.linalg.norm(resid) < min(0.5, np.sqrt(norm)) * norm:
                    break
                z = precondition(resid)
                rz, rz_old = float((resid * z).sum()), rz
                direction = z + rz / rz_old * direction
            return step.reshape(1, -1)

        return grad.reshape(1, -1), solve

    return _newton(value, derivatives, (1, c * q), tol, max_iter).reshape(c, q)


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
    to (coef, intercept) is below tol, or ConvergenceFailure after max_iter
    Newton steps. Two classes solve one binary system (coef[1] = -coef[0]);
    more classes take each step on all rows by conjugate gradients, and
    their rows of coef and intercepts sum to 0 up to rounding.
    """
    classes = np.unique(y)
    if classes.size < 2:
        raise DegenerateClasses(f"need >= 2 classes, got {classes.size}")
    if classes.size == 2:
        return fit_logistic_stack(x[None], y[None], alpha, tol, max_iter)[0]
    n, p = x.shape
    xt = np.column_stack([x, np.ones(n)])
    onehot = (y[:, None] == classes[None, :]).astype(np.float64)
    theta = _fit_multinomial(xt, onehot, alpha, tol, max_iter)
    return LogisticModel(theta[:, :p], theta[:, p], classes)


def fit_logistic_stack(
    x: np.ndarray,
    y: np.ndarray,
    alpha: float = 1e-3,
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> list[LogisticModel]:
    """fit_logistic(x[i], y[i]) for every i of a stack of same-shape
    two-class problems, x (F, n, p) and y (F, n), solved as one: each model
    is bit for bit that problem's own fit. Every y[i] must hold the same two
    classes. The first problem to fail raises its own ConvergenceFailure.
    """
    classes = np.unique(y)
    y1 = y == classes[-1]
    if classes.size != 2 or not (y1.any(axis=1) & ~y1.all(axis=1)).all():
        raise ValueError("every problem of a stack needs the same two classes")
    count, n, p = x.shape
    # each problem's design keeps the memory order that np.column_stack
    # gives its x alone, which its BLAS calls round by
    xt = np.concatenate([x, np.ones((count, n, 1))], axis=2)
    half = _fit_binary(xt, y1.astype(np.float64), alpha, tol, max_iter) / 2.0
    return [LogisticModel(theta[:, :p], theta[:, p], classes)
            for theta in np.stack([-half, half], axis=1)]


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.mean(y_true == y_pred))


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """1 - SS_res/SS_tot; a constant target scores 0 by convention."""
    ss_tot = float(((y_true - y_true.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 0.0
    ss_res = float(((y_true - y_pred) ** 2).sum())
    return 1.0 - ss_res / ss_tot
