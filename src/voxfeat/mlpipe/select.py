"""Supervised feature selection and the cross-validated score curve.

All selectors fit on imputed+standardized copies, report original column
names, and break score ties by column order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import DegenerateClasses, InvalidK, NotClassification
from .model import (
    LinearModel,
    LogisticModel,
    accuracy_score,
    fit_lasso,
    fit_logistic,
    fit_ols,
    r2_score,
)
from .table import (
    FeatureTable,
    apply_standardize,
    fit_standardize,
    impute_and_standardize,
    impute_only,
    is_classification,
)
from .transform import SelectionResult, pearson, unit_columns

Selector = Callable[[FeatureTable, int], SelectionResult]


def _require_target(tbl: FeatureTable, op: str) -> np.ndarray:
    if tbl.target is None:
        raise NotClassification(f"{op} requires a target column")
    return tbl.target


def _class_labels(tbl: FeatureTable, op: str) -> np.ndarray:
    y = _require_target(tbl, op)
    if not is_classification(tbl):
        raise NotClassification(f"{op} requires small-integer class labels")
    return np.round(y).astype(np.int64)


def _rank_by_score_desc(
    names: tuple[str, ...], scores: np.ndarray, k: int
) -> SelectionResult:
    # stable sort keeps column order among exact ties
    order = np.argsort(-scores, kind="stable")
    kept = tuple(names[i] for i in order[:k])
    ranking = {names[i]: r + 1 for r, i in enumerate(order)}
    return SelectionResult(kept, ranking, {n: float(scores[j]) for j, n in enumerate(names)})


# ---------------------------------------------------------------------------
# ANOVA F
# ---------------------------------------------------------------------------

def anova_f_values(tbl: FeatureTable) -> np.ndarray:
    """One-way ANOVA F per column against the class target.

    Zero within-group variance with spread between groups maps to +inf;
    0/0 (a fully constant column) maps to 0.
    """
    y = _class_labels(tbl, "anova_f_select")
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2:
        raise DegenerateClasses(f"need >= 2 classes, got {classes.size}")
    if counts.min() < 2:
        raise DegenerateClasses("every class needs >= 2 rows")
    z, _ = impute_and_standardize(tbl)
    x = z.rows
    n, _ = x.shape
    grand = x.mean(axis=0)
    between = np.zeros(tbl.n_cols)
    within = np.zeros(tbl.n_cols)
    for cls, cnt in zip(classes, counts):
        grp = x[y == cls]
        gm = grp.mean(axis=0)
        between += cnt * (gm - grand) ** 2
        within += ((grp - gm[None, :]) ** 2).sum(axis=0)
    msb = between / (classes.size - 1)
    msw = within / (n - classes.size)
    f = np.zeros(tbl.n_cols)
    nonzero = msw > 0
    f[nonzero] = msb[nonzero] / msw[nonzero]
    f[~nonzero & (msb > 0)] = np.inf
    return f


def anova_f_select(tbl: FeatureTable, k: int) -> SelectionResult:
    if not 1 <= k <= tbl.n_cols:
        raise InvalidK(f"k must be in [1, {tbl.n_cols}], got {k}")
    return _rank_by_score_desc(tbl.column_names, anova_f_values(tbl), k)


# ---------------------------------------------------------------------------
# RFE
# ---------------------------------------------------------------------------

def _fit_importances(x: np.ndarray, y: np.ndarray, estimator: str) -> np.ndarray:
    if estimator == "ols":
        return fit_ols(x, y).importance()
    if estimator == "logistic":
        return fit_logistic(x, y).importance()
    raise ValueError(f"unknown estimator {estimator!r}; use 'ols' or 'logistic'")


def rfe_select(tbl: FeatureTable, k: int, estimator: str = "ols") -> SelectionResult:
    """Recursive elimination: refit, drop the weakest-coefficient features,
    repeat until k remain. Step size adapts as max(1, remaining // 10).

    Ranking: survivors take ranks 1..k by final coefficient magnitude;
    eliminated features follow in reverse elimination order (last out ranks
    best), weakest first within a batch.
    """
    if not 1 <= k <= tbl.n_cols:
        raise InvalidK(f"k must be in [1, {tbl.n_cols}], got {k}")
    y = _require_target(tbl, "rfe_select")
    if estimator == "logistic":
        y = _class_labels(tbl, "rfe_select").astype(np.float64)
    z, _ = impute_and_standardize(tbl)
    remaining = list(range(tbl.n_cols))
    batches: list[list[tuple[int, float]]] = []  # (column index, |coef| when dropped)
    while len(remaining) > k:
        imp = _fit_importances(z.rows[:, remaining], y, estimator)
        step = min(max(1, len(remaining) // 10), len(remaining) - k)
        order = np.argsort(imp, kind="stable")[:step]  # weakest first
        batch = [(remaining[i], float(imp[i])) for i in sorted(order, key=lambda i: imp[i])]
        batches.append(batch)
        drop = {remaining[i] for i in order}
        remaining = [j for j in remaining if j not in drop]

    final_imp = _fit_importances(z.rows[:, remaining], y, estimator)
    scores: dict[str, float] = {}
    survivor_order = np.argsort(-final_imp, kind="stable")
    kept = tuple(tbl.column_names[remaining[i]] for i in survivor_order)
    ranking: dict[str, int] = {}
    for r, i in enumerate(survivor_order):
        name = tbl.column_names[remaining[i]]
        ranking[name] = r + 1
        scores[name] = float(final_imp[i])
    rank = k + 1
    for batch in reversed(batches):
        for col, imp_val in sorted(batch, key=lambda t: -t[1]):
            name = tbl.column_names[col]
            ranking[name] = rank
            scores[name] = imp_val
            rank += 1
    return SelectionResult(kept, ranking, scores)


# ---------------------------------------------------------------------------
# importance threshold
# ---------------------------------------------------------------------------

def importance_select(
    tbl: FeatureTable, threshold: float | str = "mean", alpha: float = 0.01
) -> SelectionResult:
    """Model-importance cutoff: lasso coefficients for regression targets,
    L2 logistic coefficients for class targets.

    A numeric threshold keeps importance >= threshold (0 keeps everything);
    "mean" keeps importance strictly above the mean, so an all-zero
    coefficient vector selects nothing.
    """
    y = _require_target(tbl, "importance_select")
    z, _ = impute_and_standardize(tbl)
    if is_classification(tbl):
        imp = fit_logistic(z.rows, np.round(y).astype(np.int64), alpha=alpha).importance()
    else:
        imp = fit_lasso(z.rows, y, alpha=alpha).importance()
    if threshold == "mean":
        cut = float(imp.mean())
        keep_mask = imp > cut
    else:
        cut = float(threshold)
        if cut < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        keep_mask = imp >= cut
    names = tbl.column_names
    kept = [n for j, n in enumerate(names) if keep_mask[j]]
    dropped = [n for j, n in enumerate(names) if not keep_mask[j]]
    order = sorted(names, key=lambda n: (-imp[names.index(n)], names.index(n)))
    ranking = {n: i + 1 for i, n in enumerate(order)}
    scores = {n: float(imp[j]) for j, n in enumerate(names)}
    return SelectionResult(tuple(kept), ranking, scores)


# ---------------------------------------------------------------------------
# MRMR
# ---------------------------------------------------------------------------

def _relevance(u: np.ndarray, tbl: FeatureTable) -> np.ndarray:
    """|pearson| against the target; >2 classes use one-vs-rest max."""
    y = tbl.target
    classes = np.unique(y)
    if is_classification(tbl) and classes.size > 2:
        targets = [(y == cls).astype(np.float64) for cls in classes]
    else:
        targets = [y]
    return np.max([np.abs(pearson(u, unit_columns(t))) for t in targets], axis=0)


def mrmr_rank(tbl: FeatureTable, k: int) -> SelectionResult:
    """Greedy minimum-redundancy maximum-relevance forward selection.

    First pick maximizes |corr(feature, target)|; each later pick maximizes
    relevance minus mean |corr| to everything already selected. Undefined
    correlations count as 0; ties resolve to the earliest column.
    """
    _require_target(tbl, "mrmr_rank")
    if not 1 <= k <= tbl.n_cols:
        raise InvalidK(f"k must be in [1, {tbl.n_cols}], got {k}")
    u = unit_columns(impute_only(tbl).rows)
    rel = _relevance(u, tbl)
    n_cols = tbl.n_cols
    selected: list[int] = []
    scores: dict[str, float] = {}
    redundancy_sum = np.zeros(n_cols)
    available = np.ones(n_cols, dtype=bool)
    for _ in range(k):
        if selected:
            criterion = rel - redundancy_sum / len(selected)
        else:
            criterion = rel.copy()
        criterion = np.where(available, criterion, -np.inf)
        pick = int(np.argmax(criterion))  # argmax takes the first among ties
        selected.append(pick)
        available[pick] = False
        scores[tbl.column_names[pick]] = float(criterion[pick])
        redundancy_sum += np.abs(pearson(u, u[:, pick]))
    kept = tuple(tbl.column_names[j] for j in selected)
    ranking = {name: i + 1 for i, name in enumerate(kept)}
    return SelectionResult(kept, ranking, scores)


# ---------------------------------------------------------------------------
# cross-validated score curve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvePoint:
    k: int
    mean_score: float
    std_score: float


def _fold_indices(tbl: FeatureTable, folds: int, seed: int) -> list[np.ndarray]:
    """Stratified folds for class targets, contiguous shuffled otherwise."""
    n = tbl.n_rows
    rng = np.random.default_rng(seed)
    if is_classification(tbl):
        y = np.round(tbl.target).astype(np.int64)
        assignment = np.zeros(n, dtype=np.int64)
        for cls in np.unique(y):
            members = rng.permutation(np.flatnonzero(y == cls))
            assignment[members] = np.arange(members.size) % folds
        return [np.flatnonzero(assignment == f) for f in range(folds)]
    perm = rng.permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, folds)]


def cv_score_curve(
    tbl: FeatureTable,
    selector: Selector,
    estimator: str,
    k_values: list[int],
    folds: int,
    seed: int = 0,
) -> list[CurvePoint]:
    """Mean/std validation score per requested feature count.

    Inside each fold the preprocessing and the selector see only training
    rows; the validation rows are transformed with the training parameters.
    Scores are accuracy for "logistic" and R^2 for "ols".
    """
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    y_all = _require_target(tbl, "cv_score_curve")
    if estimator == "logistic":
        y_all = _class_labels(tbl, "cv_score_curve").astype(np.float64)
    fold_idx = _fold_indices(tbl, folds, seed)
    if any(idx.size == 0 for idx in fold_idx):
        raise ValueError(f"{folds} folds leave an empty fold for {tbl.n_rows} rows")
    curve = []
    for k in k_values:
        fold_scores = []
        for f, val_idx in enumerate(fold_idx):
            train_idx = np.concatenate([fold_idx[g] for g in range(folds) if g != f])
            train = tbl.select_rows(train_idx)
            val = tbl.select_rows(val_idx)
            chosen = selector(train, min(k, train.n_cols)).kept_columns
            params = fit_standardize(train.select_columns(chosen))
            train_z = apply_standardize(train.select_columns(chosen), params)
            val_z = apply_standardize(val.select_columns(chosen), params)
            y_train, y_val = y_all[train_idx], y_all[val_idx]
            if estimator == "logistic":
                model: LogisticModel | LinearModel = fit_logistic(
                    train_z.rows, y_train.astype(np.int64)
                )
                score = accuracy_score(y_val.astype(np.int64), model.predict(val_z.rows))
            elif estimator == "ols":
                model = fit_ols(train_z.rows, y_train)
                score = r2_score(y_val, model.predict(val_z.rows))
            else:
                raise ValueError(f"unknown estimator {estimator!r}")
            fold_scores.append(score)
        arr = np.asarray(fold_scores)
        curve.append(CurvePoint(int(k), float(arr.mean()), float(arr.std())))
    return curve
