"""Supervised feature selection and the cross-validated score curve.

All selectors read the table's one standardization
(table.impute_and_standardize, fitted once per table), report original
column names, and break score ties by column order. Each reads the task from the
table's classification field; rfe ranks by OLS under both tasks.

rfe solves each OLS fit's normal equations from one Gram matrix per table
(or fold), checked by a Cholesky factorization, and takes minimum-norm lstsq
when the fit has more columns than rows or the Cholesky fails or shows a
squared pivot ratio below PIVOT_RATIO_MIN. A constant column standardizes
to zeros, so every fit that keeps it is singular, takes lstsq and scores it
0; run_analyze drops such columns first (transform.low_variance_filter
counts them as variance 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import DegenerateClasses, EmptyFold, InvalidK, NotClassification
from .model import (
    accuracy_score,
    fit_lasso,
    fit_logistic,
    fit_ols,
    r2_score,
)
from .table import (
    FeatureTable,
    impute_and_standardize,
    standardize_columns,
)
from .transform import SelectionResult, check_k, distinct_columns, pearson, score_ranking

Selector = Callable[[FeatureTable, int], SelectionResult]
# one table and a list of ks -> each k's selection on that table
SelectKs = Callable[[FeatureTable, list[int]], dict[int, SelectionResult]]


def _require_target(tbl: FeatureTable, op: str) -> np.ndarray:
    if tbl.target is None:
        raise NotClassification(f"{op} requires a target column")
    return tbl.target


def _class_labels(tbl: FeatureTable, op: str) -> np.ndarray:
    y = _require_target(tbl, op)
    if not tbl.classification:
        raise NotClassification(f"{op} requires small-integer class labels")
    return np.round(y).astype(np.int64)


# ---------------------------------------------------------------------------
# ANOVA F
# ---------------------------------------------------------------------------

def anova_f_values(tbl: FeatureTable) -> np.ndarray:
    """F per column: one-way ANOVA against class labels, the regression F
    r^2 (n - 2) / (1 - r^2) against any other target.

    Zero within-group variance with spread between groups (|r| = 1) maps to
    +inf; 0/0 (a fully constant column) maps to 0.
    """
    y = _require_target(tbl, "anova_f_select")
    if not tbl.classification:
        u = impute_and_standardize(tbl)[0].rows
        first, group = distinct_columns(u)
        r2 = (pearson(u[:, first], standardize_columns(y[:, None])[:, 0]) ** 2)[group]
        return np.divide(r2 * (tbl.n_rows - 2), 1 - r2, out=np.full(tbl.n_cols, np.inf),
                         where=r2 < 1)
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
    check_k(k, tbl.n_cols)
    order, ranking, scores = score_ranking(tbl.column_names, anova_f_values(tbl))
    return SelectionResult(tuple(order[:k]), ranking, scores)


# ---------------------------------------------------------------------------
# RFE
# ---------------------------------------------------------------------------

def _without(cols: np.ndarray, drop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boolean mask of the positions in drop, and cols with them removed."""
    mask = np.zeros(cols.size, dtype=bool)
    mask[drop] = True
    return mask, cols[~mask]


def _rfe_result(names: tuple[str, ...], survivors: np.ndarray, imp: np.ndarray,
                batches: list[tuple[np.ndarray, np.ndarray]]) -> SelectionResult:
    """Survivors by final importance, then each dropped batch from the last
    back to the first, strongest first within a group (ties in column order)."""
    groups = [(survivors, imp)] + batches[::-1]
    orders = [np.argsort(-vals, kind="stable") for _, vals in groups]
    cols = np.concatenate([c[o] for (c, _), o in zip(groups, orders)]).tolist()
    vals = np.concatenate([v[o] for (_, v), o in zip(groups, orders)]).tolist()
    ranked = [names[c] for c in cols]
    return SelectionResult(
        tuple(ranked[:survivors.size]),
        dict(zip(ranked, range(1, len(ranked) + 1))),
        dict(zip(ranked, vals)),
    )


# Smallest ratio of the smallest to the largest squared Cholesky pivot at
# which an RFE fit trusts the normal equations. Solving them squares the
# design's condition number; below this ratio the fit takes lstsq instead.
PIVOT_RATIO_MIN = 1e-6


def _well_conditioned(sub: np.ndarray) -> bool:
    """Whether a Cholesky of the symmetric sub succeeds with its smallest
    squared pivot at least PIVOT_RATIO_MIN times its largest."""
    try:
        pivots = np.diag(np.linalg.cholesky(sub)) ** 2
    except np.linalg.LinAlgError:
        return False
    return bool(pivots.min() >= PIVOT_RATIO_MIN * pivots.max())


def _ols_importance(rows: np.ndarray, y: np.ndarray, gram: np.ndarray,
                    rhs: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """|OLS coefficients| of y on rows[:, cols] plus an intercept: the one
    function that makes every RFE fit.

    gram and rhs are D'D and D'y for D = [rows, 1]. The fit solves the
    normal equations on the sub-Gram matrix of cols and the intercept. It
    takes fit_ols (minimum-norm lstsq) instead when that design has more
    columns than rows or the sub-matrix fails _well_conditioned.
    """
    idx = np.append(cols, gram.shape[0] - 1)
    sub = gram[idx][:, idx]  # the bytes of np.ix_, in a quarter of its time
    if idx.size <= rows.shape[0] and _well_conditioned(sub):
        return np.abs(np.linalg.solve(sub, rhs[idx])[:-1])
    return fit_ols(rows[:, cols], y).importance()


def rfe_path(tbl: FeatureTable, k_values: list[int]) -> dict[int, SelectionResult]:
    """rfe_select's result for each k in k_values, from one elimination path.

    Every k takes the same steps of max(1, remaining // 10) weakest columns
    until such a step would pass k; that step is clamped to land on k, and
    the k survivors are refit. So one walk from all columns serves every k:
    each k branches off at the first state whose full step would pass it,
    reusing that state's fit, and costs one more fit unless it lies on the
    path. Each k gets the same fits, hence the same result, as a walk for
    that k alone.

    The Gram matrix of the standardized rows and an intercept is formed
    once per call. Every fit solves the normal equations on its sub-matrix,
    or takes fit_ols's minimum-norm lstsq when the fit has more columns than
    rows or the Cholesky of the sub-matrix fails or has a squared pivot ratio
    below PIVOT_RATIO_MIN (_ols_importance). A constant column is such a
    case, as it standardizes to zeros; transform.low_variance_filter drops it
    first.
    """
    ks = sorted(set(k_values))
    for k in ks:
        check_k(k, tbl.n_cols)
    y = _require_target(tbl, "rfe_select")
    rows = impute_and_standardize(tbl)[0].rows
    design = np.column_stack([rows, np.ones(tbl.n_rows)])
    gram, rhs = design.T @ design, design.T @ y
    names = tbl.column_names
    remaining = np.arange(tbl.n_cols)
    batches: list[tuple[np.ndarray, np.ndarray]] = []  # (columns, importances) per step
    results: dict[int, SelectionResult] = {}
    while ks:
        imp = _ols_importance(rows, y, gram, rhs, remaining)
        order = np.argsort(imp, kind="stable")  # weakest first
        n_left = remaining.size
        step = max(1, n_left // 10)
        while ks and ks[-1] > n_left - step:
            k = ks.pop()
            if k == n_left:
                results[k] = _rfe_result(names, remaining, imp, batches)
                continue
            drop, kept = _without(remaining, order[:n_left - k])
            results[k] = _rfe_result(
                names, kept, _ols_importance(rows, y, gram, rhs, kept),
                batches + [(remaining[drop], imp[drop])])
        if ks:
            drop, kept = _without(remaining, order[:step])
            batches.append((remaining[drop], imp[drop]))
            remaining = kept
    return results


def rfe_select(tbl: FeatureTable, k: int) -> SelectionResult:
    """Recursive elimination: refit OLS, drop the weakest-coefficient features,
    repeat until k remain. Step size adapts as max(1, remaining // 10).

    Ranking: survivors take ranks 1..k by final coefficient magnitude;
    eliminated features follow in reverse elimination order (last out ranks
    best), strongest first within a batch.
    """
    return rfe_path(tbl, [k])[k]


# ---------------------------------------------------------------------------
# importance threshold
# ---------------------------------------------------------------------------

def importance_select(tbl: FeatureTable, threshold: float = 0.0) -> SelectionResult:
    """Model-importance cutoff: lasso coefficients for regression targets,
    L2 logistic coefficients for class targets, each at alpha 0.01.

    Keeps importance >= threshold (the default 0 keeps everything).
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    y = _require_target(tbl, "importance_select")
    z, _ = impute_and_standardize(tbl)
    if tbl.classification:
        imp = fit_logistic(z.rows, _class_labels(tbl, "importance_select"),
                           alpha=0.01).importance()
    else:
        imp = fit_lasso(z.rows, y, alpha=0.01).importance()
    names = tbl.column_names
    _, ranking, scores = score_ranking(names, imp)
    return SelectionResult(tuple(n for n, v in zip(names, imp) if v >= threshold),
                           ranking, scores)


# ---------------------------------------------------------------------------
# MRMR
# ---------------------------------------------------------------------------

def _relevance(u: np.ndarray, tbl: FeatureTable) -> np.ndarray:
    """|pearson| against the target; >2 classes use the largest one-vs-rest
    |r|, all from one product."""
    y = tbl.target
    classes = np.unique(y)
    if tbl.classification and classes.size > 2:
        targets = (y[:, None] == classes).astype(np.float64)
    else:
        targets = y[:, None]
    return np.abs(pearson(u, standardize_columns(targets))).max(axis=1)


def mrmr_rank(tbl: FeatureTable, k: int) -> SelectionResult:
    """Greedy minimum-redundancy maximum-relevance forward selection.

    First pick maximizes relevance |corr(feature, target)| (with more than
    two classes, the largest one-vs-rest |corr|); each later pick maximizes
    relevance minus mean |corr| to everything already selected. Undefined
    correlations count as 0; ties resolve to the earliest column.

    Both correlations are products over the columns that differ up to sign
    (transform.distinct_columns), mapped back to every column. So exact,
    negated and power-of-two-scaled copies of a column get bit-equal scores
    wherever they sit, and the earliest copy wins the tie.
    """
    _require_target(tbl, "mrmr_rank")
    check_k(k, tbl.n_cols)
    u = impute_and_standardize(tbl)[0].rows
    first, group = distinct_columns(u)
    distinct = u[:, first]
    rel = _relevance(distinct, tbl)  # per distinct column, as is redundancy_sum
    selected: list[int] = []
    scores: dict[str, float] = {}
    redundancy_sum = np.zeros(first.size)
    available = np.ones(tbl.n_cols, dtype=bool)
    for _ in range(k):
        criterion = rel - redundancy_sum / len(selected) if selected else rel
        criterion = np.where(available, criterion[group], -np.inf)
        pick = int(np.argmax(criterion))  # argmax takes the first among ties
        selected.append(pick)
        available[pick] = False
        scores[tbl.column_names[pick]] = float(criterion[pick])
        redundancy_sum += np.abs(pearson(distinct, distinct[:, group[pick]]))
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
    if tbl.classification:
        y = _class_labels(tbl, "cv_score_curve")
        assignment = np.zeros(n, dtype=np.int64)
        for cls in np.unique(y):
            members = rng.permutation(np.flatnonzero(y == cls))
            assignment[members] = np.arange(members.size) % folds
        return [np.flatnonzero(assignment == f) for f in range(folds)]
    perm = rng.permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, folds)]


def _fold_score(train_z: np.ndarray, val_z: np.ndarray, y_train: np.ndarray,
                y_val: np.ndarray, estimator: str) -> float:
    """Fit on standardized training rows, score the standardized validation
    rows."""
    if estimator == "logistic":
        model = fit_logistic(train_z, y_train.astype(np.int64))
        return accuracy_score(y_val.astype(np.int64), model.predict(val_z))
    return r2_score(y_val, fit_ols(train_z, y_train).predict(val_z))


def ranked_prefixes(selector: Selector) -> SelectKs:
    """SelectKs for a selector whose top k is the first k of one ranking
    (anova_f, mrmr, importance): one run at the largest k, and each k keeps
    the first k columns in that run's ranking order, with its ranking and
    scores."""
    def select_ks(tbl: FeatureTable, k_values: list[int]) -> dict[int, SelectionResult]:
        full = selector(tbl, max(k_values))
        order = tuple(sorted(full.ranking, key=full.ranking.get))
        return {k: SelectionResult(order[:k], full.ranking, full.scores) for k in k_values}
    return select_ks


def cv_score_curve(
    tbl: FeatureTable,
    selector: Selector | None,
    estimator: str,
    k_values: list[int],
    folds: int,
    seed: int = 0,
    select_ks: SelectKs | None = None,
) -> list[CurvePoint]:
    """Mean/std validation score per requested feature count.

    Inside each fold the standardization and the selector see only training
    rows; the validation rows are standardized with the training parameters.
    Scores are accuracy for "logistic" and R^2 for "ols". run_analyze fits
    its label-free stages (low_variance, high_correlation, PCA, ICA) on
    every row before calling this: screening that never reads the target,
    which Hastie, Tibshirani & Friedman allow before the split (The Elements
    of Statistical Learning, 2nd ed., 7.10.2).

    Each fold is standardized once: impute_and_standardize of its training
    table, whose parameters are applied to the validation rows. The table
    caches that result, so the selector reads the same rows and fits no
    standardization of its own. Each k then scores column slices of those
    arrays. Standardization works column by column, so a slice holds exactly
    what standardizing only the chosen columns gives.

    select_ks, when given, selects for all of a fold's ks in one call (see
    ranked_prefixes and rfe_path) and selector is not used; otherwise
    selector runs once per (k, fold). Either way each k scores the columns
    that a selection at that k alone keeps.
    """
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if estimator not in ("logistic", "ols"):
        raise ValueError(f"unknown estimator {estimator!r}")
    y_all = _require_target(tbl, "cv_score_curve")
    if estimator == "logistic":
        y_all = _class_labels(tbl, "cv_score_curve").astype(np.float64)
    fold_idx = _fold_indices(tbl, folds, seed)
    if any(idx.size == 0 for idx in fold_idx):
        raise EmptyFold(f"{folds} folds leave an empty fold for {tbl.n_rows} rows")
    if k_values and min(k_values) < 1:
        raise InvalidK(f"k must be >= 1, got {min(k_values)}")
    if select_ks is None:
        def select_ks(train: FeatureTable, ks: list[int]) -> dict[int, SelectionResult]:
            return {k: selector(train, k) for k in ks}
    ks = [min(k, tbl.n_cols) for k in k_values]
    scores = np.empty((len(k_values), folds))
    for f, val_idx in enumerate(fold_idx):
        train_idx = np.concatenate([fold_idx[g] for g in range(folds) if g != f])
        train = tbl.select_rows(train_idx)
        train_std, params = impute_and_standardize(train)
        train_z = train_std.rows  # the rows the selector reads too
        val_z = standardize_columns(tbl.rows[val_idx], params)
        selected = select_ks(train, ks) if ks else {}
        for i, k in enumerate(ks):
            cols = [tbl.position[name] for name in selected[k].kept_columns]
            scores[i, f] = _fold_score(train_z[:, cols], val_z[:, cols],
                                       y_all[train_idx], y_all[val_idx], estimator)
    return [CurvePoint(int(k), float(row.mean()), float(row.std()))
            for k, row in zip(k_values, scores)]
