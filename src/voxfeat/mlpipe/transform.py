"""Filters and linear transformations: the Pearson rule, variance and
correlation filters, PCA and FastICA-style ICA.

Every routine works on an imputed+standardized copy of the table (variance
filtering uses raw variances, which standardizing would erase) and reports
original column names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceFailure, InvalidK, TooFewColumns
from .table import FeatureTable, impute_and_standardize, impute_only


@dataclass(frozen=True)
class SelectionResult:
    """kept_columns in kept order; ranking 1 = best over all ranked names."""

    kept_columns: tuple[str, ...]
    ranking: dict[str, int]
    scores: dict[str, float]

    def __post_init__(self) -> None:
        ranks = list(self.ranking.values())
        if len(set(ranks)) != len(ranks):
            raise ValueError("ranks must be unique")
        if not set(self.kept_columns) <= set(self.ranking):
            raise ValueError("kept columns must be ranked")


def _result_from_partition(
    kept: list[str], dropped: list[str], scores: dict[str, float]
) -> SelectionResult:
    ranking = {name: i + 1 for i, name in enumerate(kept + dropped)}
    return SelectionResult(tuple(kept), ranking, scores)


def low_variance_filter(tbl: FeatureTable, threshold: float = 0.0) -> SelectionResult:
    """Drop columns whose raw population variance is <= threshold.

    Variance is measured after imputation but before any scaling; an
    all-NaN column has variance 0 and is always dropped.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    filled = impute_only(tbl)
    variances = filled.rows.var(axis=0) if tbl.n_rows else np.zeros(tbl.n_cols)
    scores = {name: float(variances[j]) for j, name in enumerate(tbl.column_names)}
    kept = [n for j, n in enumerate(tbl.column_names) if variances[j] > threshold]
    dropped = [n for j, n in enumerate(tbl.column_names) if variances[j] <= threshold]
    order = sorted(
        tbl.column_names, key=lambda n: (-scores[n], tbl.column_names.index(n))
    )
    ranking = {name: i + 1 for i, name in enumerate(order)}
    return SelectionResult(tuple(kept), ranking, scores)


def unit_columns(x: np.ndarray) -> np.ndarray:
    """Columns of an imputed (NaN-free) array, centred and scaled to unit
    population variance. A column with no spread becomes zeros, so it
    correlates 0 with everything; this includes a constant column whose
    rounded mean differs from its value."""
    n = max(x.shape[0], 1)
    centred = x - x.sum(axis=0) / n
    scale = np.sqrt((centred * centred).sum(axis=0) / n)
    live = (scale > 0) & np.any(x != x[:1], axis=0)
    return np.divide(centred, scale, out=np.zeros_like(centred), where=live)


def pearson(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pearson r of each column of u against the column v, both from
    unit_columns, clipped to [-1, 1].

    The products are summed in row order, so equal columns get equal r
    wherever they sit; a BLAS product rounds by position and would break
    exact ties.
    """
    return np.clip((u * v[:, None]).sum(axis=0) / max(v.size, 1), -1.0, 1.0)


def correlation_matrix(tbl: FeatureTable) -> np.ndarray:
    """Pearson matrix with exact unit diagonal; constant columns correlate 0."""
    u = unit_columns(impute_only(tbl).rows)
    corr = np.empty((tbl.n_cols, tbl.n_cols))
    for j in range(tbl.n_cols):
        corr[j:, j] = corr[j, j:] = pearson(u[:, j:], u[:, j])
    np.fill_diagonal(corr, 1.0)
    return corr


def high_correlation_filter(tbl: FeatureTable, threshold: float = 0.95) -> SelectionResult:
    """Greedy column-order scan: drop a column when it correlates above the
    threshold (absolute pearson) with any column already retained, so the
    earliest member of each correlated group survives."""
    if tbl.n_cols < 2:
        raise TooFewColumns(f"correlation filter needs >= 2 columns, got {tbl.n_cols}")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    corr = np.abs(correlation_matrix(tbl))
    kept_idx: list[int] = []
    kept: list[str] = []
    dropped: list[str] = []
    scores: dict[str, float] = {}
    for j, name in enumerate(tbl.column_names):
        against = corr[j, kept_idx] if kept_idx else np.zeros(0)
        worst = float(against.max()) if against.size else 0.0
        scores[name] = worst
        if worst > threshold:
            dropped.append(name)
        else:
            kept_idx.append(j)
            kept.append(name)
    return _result_from_partition(kept, dropped, scores)


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PcaResult:
    transformed: FeatureTable
    components: np.ndarray  # (k, n_cols) rows are orthonormal
    explained_variance_ratio: np.ndarray
    component_variances: np.ndarray  # population variance of each score column


def pca(tbl: FeatureTable, k: int) -> PcaResult:
    """Top-k principal components of the standardized table."""
    if not 1 <= k <= min(tbl.n_rows, tbl.n_cols):
        raise InvalidK(f"k must be in [1, {min(tbl.n_rows, tbl.n_cols)}], got {k}")
    z, _ = impute_and_standardize(tbl)
    u, s, vt = np.linalg.svd(z.rows, full_matrices=False)
    total = float((s ** 2).sum())
    # sign convention: the largest-magnitude loading of each component is positive
    lead = vt[np.arange(k), np.argmax(np.abs(vt[:k]), axis=1)]
    components = vt[:k] * np.where(lead < 0, -1.0, 1.0)[:, None]
    scores = z.rows @ components.T
    ratio = (s[:k] ** 2) / total if total > 0 else np.zeros(k)
    variances = (s[:k] ** 2) / max(tbl.n_rows, 1)
    names = tuple(f"pc{i + 1}" for i in range(k))
    transformed = FeatureTable(names, scores, tbl.row_ids, tbl.target)
    return PcaResult(transformed, components, ratio, variances)


# ---------------------------------------------------------------------------
# ICA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IcaResult:
    transformed: FeatureTable
    unmixing: np.ndarray  # (k, k) applied to the whitened data
    converged: bool
    n_iter: int


def _sym_decorrelate(w: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(w @ w.T)
    vals = np.maximum(vals, 1e-12)
    return (vecs * (1.0 / np.sqrt(vals))) @ vecs.T @ w


def ica(
    tbl: FeatureTable,
    k: int,
    max_iter: int = 500,
    tol: float = 1e-6,
) -> IcaResult:
    """FastICA with log-cosh contrast and symmetric decorrelation.

    Data is whitened through PCA first; the unmixing matrix starts from the
    identity, so runs are reproducible without randomness. Non-convergence
    within max_iter is reported via the flag; a numerically exploding
    iteration raises ConvergenceFailure.
    """
    if not 1 <= k <= min(tbl.n_rows, tbl.n_cols):
        raise InvalidK(f"k must be in [1, {min(tbl.n_rows, tbl.n_cols)}], got {k}")
    z, _ = impute_and_standardize(tbl)
    u, s, vt = np.linalg.svd(z.rows, full_matrices=False)
    n = tbl.n_rows
    # whitened components, unit population variance, shape (k, n)
    scale = np.where(s[:k] > 0, s[:k], 1.0)
    white = (z.rows @ vt[:k].T / scale[None, :] * np.sqrt(n)).T

    w = np.eye(k)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        y = w @ white
        g = np.tanh(y)
        g_prime = 1.0 - g ** 2
        w_new = (g @ white.T) / n - np.diag(g_prime.mean(axis=1)) @ w
        w_new = _sym_decorrelate(w_new)
        if not np.all(np.isfinite(w_new)):
            raise ConvergenceFailure(f"ICA diverged at iteration {iterations}")
        # rows may flip sign between iterations; align before measuring change
        signs = np.sign(np.sum(w_new * w, axis=1))
        signs[signs == 0] = 1.0
        change = float(np.max(np.abs(w_new - signs[:, None] * w)))
        w = w_new
        if change < tol:
            converged = True
            break
    sources = (w @ white).T
    names = tuple(f"ic{i + 1}" for i in range(k))
    transformed = FeatureTable(names, sources, tbl.row_ids, tbl.target)
    return IcaResult(transformed, w, converged, iterations)
