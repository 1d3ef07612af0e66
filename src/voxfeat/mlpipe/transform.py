"""Filters and linear transformations: the Pearson rule, variance and
correlation filters, PCA and FastICA-style ICA.

Every routine works on the table standardized by table.fit_columns' rule
(variance filtering reads that rule's std before scaling) and reports
original column names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConvergenceFailure, InvalidK, TooFewColumns
from .table import FeatureTable, fit_columns, impute_and_standardize


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


def score_ranking(names: tuple[str, ...], scores: np.ndarray
                  ) -> tuple[list[str], dict[str, int], dict[str, float]]:
    """The names from highest to lowest score, each name's rank (1 = highest)
    and each name's score. A stable sort keeps column order among exact ties."""
    order = [names[i] for i in np.argsort(-scores, kind="stable")]
    return order, {name: r + 1 for r, name in enumerate(order)}, dict(zip(names, scores.tolist()))


def check_k(k: int, limit: int) -> None:
    """The one k-range check of the selectors and transforms."""
    if not 1 <= k <= limit:
        raise InvalidK(f"k must be in [1, {limit}], got {k}")


def low_variance_filter(tbl: FeatureTable, threshold: float = 0.0) -> SelectionResult:
    """Drop columns whose population variance under the standardization rule
    (table.fit_columns: after imputation, before scaling) is <= threshold.
    A column whose observed cells are all equal, all-NaN included, has
    variance 0, so the default threshold drops every constant column."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    variances = fit_columns(tbl.rows).stds ** 2
    names = tbl.column_names
    _, ranking, scores = score_ranking(names, variances)
    return SelectionResult(tuple(n for n, v in zip(names, variances) if v > threshold),
                           ranking, scores)


def pearson(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Pearson r of each column of u against t, both standardized by
    table.standardize_columns over the same rows: one product u.T @ t / n,
    clipped to [-1, 1]. t is one column (r per column of u) or an array of
    them (a row of r per column of u). A constant column is zeros, so it
    correlates 0 with everything.

    A BLAS product rounds each entry by its position in the arrays, so two
    equal columns of u can get r an ulp apart. Where exact ties matter, take
    the product over the columns distinct_columns picks and map it back.
    """
    return np.clip(u.T @ t / max(u.shape[0], 1), -1.0, 1.0)


def distinct_columns(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first of each group of columns of u that are equal up to sign,
    and each column's group, so that u[:, first][:, group] equals u up to
    sign.

    standardize_columns maps exact, negated and power-of-two-scaled copies
    of a column (missing cells included) to bit-equal columns up to sign; other
    scales round differently and are distinct. So |pearson| over the
    first columns, indexed by group, gives every copy bit-equal |r|
    wherever it sits. Each column is keyed by its bytes after flipping it
    so that its first nonzero entry is positive; adding 0.0 turns the
    flipped zeros' -0.0 into 0.0.
    """
    flip = np.zeros(u.shape[1], dtype=bool)
    if u.shape[0]:
        flip = u[np.argmax(u != 0, axis=0), np.arange(u.shape[1])] < 0
    keys = np.ascontiguousarray(np.where(flip, -u, u).T) + 0.0
    groups: dict[bytes, int] = {}
    group = np.array([groups.setdefault(key.tobytes(), len(groups)) for key in keys],
                     dtype=np.intp)
    return np.unique(group, return_index=True)[1], group


def correlation_matrix(tbl: FeatureTable) -> np.ndarray:
    """Pearson matrix of the standardized columns from one product, with an
    exact unit diagonal; a constant column correlates 0 with every other.
    numpy forms u.T @ u as one symmetric product (BLAS syrk, one triangle
    mirrored), so the matrix is exactly symmetric."""
    u = impute_and_standardize(tbl)[0].rows
    corr = pearson(u, u)
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
    kept = np.zeros(tbl.n_cols, dtype=bool)  # only columns before j are ever set
    worst = np.zeros(tbl.n_cols)
    for j in range(tbl.n_cols):
        worst[j] = corr[j, kept].max(initial=0.0)
        kept[j] = not worst[j] > threshold  # a NaN correlation keeps the column
    names = tbl.column_names
    kept_names = [n for n, k in zip(names, kept) if k]
    order = kept_names + [n for n, k in zip(names, kept) if not k]
    return SelectionResult(tuple(kept_names), {name: i + 1 for i, name in enumerate(order)},
                           dict(zip(names, worst.tolist())))


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PcaResult:
    transformed: FeatureTable
    components: np.ndarray  # (k, n_cols) rows are orthonormal
    explained_variance_ratio: np.ndarray


def pca(tbl: FeatureTable, k: int) -> PcaResult:
    """Top-k principal components of the standardized table."""
    check_k(k, min(tbl.n_rows, tbl.n_cols))
    z, _ = impute_and_standardize(tbl)
    u, s, vt = np.linalg.svd(z.rows, full_matrices=False)
    total = float((s ** 2).sum())
    # sign convention: the largest-magnitude loading of each component is positive
    lead = vt[np.arange(k), np.argmax(np.abs(vt[:k]), axis=1)]
    components = vt[:k] * np.where(lead < 0, -1.0, 1.0)[:, None]
    scores = z.rows @ components.T
    ratio = (s[:k] ** 2) / total if total > 0 else np.zeros(k)
    names = tuple(f"pc{i + 1}" for i in range(k))
    transformed = replace(tbl, column_names=names, rows=scores)
    return PcaResult(transformed, components, ratio)


# ---------------------------------------------------------------------------
# ICA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IcaResult:
    transformed: FeatureTable
    unmixing: np.ndarray  # (k, k) applied to the whitened data
    converged: bool
    n_iter: int


def ica(
    tbl: FeatureTable,
    k: int,
    max_iter: int = 500,
    tol: float = 1e-6,
) -> IcaResult:
    """FastICA with log-cosh contrast and symmetric decorrelation.

    Data is whitened through PCA first; the unmixing matrix starts from the
    identity, so runs are reproducible without randomness. The iteration
    converges when no entry of the unmixing matrix moves by tol or more
    (rows aligned in sign). It stops unconverged at max_iter, or earlier
    when an iterate comes back within tol of the one two steps before while
    still moving by over sqrt(tol) per step: a period-2 cycle, which more
    iterations would only repeat. A numerically exploding iteration raises
    ConvergenceFailure.
    """
    check_k(k, min(tbl.n_rows, tbl.n_cols))
    z, _ = impute_and_standardize(tbl)
    u, s, vt = np.linalg.svd(z.rows, full_matrices=False)
    n = tbl.n_rows
    # whitened components, unit population variance, shape (k, n)
    scale = np.where(s[:k] > 0, s[:k], 1.0)
    white = (z.rows @ vt[:k].T / scale[None, :] * np.sqrt(n)).T

    # One step: g = tanh(w @ white), w+ = g @ white.T / n - mean(1 - g^2) * w
    # row by row, then symmetric decorrelation w+ <- (w+ w+^T)^(-1/2) w+, its
    # eigenvalues floored at 1e-12. g and 1 - g^2 live in two buffers that
    # every step reuses.
    g = np.empty((k, n))
    g_prime = np.empty((k, n))
    w = np.eye(k)
    w_before = None  # the iterate before w
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        np.tanh(np.matmul(w, white, out=g), out=g)
        np.subtract(1.0, np.multiply(g, g, out=g_prime), out=g_prime)
        w_new = (g @ white.T) / n - (np.add.reduce(g_prime, axis=1) / n)[:, None] * w
        vals, vecs = np.linalg.eigh(w_new @ w_new.T)
        w_new = (vecs * (1.0 / np.sqrt(np.maximum(vals, 1e-12)))) @ vecs.T @ w_new
        # the largest entry change, after flipping each row of w to the sign
        # of w_new's (rows may flip between iterations)
        signs = np.where(np.add.reduce(w_new * w, axis=1) < 0, -1.0, 1.0)
        step = float(np.abs(w_new - signs[:, None] * w).max())
        if not math.isfinite(step):  # a non-finite w_new gives a non-finite step
            raise ConvergenceFailure(f"ICA diverged at iteration {iterations}")
        converged = step < tol
        # a period-2 cycle: back within tol of the iterate before w while a
        # step still moves it by over sqrt(tol). An oscillation that converges
        # at ratio -r per step moves that far only when 1 - r < sqrt(tol),
        # thousands of steps from converging. Two steps undo a row's sign
        # flip at each step, so this comparison needs no alignment.
        cycling = (w_before is not None and step > math.sqrt(tol)
                   and float(np.abs(w_new - w_before).max()) < tol)
        w_before, w = w, w_new
        if converged or cycling:
            break
    sources = (w @ white).T
    names = tuple(f"ic{i + 1}" for i in range(k))
    transformed = replace(tbl, column_names=names, rows=sources)
    return IcaResult(transformed, w, converged, iterations)
