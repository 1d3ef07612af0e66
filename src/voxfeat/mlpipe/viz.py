"""Plot-ready data exports: scatter with marginals and correlation heatmap.
These are plain data structures; SVG rendering lives in svgplot."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TooFewColumns
from .model import fit_ols
from .table import FeatureTable, fit_columns
from .transform import correlation_matrix

HISTOGRAM_BINS = 10  # bins of each marginal histogram


@dataclass(frozen=True)
class HistogramBins:
    edges: np.ndarray  # length HISTOGRAM_BINS + 1
    counts: np.ndarray  # length HISTOGRAM_BINS


@dataclass(frozen=True)
class ScatterExport:
    x_name: str
    y_name: str
    x: np.ndarray
    y: np.ndarray
    fit_slope: float
    fit_intercept: float
    x_bins: HistogramBins
    y_bins: HistogramBins


@dataclass(frozen=True)
class HeatmapExport:
    names: tuple[str, ...]
    matrix: np.ndarray  # pearson r, diagonal exactly 1


def padded_span(lo: float, hi: float, n: int) -> tuple[float, float]:
    """[lo, hi] when it can hold n equal intervals with distinct edges. A
    narrower range (a constant one, or one a few ulps wide) pads to
    [lo - 0.5, hi + 0.5], as numpy's own rule for a constant column does, or
    by n ulps either side where 0.5 is fewer (values from 2^48 up, for 10)."""
    if np.any(np.diff(np.linspace(lo, hi, n + 1)) <= 0):
        pad = max(0.5, n * float(np.spacing(max(abs(lo), abs(hi)))))
        return lo - pad, hi + pad
    return lo, hi


def histogram_bins(values: np.ndarray) -> HistogramBins:
    """HISTOGRAM_BINS equal bins over padded_span of the non-NaN values."""
    values = values[~np.isnan(values)]
    span = padded_span(values.min(), values.max(), HISTOGRAM_BINS) if values.size else None
    counts, edges = np.histogram(values, bins=HISTOGRAM_BINS, range=span)
    return HistogramBins(edges, counts)


def scatter_export(tbl: FeatureTable, x_name: str, y_name: str) -> ScatterExport:
    """The two columns imputed by table.fit_columns' rule, their histograms
    and the OLS line of y on x, flat at y's mean where the rule finds x constant."""
    rows = tbl.rows[:, [tbl.position[x_name], tbl.position[y_name]]]
    params = fit_columns(rows)
    x, y = np.where(np.isnan(rows), params.means, rows).T
    if params.stds[0] > 0:
        model = fit_ols(x[:, None], y)
        slope, intercept = float(model.coef[0]), model.intercept
    else:
        slope, intercept = 0.0, float(y.mean()) if y.size else 0.0
    return ScatterExport(x_name, y_name, x, y, slope, intercept,
                         histogram_bins(x), histogram_bins(y))


def corr_heatmap_export(tbl: FeatureTable) -> HeatmapExport:
    if tbl.n_cols < 2:
        raise TooFewColumns(f"heatmap needs >= 2 columns, got {tbl.n_cols}")
    return HeatmapExport(tbl.column_names, correlation_matrix(tbl))
