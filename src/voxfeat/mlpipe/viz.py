"""Plot-ready data exports: scatter with marginals and correlation heatmap.
These are plain data structures; SVG rendering lives in svgplot."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TooFewColumns
from .model import fit_ols
from .table import FeatureTable, impute_only
from .transform import correlation_matrix


@dataclass(frozen=True)
class HistogramBins:
    edges: np.ndarray  # length n_bins + 1
    counts: np.ndarray  # length n_bins


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


def histogram_bins(values: np.ndarray, n_bins: int = 10) -> HistogramBins:
    counts, edges = np.histogram(values[~np.isnan(values)], bins=n_bins)
    return HistogramBins(edges, counts)


def scatter_export(tbl: FeatureTable, x_name: str, y_name: str,
                   n_bins: int = 10) -> ScatterExport:
    filled = impute_only(tbl)
    x = filled.column(x_name)
    y = filled.column(y_name)
    if x.size >= 2 and x.std() > 0:
        model = fit_ols(x[:, None], y)
        slope, intercept = float(model.coef[0]), model.intercept
    else:
        slope, intercept = 0.0, float(y.mean()) if y.size else 0.0
    return ScatterExport(
        x_name, y_name, x, y, slope, intercept,
        histogram_bins(x, n_bins), histogram_bins(y, n_bins),
    )


def corr_heatmap_export(tbl: FeatureTable) -> HeatmapExport:
    if tbl.n_cols < 2:
        raise TooFewColumns(f"heatmap needs >= 2 columns, got {tbl.n_cols}")
    return HeatmapExport(tbl.column_names, correlation_matrix(tbl))
