"""Plot-data exports: scatter with marginals and correlation heatmap."""

import numpy as np
import pytest

from voxfeat.errors import TooFewColumns
from voxfeat.mlpipe import (
    FeatureTable,
    corr_heatmap_export,
    scatter_export,
)


def make(cols, data, target=None):
    data = np.asarray(data, dtype=np.float64)
    ids = tuple(f"r{i}" for i in range(data.shape[0]))
    return FeatureTable(tuple(cols), data, ids, target)


class TestScatter:
    def test_fit_line_on_exact_relationship(self):
        x = np.linspace(-2.0, 3.0, 25)
        t = make(["x", "y"], np.column_stack([x, 2.0 * x + 1.0]))
        exp = scatter_export(t, "x", "y")
        assert exp.fit_slope == pytest.approx(2.0, abs=1e-9)
        assert exp.fit_intercept == pytest.approx(1.0, abs=1e-9)

    def test_histogram_bins_cover_all_points(self):
        rng = np.random.default_rng(0)
        t = make(["x", "y"], rng.normal(size=(50, 2)))
        exp = scatter_export(t, "x", "y", n_bins=8)
        assert exp.x_bins.edges.size == 9
        assert exp.x_bins.counts.sum() == 50
        assert exp.y_bins.counts.sum() == 50

    def test_nan_values_are_imputed(self):
        t = make(["x", "y"], [[0.0, 0.0], [np.nan, 2.0], [2.0, 4.0]])
        exp = scatter_export(t, "x", "y")
        assert np.all(np.isfinite(exp.x))

    def test_constant_x_gets_flat_fit(self):
        t = make(["x", "y"], [[1.0, 3.0], [1.0, 5.0]])
        exp = scatter_export(t, "x", "y")
        assert exp.fit_slope == 0.0
        assert exp.fit_intercept == pytest.approx(4.0)


class TestHeatmap:
    def test_diagonal_exactly_one(self):
        rng = np.random.default_rng(5)
        t = make(["a", "b", "c"], rng.normal(size=(20, 3)))
        exp = corr_heatmap_export(t)
        assert np.all(np.diag(exp.matrix) == 1.0)
        assert exp.names == ("a", "b", "c")

    def test_needs_two_columns(self):
        with pytest.raises(TooFewColumns):
            corr_heatmap_export(make(["a"], np.zeros((4, 1))))
