"""Plot-data exports: scatter with marginals and correlation heatmap."""

import numpy as np
import pytest

from voxfeat.errors import TooFewColumns
from voxfeat.mlpipe.table import FeatureTable
from voxfeat.mlpipe.viz import corr_heatmap_export, histogram_bins, scatter_export


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
        exp = scatter_export(t, "x", "y")
        assert exp.x_bins.edges.size == exp.y_bins.edges.size == 11
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

    def test_constant_x_with_missing_cells_gets_flat_fit(self):
        # the mean of the 28 observed 0.1 cells, imputed into the other two,
        # is an ulp off 0.1, so the filled column is a few ulps wide
        x = np.full(30, 0.1)
        x[[3, 17]] = np.nan
        y = np.random.default_rng(0).normal(size=30)
        exp = scatter_export(make(["x", "y"], np.column_stack([x, y])), "x", "y")
        assert np.ptp(exp.x) > 0
        assert exp.fit_slope == 0.0
        assert exp.fit_intercept == y.mean()


class TestHistogramBins:
    def test_ordinary_and_constant_columns_bin_as_numpy_does(self):
        rng = np.random.default_rng(3)
        for values in (rng.normal(size=50), rng.integers(0, 4, 30).astype(float),
                       np.full(20, 0.1), np.array([2.5])):
            bins = histogram_bins(values)
            counts, edges = np.histogram(values, bins=10)
            np.testing.assert_array_equal(bins.edges, edges)
            np.testing.assert_array_equal(bins.counts, counts)

    def test_range_a_few_ulps_wide(self):
        values = np.full(40, 0.1)
        values[7] = np.nextafter(0.1, 1.0)
        values[9] = np.nan
        bins = histogram_bins(values)
        assert bins.edges[0] == 0.1 - 0.5 and bins.edges[-1] == values[7] + 0.5
        assert np.all(np.diff(bins.edges) > 0) and bins.counts.sum() == 39

    def test_constant_beyond_half_an_ulp_pad(self):
        # at 1e15 an ulp is 0.125, so +-0.5 spans only 8 ulps; numpy's own
        # rule raises there
        for value in (1e15, -1e17, 1e300):
            bins = histogram_bins(np.full(12, value))
            assert np.all(np.diff(bins.edges) > 0) and bins.counts.sum() == 12
            assert bins.edges[0] < value < bins.edges[-1]


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
