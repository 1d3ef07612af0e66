"""SVG rendering: well-formed, self-contained, deterministic markup."""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET

import numpy as np

from voxfeat.mlpipe import (
    CurvePoint,
    FeatureTable,
    HeatmapExport,
    corr_heatmap_export,
    scatter_export,
)
from voxfeat.svgplot import curve_svg, heatmap_svg, scatter_svg


def table(seed=0, n=40):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    rows = np.column_stack([x, 2.0 * x + rng.standard_normal(n) * 0.3,
                            rng.standard_normal(n)])
    return FeatureTable(("alpha", "beta", "gamma"), rows,
                        tuple(f"r{i}" for i in range(n)))


def assert_self_contained(svg: str):
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert 'xmlns="http://www.w3.org/2000/svg"' in svg
    body = svg.replace('xmlns="http://www.w3.org/2000/svg"', "")
    for banned in ("http://", "https://", "url(", "<image", "<script",
                   "@import", "href="):
        assert banned not in body, banned
    # a parseable document has balanced, well-nested tags
    ET.fromstring(svg)


class TestScatter:
    def test_well_formed_and_self_contained(self):
        svg = scatter_svg(scatter_export(table(), "alpha", "beta"))
        assert_self_contained(svg)

    def test_deterministic(self):
        exp = scatter_export(table(3), "alpha", "gamma")
        assert scatter_svg(exp) == scatter_svg(exp)

    def test_draws_every_point(self):
        exp = scatter_export(table(1, n=25), "alpha", "beta")
        svg = scatter_svg(exp)
        assert svg.count("<circle") >= 25

    def test_axis_labels_escaped(self):
        tbl = FeatureTable(("a<b", "c&d"), np.arange(8.0).reshape(4, 2),
                           ("p", "q", "r", "s"))
        svg = scatter_svg(scatter_export(tbl, "a<b", "c&d"))
        assert_self_contained(svg)
        assert "a&lt;b" in svg
        assert "c&amp;d" in svg


class TestHeatmap:
    def test_well_formed_and_self_contained(self):
        svg = heatmap_svg(corr_heatmap_export(table()))
        assert_self_contained(svg)

    def test_one_tooltip_per_cell(self):
        exp = corr_heatmap_export(table())
        svg = heatmap_svg(exp)
        assert svg.count("<title>") == len(exp.names) ** 2

    def test_deterministic(self):
        exp = corr_heatmap_export(table(5))
        assert heatmap_svg(exp) == heatmap_svg(exp)

    def test_bytes_pinned(self):
        """NaN, +-inf, +-1, -0.0, a value past 1 and names that need
        escaping render to pinned bytes: a color shared by equal values and
        a name escaped once per heatmap change nothing in the output."""
        names = ("a<b", "c&d", 'say "hi"', "plain", "x>y&z")
        matrix = np.array([
            [1.0, -1.0, np.nan, 0.25, -0.0004],
            [-1.0, 1.0, 0.5, -0.333, np.inf],
            [np.nan, 0.5, 1.0, 1.5, -0.0],
            [0.25, -0.333, 1.5, 1.0, 0.999],
            [-0.0004, -np.inf, -0.0, 0.999, 1.0],
        ])
        svg = heatmap_svg(HeatmapExport(names, matrix)).encode()
        assert len(svg) == 5214
        assert hashlib.sha256(svg).hexdigest() == (
            "5e6cabb1701bd72e62785266f27870829770bcc3cc94c8385d97c6b0a14b4dc4")


class TestCurve:
    def test_well_formed_and_self_contained(self):
        points = [CurvePoint(1, 0.70, 0.05), CurvePoint(2, 0.85, 0.03),
                  CurvePoint(5, 0.90, 0.02)]
        svg = curve_svg(points, "accuracy")
        assert_self_contained(svg)
        assert svg.count("<circle") == 3

    def test_single_point(self):
        assert_self_contained(curve_svg([CurvePoint(3, 0.5, 0.0)], "R^2"))

    def test_deterministic(self):
        points = [CurvePoint(1, 0.2, 0.1), CurvePoint(4, 0.4, 0.0)]
        assert curve_svg(points, "accuracy") == curve_svg(points, "accuracy")
