"""SVG rendering: well-formed, self-contained, deterministic markup."""

from __future__ import annotations

import hashlib
import math
import re
import xml.etree.ElementTree as ET

import numpy as np

from voxfeat.mlpipe.select import CurvePoint
from voxfeat.mlpipe.table import FeatureTable
from voxfeat.mlpipe.viz import HeatmapExport, corr_heatmap_export, scatter_export
from voxfeat.config import config_from_dict
from voxfeat.pipeline import run_analyze
from voxfeat.svgplot import _diverging, curve_svg, heatmap_svg, scatter_svg


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


def ulp_csv(path):
    """A 0/1 target, a normal column shifted by it, and a 0.1 column with
    one cell an ulp above: a kept column only an ulp wide."""
    rng = np.random.default_rng(0)
    y = np.arange(40) % 2
    f0 = rng.normal(size=40) + y
    ulp = np.full(40, 0.1)
    ulp[7] = np.nextafter(0.1, 1.0)
    lines = ["row_id,f0,f1,target"]
    lines += [f"r{i},{float(f0[i])!r},{float(ulp[i])!r},{y[i]}" for i in range(40)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestScatterOnCanvas:
    def test_ulp_wide_column_draws_every_bar_and_point_on_the_canvas(self, tmp_path):
        ulp_csv(tmp_path / "ulp.csv")
        run_analyze(tmp_path / "ulp.csv", tmp_path / "out", config_from_dict({}))
        root = ET.fromstring((tmp_path / "out" / "scatter.svg").read_text())
        width, height = float(root.get("width")), float(root.get("height"))
        ns = "{http://www.w3.org/2000/svg}"
        rects = root.findall(f"{ns}rect")
        circles = root.findall(f"{ns}circle")
        assert len(rects) > 2 and len(circles) == 40
        for rect in rects:
            x, y = float(rect.get("x")), float(rect.get("y"))
            w, h = float(rect.get("width")), float(rect.get("height"))
            assert 0 <= x <= x + w <= width and 0 <= y <= y + h <= height, rect.attrib
        for circle in circles:
            assert 0 <= float(circle.get("cx")) <= width, circle.attrib
            assert 0 <= float(circle.get("cy")) <= height, circle.attrib


def reference_colour(r):
    """The scalar blue -> white -> red rule the array colours replaced."""
    r = max(-1.0, min(1.0, r if math.isfinite(r) else 0.0))
    white, blue, red = (247, 247, 247), (33, 102, 172), (178, 24, 43)
    a, b, frac = (white, blue, -r) if r < 0 else (white, red, r)
    rgb = tuple(round(a[i] + (b[i] - a[i]) * frac) for i in range(3))
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


class TestHeatmapColours:
    def test_match_the_scalar_rule(self):
        grid = np.linspace(-1.0, 1.0, 200_001)
        # NaN, +-inf, out of range, and fractions whose odd channel steps land
        # exactly half-way between integers (rounded half to even)
        extra = [np.nan, np.inf, -np.inf, -0.0, 1.5, -1.5, 1e300, -1e-300,
                 np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0),
                 0.5, -0.5, 0.25, -0.25, 0.75, -0.75, 0.125, -0.125]
        values = np.concatenate([grid, extra]).reshape(-1, 1)
        got = [row[0] for row in _diverging(values)]
        assert got == [reference_colour(v) for v in values[:, 0].tolist()]

    def test_two_dimensional_layout(self):
        values = np.array([[-1.0, 0.0, 1.0], [np.nan, 0.5, -0.5]])
        assert _diverging(values) == [[reference_colour(v) for v in row]
                                      for row in values.tolist()]


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
        assert len(svg) == 5210
        assert hashlib.sha256(svg).hexdigest() == (
            "e41b8696218675d42ffc593822039ed39145b5eaa82541cc8c44970fcedf68c4")

    def test_values_that_round_to_zero_print_unsigned(self):
        # -0.0004999 and an r of -1e-17 (a sign an ulp of rounding can flip)
        # print as 0.000; -0.0005 is stored just past the half-way point, so
        # it rounds away from zero. Every other value prints as %.3f does.
        zeros = [-0.0, -1e-17, -0.0004999, 0.0004999, 1e-300]
        others = [-0.0005, 0.0005, -0.0015, 0.1235, -0.9995, 1.0, np.nan, -np.inf]
        values = zeros + others
        exp = HeatmapExport(tuple(f"f{j}" for j in range(len(values))),
                            np.tile(values, (len(values), 1)))
        tips = re.findall(r"<title>f0 / f\d+: ([^<]*)</title>", heatmap_svg(exp))
        assert tips == ["0.000"] * len(zeros) + [f"{v:.3f}" for v in others]


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
