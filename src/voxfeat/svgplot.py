"""Static SVG renderings of the plot-data exports.

Every function returns a complete, self-contained SVG document string:
presentation is carried by element attributes only, with no external
assets, fonts, or stylesheet links, so the files open anywhere.
"""

from __future__ import annotations

import math

import numpy as np

from .mlpipe.select import CurvePoint
from .mlpipe.viz import HeatmapExport, ScatterExport, padded_span

_FONT = "font-family=\"sans-serif\""
_POINT_FILL = "#4477aa"
_LINE_STROKE = "#cc3311"
_BAR_FILL = "#88a8cc"
_AXIS = "#444444"


def _fmt(x: float) -> str:
    """Compact fixed-point number formatting, stable across runs."""
    if not math.isfinite(x):
        return "0"
    text = f"{x:.2f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def _fmt_tick(x: float) -> str:
    if x != 0 and (abs(x) >= 10000 or abs(x) < 0.01):
        return f"{x:.2e}"
    return f"{x:.4g}"


def _svg_open(width: int, height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" {_FONT} '
        f'font-size="14" fill="#111111">{_escape(title)}</text>',
    ]


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


class _Scale:
    """Linear data -> pixel mapping with a padded domain.

    The domain is padded_span of the finite values with the given number of
    intervals (the scatter passes its bin count, so its bars and points share
    one span rule), then widened by 5 % each side."""

    def __init__(self, values: np.ndarray, out_lo: float, out_hi: float,
                 intervals: int = 4):
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            lo, hi = 0.0, 1.0
        else:
            lo, hi = padded_span(float(finite.min()), float(finite.max()), intervals)
            pad = 0.05 * (hi - lo)
            lo, hi = lo - pad, hi + pad
        self.lo, self.hi = lo, hi
        self.out_lo, self.out_hi = out_lo, out_hi

    def __call__(self, v: float) -> float:
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.out_lo + frac * (self.out_hi - self.out_lo)

    def ticks(self, n: int = 5) -> list[float]:
        return [self.lo + i * (self.hi - self.lo) / (n - 1) for i in range(n)]


def _axes(parts: list[str], xs: _Scale, ys: _Scale, x_label: str, y_label: str) -> None:
    x0, x1 = xs.out_lo, xs.out_hi
    y0, y1 = ys.out_lo, ys.out_hi  # y0 = bottom pixel (larger), y1 = top
    parts.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" '
                 f'y2="{_fmt(y0)}" stroke="{_AXIS}" stroke-width="1"/>')
    parts.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" '
                 f'y2="{_fmt(y1)}" stroke="{_AXIS}" stroke-width="1"/>')
    for tx in xs.ticks():
        px = xs(tx)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(y0)}" x2="{_fmt(px)}" '
                     f'y2="{_fmt(y0 + 4)}" stroke="{_AXIS}" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{_fmt(y0 + 16)}" text-anchor="middle" '
                     f'{_FONT} font-size="10" fill="{_AXIS}">{_fmt_tick(tx)}</text>')
    for ty in ys.ticks():
        py = ys(ty)
        parts.append(f'<line x1="{_fmt(x0 - 4)}" y1="{_fmt(py)}" x2="{_fmt(x0)}" '
                     f'y2="{_fmt(py)}" stroke="{_AXIS}" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(x0 - 6)}" y="{_fmt(py + 3)}" text-anchor="end" '
                     f'{_FONT} font-size="10" fill="{_AXIS}">{_fmt_tick(ty)}</text>')
    parts.append(f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(y0 + 32)}" '
                 f'text-anchor="middle" {_FONT} font-size="12" '
                 f'fill="#111111">{_escape(x_label)}</text>')
    parts.append(f'<text x="14" y="{_fmt((y0 + y1) / 2)}" text-anchor="middle" '
                 f'{_FONT} font-size="12" fill="#111111" '
                 f'transform="rotate(-90 14 {_fmt((y0 + y1) / 2)})">'
                 f'{_escape(y_label)}</text>')


def scatter_svg(exp: ScatterExport) -> str:
    """Scatter cloud with an OLS fit line and marginal histograms."""
    width, height = 720, 560
    left, right, top, bottom = 60, 30, 110, 50
    strip = 70  # marginal histogram strip height/width
    xs = _Scale(exp.x, left, width - right - strip, exp.x_bins.counts.size)
    ys = _Scale(exp.y, height - bottom, top, exp.y_bins.counts.size)
    parts = _svg_open(width, height, f"{exp.y_name} vs {exp.x_name}")

    # marginal histogram of x along the top strip
    if exp.x_bins.counts.size and exp.x_bins.counts.max() > 0:
        peak = float(exp.x_bins.counts.max())
        for i, count in enumerate(exp.x_bins.counts):
            if count == 0:
                continue
            bx0 = xs(float(exp.x_bins.edges[i]))
            bx1 = xs(float(exp.x_bins.edges[i + 1]))
            h = (strip - 10) * (count / peak)
            parts.append(
                f'<rect x="{_fmt(bx0)}" y="{_fmt(top - 10 - h)}" '
                f'width="{_fmt(max(bx1 - bx0 - 1, 1))}" height="{_fmt(h)}" '
                f'fill="{_BAR_FILL}"/>')
    # marginal histogram of y along the right strip
    if exp.y_bins.counts.size and exp.y_bins.counts.max() > 0:
        peak = float(exp.y_bins.counts.max())
        for i, count in enumerate(exp.y_bins.counts):
            if count == 0:
                continue
            by0 = ys(float(exp.y_bins.edges[i]))
            by1 = ys(float(exp.y_bins.edges[i + 1]))
            w = (strip - 10) * (count / peak)
            y_top = min(by0, by1)
            parts.append(
                f'<rect x="{_fmt(width - right - strip + 10)}" y="{_fmt(y_top)}" '
                f'width="{_fmt(w)}" height="{_fmt(max(abs(by0 - by1) - 1, 1))}" '
                f'fill="{_BAR_FILL}"/>')

    _axes(parts, xs, ys, exp.x_name, exp.y_name)
    for vx, vy in zip(exp.x, exp.y):
        if not (math.isfinite(vx) and math.isfinite(vy)):
            continue
        parts.append(f'<circle cx="{_fmt(xs(vx))}" cy="{_fmt(ys(vy))}" r="3" '
                     f'fill="{_POINT_FILL}" fill-opacity="0.75"/>')
    # fit line clipped to the x domain
    fx0, fx1 = xs.lo, xs.hi
    fy0 = exp.fit_slope * fx0 + exp.fit_intercept
    fy1 = exp.fit_slope * fx1 + exp.fit_intercept
    parts.append(f'<line x1="{_fmt(xs(fx0))}" y1="{_fmt(ys(fy0))}" '
                 f'x2="{_fmt(xs(fx1))}" y2="{_fmt(ys(fy1))}" '
                 f'stroke="{_LINE_STROKE}" stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_WHITE = np.array([247.0, 247.0, 247.0])
_BLUE = np.array([33.0, 102.0, 172.0])
_RED = np.array([178.0, 24.0, 43.0])
_HEX = [f"{i:02x}" for i in range(256)]


def _diverging(values: np.ndarray) -> list[list[str]]:
    """Blue (-1) -> white (0) -> red (+1) for each value of a 2-D array.

    A non-finite value is white and others clip to [-1, 1]. Each channel
    interpolates from white and rounds half to even."""
    r = np.clip(np.where(np.isfinite(values), values, 0.0), -1.0, 1.0)[..., None]
    end = np.where(r < 0, _BLUE, _RED)
    rgb = np.rint(_WHITE + (end - _WHITE) * np.abs(r)).astype(np.int64).tolist()
    return [["#" + _HEX[c[0]] + _HEX[c[1]] + _HEX[c[2]] for c in row] for row in rgb]


def heatmap_svg(exp: HeatmapExport) -> str:
    """Correlation matrix as a colored grid with per-cell value tooltips.

    The cell colours come from one array expression over the matrix, and
    the text that one row's cells share is formatted once per row. A value
    that rounds to zero prints as 0.000, whatever its sign."""
    n, cell = len(exp.names), 30
    names = [_escape(name) for name in exp.names]
    label_w = 10 + 7 * max(len(name) for name in exp.names)
    left, top = label_w, 40 + label_w
    width = left + n * cell + 30
    height = top + n * cell + 30
    parts = _svg_open(width, height, "feature correlation")
    for j, name in enumerate(names):
        cx = left + j * cell + cell / 2
        parts.append(f'<text x="{_fmt(cx)}" y="{_fmt(top - 6)}" text-anchor="start" '
                     f'{_FONT} font-size="10" fill="#111111" '
                     f'transform="rotate(-60 {_fmt(cx)} {_fmt(top - 6)})">'
                     f'{name}</text>')
    heads = [f'<rect x="{_fmt(left + j * cell)}" y="' for j in range(n)]
    fills = _diverging(exp.matrix)
    for i, name in enumerate(names):
        cy = top + i * cell + cell / 2 + 3
        parts.append(f'<text x="{_fmt(left - 6)}" y="{_fmt(cy)}" text-anchor="end" '
                     f'{_FONT} font-size="10" fill="#111111">{name}</text>')
        middle = f'{_fmt(top + i * cell)}" width="{cell}" height="{cell}" fill="'
        title = f'" stroke="#ffffff" stroke-width="1"><title>{name} / '
        parts.extend(
            f'{head}{middle}{fill}{title}{other}: {round(value, 3) + 0.0:.3f}</title></rect>'
            for head, other, fill, value in zip(heads, names, fills[i], exp.matrix[i].tolist()))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def curve_svg(points: list[CurvePoint], score_label: str = "score") -> str:
    """Mean validation score against feature count, with std whiskers."""
    width, height = 640, 420
    left, right, top, bottom = 60, 30, 40, 50
    ks = np.asarray([p.k for p in points], dtype=np.float64)
    means = np.asarray([p.mean_score for p in points])
    stds = np.asarray([p.std_score for p in points])
    xs = _Scale(ks, left, width - right)
    ys = _Scale(np.concatenate([means - stds, means + stds]), height - bottom, top)
    parts = _svg_open(width, height, f"cross-validated {score_label} by feature count")
    _axes(parts, xs, ys, "features kept (k)", score_label)
    coords = []
    for k, m, s in zip(ks, means, stds):
        if not math.isfinite(m):
            continue
        px, py = xs(k), ys(m)
        coords.append(f"{_fmt(px)},{_fmt(py)}")
        parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(ys(m - s))}" '
                     f'x2="{_fmt(px)}" y2="{_fmt(ys(m + s))}" '
                     f'stroke="{_POINT_FILL}" stroke-width="1.5"/>')
        parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" '
                     f'fill="{_LINE_STROKE}"/>')
    if len(coords) >= 2:
        parts.append(f'<polyline points="{" ".join(coords)}" fill="none" '
                     f'stroke="{_LINE_STROKE}" stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
