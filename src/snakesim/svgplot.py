"""Small hand-rolled SVG emitter for trajectory, curve, and heat-map figures.

No drawing dependency: figures are built as plain SVG element trees and can be
inspected structurally in tests (parse, count polylines, read attributes)
instead of comparing bytes.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyInput, InvalidParameter, ShapeMismatch

__all__ = ["SvgCanvas", "plot_curves", "plot_trajectory", "plot_heatmap"]

_MARGIN = 54.0
_TICKS = 5


def _escape(text, quote=False) -> str:
    """XML-escape &, < and > (and " when `quote`, for attribute values)."""
    text = str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return text.replace('"', "&quot;") if quote else text


class SvgCanvas:
    """Accumulates SVG elements and serializes them with a white background."""

    def __init__(self, width: float = 640.0, height: float = 480.0):
        self.width = width
        self.height = height
        self._parts: list[str] = []

    def _attrs(self, mapping) -> str:
        return "".join(f' {k}="{_escape(v, quote=True)}"' for k, v in mapping.items() if v is not None)

    def polyline(self, points, stroke="black", stroke_width=1.5, dash=None, opacity=None):
        coords = " ".join(map("{:.2f},{:.2f}".format, *np.asarray(points, dtype=float).reshape(-1, 2).T.tolist()))
        attrs = {"fill": "none", "stroke": stroke, "stroke-width": stroke_width, "stroke-dasharray": dash, "opacity": opacity}
        self._parts.append(f'<polyline points="{coords}"' + self._attrs(attrs) + "/>")

    def line(self, x1, y1, x2, y2, stroke="black", stroke_width=1.0):
        self._parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}"'
            + self._attrs({"stroke": stroke, "stroke-width": stroke_width})
            + "/>"
        )

    def rect(self, x, y, w, h, fill, stroke=None, title=None):
        body = f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}"' + self._attrs(
            {"fill": fill, "stroke": stroke}
        )
        if title is None:
            self._parts.append(body + "/>")
        else:
            self._parts.append(body + f"><title>{_escape(title)}</title></rect>")

    def circle(self, x, y, r, fill="black"):
        self._parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}"' + self._attrs({"fill": fill}) + "/>")

    def text(self, x, y, content, size=12, anchor="start", fill="#333"):
        self._parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}"'
            + self._attrs({"font-size": size, "text-anchor": anchor, "fill": fill, "font-family": "sans-serif"})
            + f">{_escape(content)}</text>"
        )

    def to_string(self) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width:.0f}" '
            f'height="{self.height:.0f}" viewBox="0 0 {self.width:.0f} {self.height:.0f}">'
        )
        background = f'<rect x="0" y="0" width="{self.width:.0f}" height="{self.height:.0f}" fill="white"/>'
        return head + background + "".join(self._parts) + "</svg>"

    def write(self, path):
        with open(path, "w") as handle:
            handle.write(self.to_string())


class _Frame:
    """Affine map from data coordinates into the canvas plot area (y flipped)."""

    def __init__(self, canvas: SvgCanvas, xlim, ylim, equal_aspect=False):
        self.canvas = canvas
        x0, x1 = _pad_interval(*xlim)
        y0, y1 = _pad_interval(*ylim)
        wpx = canvas.width - 2 * _MARGIN
        hpx = canvas.height - 2 * _MARGIN
        if equal_aspect:
            scale = min(wpx / (x1 - x0), hpx / (y1 - y0))
            xmid, ymid = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
            x0, x1 = xmid - 0.5 * wpx / scale, xmid + 0.5 * wpx / scale
            y0, y1 = ymid - 0.5 * hpx / scale, ymid + 0.5 * hpx / scale
        self.xlim = (x0, x1)
        self.ylim = (y0, y1)

    def map(self, x, y):
        """Canvas coordinates of the data point (x, y); numpy arrays map element by element, as floats would."""
        x0, x1 = self.xlim
        y0, y1 = self.ylim
        px = _MARGIN + (x - x0) / (x1 - x0) * (self.canvas.width - 2 * _MARGIN)
        py = self.canvas.height - _MARGIN - (y - y0) / (y1 - y0) * (self.canvas.height - 2 * _MARGIN)
        return px, py

    def map_points(self, xs, ys):
        """(M, 2) canvas points of the data arrays `xs` and `ys`."""
        return np.column_stack(self.map(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)))

    def draw_axes(self, xlabel="", ylabel="", title=""):
        c = self.canvas
        left, right = _MARGIN, c.width - _MARGIN
        top, bottom = _MARGIN, c.height - _MARGIN
        c.line(left, bottom, right, bottom, stroke="#444")
        c.line(left, bottom, left, top, stroke="#444")
        for frac in np.linspace(0.0, 1.0, _TICKS):
            xv = self.xlim[0] + frac * (self.xlim[1] - self.xlim[0])
            yv = self.ylim[0] + frac * (self.ylim[1] - self.ylim[0])
            px, _ = self.map(xv, self.ylim[0])
            _, py = self.map(self.xlim[0], yv)
            c.line(px, bottom, px, bottom + 4, stroke="#444")
            c.text(px, bottom + 16, _fmt_tick(xv), size=10, anchor="middle")
            c.line(left - 4, py, left, py, stroke="#444")
            c.text(left - 7, py + 3, _fmt_tick(yv), size=10, anchor="end")
        if xlabel:
            c.text(0.5 * (left + right), c.height - 14, xlabel, anchor="middle")
        if ylabel:
            c.text(14, top - 14, ylabel, anchor="start")
        if title:
            c.text(0.5 * (left + right), top - 18, title, size=14, anchor="middle")


def _pad_interval(lo, hi, frac=0.05):
    lo, hi = float(lo), float(hi)
    if hi <= lo:
        pad = max(abs(lo), 1.0) * frac
        return lo - pad, lo + pad
    pad = (hi - lo) * frac
    return lo - pad, hi + pad


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:.3g}"


_PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#7f7f7f"]


def plot_curves(path, curves, xlabel="", ylabel="", title="", equal_aspect=False, size=(640, 480)):
    """Write a multi-curve line plot.

    `curves` is a list of dicts with keys x, y and optional label, color,
    dash, width.  Returns the curve colors in drawing order so callers can
    build matching legends or captions.
    """
    if not curves:
        raise EmptyInput("no curves to plot")
    xs_all = np.concatenate([np.asarray(c["x"], dtype=float) for c in curves])
    ys_all = np.concatenate([np.asarray(c["y"], dtype=float) for c in curves])
    if xs_all.size == 0:
        raise EmptyInput("curves contain no points")
    canvas = SvgCanvas(*size)
    frame = _Frame(canvas, (xs_all.min(), xs_all.max()), (ys_all.min(), ys_all.max()), equal_aspect)
    frame.draw_axes(xlabel, ylabel, title)
    colors = []
    legend_y = _MARGIN + 6
    for i, curve in enumerate(curves):
        color = curve.get("color", _PALETTE[i % len(_PALETTE)])
        colors.append(color)
        pts = frame.map_points(np.asarray(curve["x"], float), np.asarray(curve["y"], float))
        if len(pts) == 1:
            canvas.circle(pts[0][0], pts[0][1], 3, fill=color)
        else:
            canvas.polyline(
                pts,
                stroke=color,
                stroke_width=curve.get("width", 1.5),
                dash=curve.get("dash"),
                opacity=curve.get("opacity"),
            )
        label = curve.get("label")
        if label:
            lx = canvas.width - _MARGIN - 130
            canvas.line(lx, legend_y, lx + 22, legend_y, stroke=color, stroke_width=2.5)
            canvas.text(lx + 28, legend_y + 4, label, size=11)
            legend_y += 16
    canvas.write(path)
    return colors


def plot_trajectory(path, vertices, com_path=None, title="", stride=None, size=(640, 480)):
    """Overlay every `stride`-th body of a (T, N, 2) vertex stack, and the last, with the CoM path dashed in red."""
    vertices = np.asarray(vertices, dtype=float)
    if vertices.size == 0:
        raise EmptyInput("no frames to plot")
    if vertices.ndim != 3 or vertices.shape[2] != 2:
        raise ShapeMismatch(f"expected a (T, N, 2) vertex stack, got shape {vertices.shape}")
    stride = max(1, len(vertices) // 24) if stride is None else stride
    if stride < 1:
        raise InvalidParameter(f"stride must be a positive frame count, got {stride}")
    drawn = vertices[sorted({*range(0, len(vertices), stride), len(vertices) - 1})]
    all_xy = drawn.reshape(-1, 2)
    if com_path is not None:
        com_path = np.asarray(com_path, dtype=float)
        all_xy = np.concatenate([all_xy, com_path])
    canvas = SvgCanvas(*size)
    frame = _Frame(canvas, (all_xy[:, 0].min(), all_xy[:, 0].max()), (all_xy[:, 1].min(), all_xy[:, 1].max()), equal_aspect=True)
    frame.draw_axes("x [m]", "y [m]", title)
    for i, body in enumerate(drawn):
        shade = 0.25 + 0.75 * i / max(1, len(drawn) - 1)
        pts = frame.map_points(body[:, 0], body[:, 1])
        canvas.polyline(pts, stroke="#1f77b4", stroke_width=1.2, opacity=f"{shade:.2f}")
    if com_path is not None and len(com_path) > 1:
        pts = frame.map_points(com_path[:, 0], com_path[:, 1])
        canvas.polyline(pts, stroke="red", stroke_width=1.8, dash="6,4")
    canvas.write(path)


def plot_heatmap(path, matrix, row_labels=None, col_labels=None, center=1.0, mask_diagonal=True, title="", size=(560, 520)):
    """Write a heat map with a blue-white-red scale diverging around `center`.

    With `mask_diagonal` the major diagonal is greyed out and excluded from
    the color range, matching its exclusion from the summary statistics.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise EmptyInput("heat map needs a nonempty 2-D matrix")
    rows, cols = m.shape
    off = ~np.eye(rows, cols, dtype=bool) if mask_diagonal else np.ones_like(m, dtype=bool)
    span = float(np.max(np.abs(m[off] - center))) if np.any(off) else 1.0
    span = max(span, 1e-12)
    canvas = SvgCanvas(*size)
    left, top = _MARGIN, _MARGIN
    cell_w = (size[0] - 2 * _MARGIN) / cols
    cell_h = (size[1] - 2 * _MARGIN) / rows
    for i in range(rows):
        for j in range(cols):
            x, y = left + j * cell_w, top + i * cell_h
            if mask_diagonal and i == j:
                canvas.rect(x, y, cell_w, cell_h, fill="#d9d9d9", stroke="white", title="excluded")
            else:
                canvas.rect(
                    x, y, cell_w, cell_h,
                    fill=_diverging_color(m[i, j], center, span),
                    stroke="white",
                    title=f"{m[i, j]:.4g}",
                )
    if row_labels is not None:
        for i, lab in enumerate(row_labels):
            canvas.text(left - 6, top + (i + 0.5) * cell_h + 4, lab, size=10, anchor="end")
    if col_labels is not None:
        for j, lab in enumerate(col_labels):
            canvas.text(left + (j + 0.5) * cell_w, top - 8, lab, size=10, anchor="middle")
    if title:
        canvas.text(size[0] / 2, 24, title, size=14, anchor="middle")
    # color bar along the bottom edge
    bar_y = size[1] - _MARGIN + 18
    bar_w = size[0] - 2 * _MARGIN
    for k in range(60):
        v = center - span + (2 * span) * (k + 0.5) / 60
        canvas.rect(left + k * bar_w / 60, bar_y, bar_w / 60 + 0.5, 10, fill=_diverging_color(v, center, span))
    canvas.text(left, bar_y + 24, _fmt_tick(center - span), size=10, anchor="start")
    canvas.text(left + bar_w / 2, bar_y + 24, _fmt_tick(center), size=10, anchor="middle")
    canvas.text(left + bar_w, bar_y + 24, _fmt_tick(center + span), size=10, anchor="end")
    canvas.write(path)


def _diverging_color(value, center, span) -> str:
    """Blue below `center`, white at it, red above; clipped at +-span."""
    t = float(np.clip((value - center) / span, -1.0, 1.0))
    white = (255, 255, 255)
    endpoint = (59, 76, 192) if t < 0 else (180, 4, 38)
    rgb = tuple(round(w + (e - w) * abs(t)) for w, e in zip(white, endpoint))
    return "#{:02x}{:02x}{:02x}".format(*rgb)
