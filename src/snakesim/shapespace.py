"""Serpenoid shape space, elliptical gaits, and joint-angle conversion.

A body shape is described by the curvature profile
kappa(s) = w1*sin(2*pi*xi*s) + w2*cos(2*pi*xi*s) with s in [0, 1] measuring
normalized arc length, so the coefficients (w1, w2) are the coordinates of
the shape in a two-dimensional shape space and xi counts undulation waves
per body length.  A gait is a closed ellipse traced in that plane.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import FileFormatError, InvalidLength, ShapeMismatch
from .geometry import (  # curve_from_curvature stays importable here: the per-layer benchmark wraps it
    PositionedShape,
    complex_view,
    curve_from_curvature,
    polyline_from_headings,
    shapes_from_vertices,
    vertices_from_curvature,
)

__all__ = [
    "SerpenoidPoint",
    "GaitEllipse",
    "serpenoid_curvature",
    "sample_gait",
    "gait_to_shape_sequence",
    "shapes_to_joint_angles",
    "joint_angles_to_shapes",
    "read_gait_file",
    "write_gait_file",
    "read_joint_angles_csv",
    "write_joint_angles_csv",
]


@dataclass(frozen=True)
class SerpenoidPoint:
    """A point (w1, w2) in the serpenoid coefficient plane."""

    w1: float
    w2: float


@dataclass(frozen=True)
class GaitEllipse:
    """Closed elliptical loop in the serpenoid plane plus a spatial frequency.

    sigma in [0, 1] is the flatness of the ellipse, (xc, yc) its center,
    theta its orientation, a the major semi-axis, and xi the spatial
    frequency of the body wave.
    """

    sigma: float
    xc: float
    yc: float
    theta: float
    a: float
    xi: float

    def __post_init__(self):
        for name in ("sigma", "xc", "yc", "theta", "a", "xi"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma must lie in [0, 1], got {self.sigma}")
        if self.a < 0:
            # a == 0 is the degenerate single-point loop (constant shape)
            raise ValueError(f"semi-axis a must be nonnegative, got {self.a}")
        if self.xi <= 0:
            raise ValueError(f"spatial frequency xi must be positive, got {self.xi}")

    def with_xi(self, xi: float) -> "GaitEllipse":
        return replace(self, xi=xi)


def serpenoid_curvature(point: SerpenoidPoint, xi: float, s):
    """Curvature at normalized arc length s for shape-space point (w1, w2)."""
    phase = 2.0 * np.pi * xi * np.asarray(s, dtype=float)
    return point.w1 * np.sin(phase) + point.w2 * np.cos(phase)


def sample_gait(ellipse: GaitEllipse, t) -> SerpenoidPoint:
    """Shape-space point reached at phase t (1-periodic) along the gait ellipse.

    An array of phases gives a point whose coordinates are arrays.
    """
    phase = 2.0 * np.pi * t
    u = ellipse.a * np.cos(phase)
    v = ellipse.a * ellipse.sigma * np.sin(phase)
    c, s = np.cos(ellipse.theta), np.sin(ellipse.theta)
    return SerpenoidPoint(c * u - s * v + ellipse.xc, s * u + c * v + ellipse.yc)


def gait_to_shape_sequence(
    ellipse: GaitEllipse, timesteps: int, edges: int, body_length: float
) -> list[PositionedShape]:
    """Discretize one gait cycle into `timesteps` canonical body shapes.

    Step j corresponds to phase t = j/timesteps; the closing sample at t = 1
    duplicates t = 0 and is omitted.  Curvature is sampled at the arc-length
    stations s = i/edges expected by curve_from_curvature; all timesteps are
    sampled and reconstructed in one array pass.
    """
    if timesteps < 2:
        raise ValueError(f"need at least 2 timesteps, got {timesteps}")
    if edges < 2:
        raise ValueError(f"need at least 2 edges, got {edges}")
    stations = np.arange(edges) / edges
    points = sample_gait(ellipse, np.arange(timesteps) / timesteps)
    # (timesteps, edges) curvature: one row of station samples per timestep
    column = SerpenoidPoint(points.w1[:, None], points.w2[:, None])
    kappa = serpenoid_curvature(column, ellipse.xi, stations)
    return shapes_from_vertices(vertices_from_curvature(kappa, body_length))


def shapes_to_joint_angles(shapes: list[PositionedShape]) -> np.ndarray:
    """Signed interior turning angles, arg(edge k+1 * conj(edge k)): a row per shape, a column per joint."""
    if not shapes:
        return np.zeros((0, 0))
    if len({shape.num_vertices for shape in shapes}) != 1:
        raise ShapeMismatch("all shapes must have the same vertex count")
    edges = np.diff(complex_view(np.stack([shape.vertices for shape in shapes])), axis=-1)
    return np.angle(edges[:, 1:] * edges[:, :-1].conjugate())


def joint_angles_to_shapes(angles, edge_length: float) -> list[PositionedShape]:
    """Canonical shapes (origin start, first edge along +x) from turning angles."""
    if edge_length <= 0:
        raise InvalidLength(f"edge length must be positive, got {edge_length}")
    mat = np.atleast_2d(np.asarray(angles, dtype=float))
    headings = np.concatenate([np.zeros((len(mat), 1)), np.cumsum(mat, axis=1)], axis=1)
    return shapes_from_vertices(polyline_from_headings(headings, edge_length))


# -- file formats -------------------------------------------------------------

GAIT_KEYS = ("sigma", "xc", "yc", "theta", "a", "xi")


def write_gait_file(path, ellipse: GaitEllipse, timesteps=None, edges=None, body_length=None):
    """Write a gait as flat `key = value` text, optionally with discretization."""
    extras = {"timesteps": timesteps, "edges": edges, "body_length": body_length}
    with open(path, "w") as handle:
        for key in GAIT_KEYS:
            handle.write(f"{key} = {float(getattr(ellipse, key))!r}\n")
        for key, value in extras.items():
            if value is not None:
                handle.write(f"{key} = {value!r}\n")


def read_gait_file(path) -> tuple[GaitEllipse, dict]:
    """Parse a gait file; returns the ellipse and any extra keys found."""
    values = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FileFormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            try:
                values[key.strip()] = float(value)
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: bad number {value.strip()!r}") from exc
    missing = [key for key in GAIT_KEYS if key not in values]
    if missing:
        raise FileFormatError(f"{path}: missing gait keys {missing}")
    ellipse = GaitEllipse(*(values.pop(key) for key in GAIT_KEYS))
    meta = {"timesteps": None, "edges": None, "body_length": None}
    for key in meta:
        if key not in values:
            continue
        value = values[key]
        if key != "body_length":
            if not value.is_integer():
                raise FileFormatError(f"{path}: {key} must be an integer, got {value!r}")
            value = int(value)
        meta[key] = value
    return ellipse, meta


def write_joint_angles_csv(path, angles):
    """One CSV row of radians per timestep, no header."""
    mat = np.atleast_2d(np.asarray(angles, dtype=float))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        for row in mat:
            writer.writerow([repr(float(value)) for value in row])


def read_joint_angles_csv(path) -> np.ndarray:
    try:
        with open(path, newline="") as handle:
            rows = [[float(cell) for cell in row] for row in csv.reader(handle) if row]
    except ValueError as exc:
        raise FileFormatError(f"{path}: non-numeric joint angle") from exc
    if not rows:
        raise FileFormatError(f"{path}: empty joint-angle file")
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise FileFormatError(f"{path}: rows have inconsistent widths {sorted(widths)}")
    return np.asarray(rows)
