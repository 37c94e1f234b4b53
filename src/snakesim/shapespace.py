"""Serpenoid shape space, elliptical gaits, and their discretization into body shapes.

A body shape is described by the curvature profile
kappa(s) = w1*sin(2*pi*xi*s) + w2*cos(2*pi*xi*s) with s in [0, 1] measuring
normalized arc length, so the coefficients (w1, w2) are the coordinates of
the shape in a two-dimensional shape space and xi counts undulation waves
per body length.  A gait is a closed ellipse traced in that plane.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .errors import FileFormatError, InvalidParameter, _check_count, _check_positive
from .geometry import PositionedShape, _check_frames, _shape_views, tangents_from_vertices, vertices_from_curvature
from .geometry import curve_from_curvature  # noqa: F401 -- the per-layer benchmark wraps it here
from .tables import read_key_values

__all__ = [
    "GaitEllipse",
    "serpenoid_curvature",
    "sample_gait",
    "gait_to_shape_sequence",
    "read_gait_file",
    "write_gait_file",
]


# the six gait parameters, in the order of `GaitEllipse`'s fields, gait files and report rows
GAIT_KEYS = ("sigma", "xc", "yc", "theta", "a", "xi")


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
        for name in GAIT_KEYS:
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise InvalidParameter(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if not 0.0 <= self.sigma <= 1.0:
            raise InvalidParameter(f"sigma must lie in [0, 1], got {self.sigma}")
        if self.a < 0:
            # a == 0 is the degenerate single-point loop (constant shape)
            raise InvalidParameter(f"semi-axis a must be nonnegative, got {self.a}")
        if self.xi <= 0:
            raise InvalidParameter(f"spatial frequency xi must be positive, got {self.xi}")

    def with_xi(self, xi: float) -> "GaitEllipse":
        return replace(self, xi=xi)


def serpenoid_curvature(point: tuple[float, float], xi: float, s):
    """Curvature at normalized arc length s for the shape-space point (w1, w2)."""
    w1, w2 = point
    phase = 2.0 * np.pi * xi * np.asarray(s, dtype=float)
    return w1 * np.sin(phase) + w2 * np.cos(phase)


def sample_gait(ellipse: GaitEllipse, t) -> tuple[float, float]:
    """Shape-space point (w1, w2) reached at phase t (1-periodic) along the gait ellipse.

    An array of phases gives a pair of arrays.
    """
    phase = 2.0 * np.pi * t
    u = ellipse.a * np.cos(phase)
    v = ellipse.a * ellipse.sigma * np.sin(phase)
    c, s = np.cos(ellipse.theta), np.sin(ellipse.theta)
    return c * u - s * v + ellipse.xc, s * u + c * v + ellipse.yc


def _check_discretization(**given):
    """Reject, of the values given by name, timesteps or edges that are not integers >= 2, or a body length not finite and positive."""
    for name in ("timesteps", "edges"):
        if name in given:
            _check_count(name, given[name], 2)
    if "body_length" in given:
        _check_positive("body length", given["body_length"])


def gait_to_shape_sequence(
    ellipse: GaitEllipse, timesteps: int, edges: int, body_length: float
) -> list[PositionedShape]:
    """Discretize one gait cycle into `timesteps` canonical body shapes.

    Step j corresponds to phase t = j/timesteps; the closing sample at t = 1
    duplicates t = 0 and is omitted.  Curvature is sampled at the arc-length
    stations s = i/edges expected by curve_from_curvature; all timesteps are
    sampled and reconstructed in one array pass.
    """
    return _shape_views(*_cycle_stacks(ellipse, timesteps, edges, body_length))[:-1]


def _cycle_stacks(gaits: GaitEllipse | list[GaitEllipse], timesteps: int, edges: int, body_length: float) -> tuple[np.ndarray, np.ndarray]:
    """Checked (timesteps + 1, edges + 1, 2) vertex and tangent stacks of one gait's closed cycle, or
    (B, timesteps + 1, edges + 1, 2) stacks of a list of B gaits, all built in one array pass.

    Frames 0..timesteps-1 are the shapes of `gait_to_shape_sequence`, and the
    last frame is a copy of frame 0, which closes the cycle.
    """
    _check_discretization(timesteps=timesteps, edges=edges, body_length=body_length)
    if not isinstance(gaits, GaitEllipse):  # each parameter as a (B, 1, 1) column: a gait's samples fill its own rows
        columns = np.array([[getattr(gait, key) for gait in gaits] for key in GAIT_KEYS])[..., None, None]
        gaits = SimpleNamespace(**dict(zip(GAIT_KEYS, columns)))
    stations = np.arange(edges) / edges
    points = sample_gait(gaits, (np.arange(timesteps) / timesteps)[:, None])
    # (..., timesteps, edges) curvature: one row of station samples per timestep
    kappa = serpenoid_curvature(points, gaits.xi, stations)
    verts = vertices_from_curvature(kappa, body_length)
    verts = np.concatenate((verts, verts[..., :1, :, :]), axis=-3)
    flat = verts.reshape((-1,) + verts.shape[-2:])
    flat, tangs = _check_frames(flat, tangents_from_vertices(flat), stacked=True)
    return flat.reshape(verts.shape), tangs.reshape(verts.shape)


# -- file formats -------------------------------------------------------------

_META_KEYS = {"timesteps": int, "edges": int, "body_length": float}


def write_gait_file(path, ellipse: GaitEllipse, timesteps=None, edges=None, body_length=None):
    """Write a gait as flat `key = value` text, optionally with discretization.

    Each discretization value given is checked as a simulation of it would be,
    so the file reads back and simulates; a bad one raises `InvalidParameter`
    before the file is opened.
    """
    given = {"timesteps": timesteps, "edges": edges, "body_length": body_length}
    extras = {key: np.asarray(value).item() for key, value in given.items() if value is not None}  # numpy scalars as plain numbers
    _check_discretization(**extras)
    with open(path, "w", newline="") as handle:
        for key in GAIT_KEYS:
            handle.write(f"{key} = {float(getattr(ellipse, key))!r}\n")
        for key, value in extras.items():
            handle.write(f"{key} = {value!r}\n")


def read_gait_file(path) -> tuple[GaitEllipse, dict]:
    """Parse a gait file; returns the ellipse and any extra keys found."""
    values = read_key_values(path, {**dict.fromkeys(GAIT_KEYS, float), **_META_KEYS})
    missing = [key for key in GAIT_KEYS if key not in values]
    if missing:
        raise FileFormatError(f"{path}: missing gait keys {missing}")
    return GaitEllipse(*(values[key] for key in GAIT_KEYS)), {key: values.get(key) for key in _META_KEYS}
