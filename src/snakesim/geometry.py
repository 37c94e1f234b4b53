"""Discrete planar curves, rigid motions, and curvature-based reconstruction.

Points are C-contiguous float64 (N, 2) arrays: `_as_points` checks that layout
and copies other input, so `complex_view` reads them as x + iy without a copy.
A rigid motion is a rotation angle plus a 2-vector translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, NonPositiveWeight, ShapeMismatch, ZeroLengthEdge, _check_positive

_COINCIDENT_TOL = 1e-12


def _as_points(points, stacked: bool = False) -> np.ndarray:
    """(N, 2) points, or with `stacked` a (..., N, 2) stack of such arrays, C-contiguous float64."""
    pts = np.ascontiguousarray(points, dtype=float)
    if pts.ndim < 2 or pts.shape[-1] != 2 or (pts.ndim > 2 and not stacked):
        layout = "(..., N, 2)" if stacked else "(N, 2)"
        raise ShapeMismatch(f"expected an {layout} array of points, got shape {pts.shape}")
    return pts


def complex_view(points: np.ndarray) -> np.ndarray:
    """The (..., N) complex numbers x + iy sharing memory with stored (..., N, 2) points."""
    return points.view(complex)[..., 0]


def _turn(rotor: complex, points, shift: complex = 0.0) -> np.ndarray:
    """rotor z + shift for the points z = x + iy of a (..., N, 2) array, as (..., N, 2) floats."""
    return (rotor * complex_view(_as_points(points, stacked=True)) + shift)[..., None].view(float)


def _weights(weights, count: int | None = None) -> np.ndarray:
    """A nonempty float vector of finite strictly positive weights, `count` of them if given."""
    w = np.asarray(weights, dtype=float).ravel()
    if count is not None and len(w) != count:
        raise ShapeMismatch(f"{len(w)} weights for {count} vertices")
    if not (len(w) and ((w > 0.0) & (w < math.inf)).all()):
        raise NonPositiveWeight("weights must be a nonempty vector of finite strictly positive numbers")
    return w


# |t| within 1e-9 of 1 is |t|^2 within 2e-9 + 1e-18 of 1; the 1e-15 on top covers the rounding
# of |t|^2, so tangents scaled to exactly 1 +- 1e-9 pass, 1 +- 1.01e-9 fail, and NaN fails too
_UNIT_SQUARE_TOL = 2e-9 + 1e-15


def _check_frames(vertices, tangents, stacked: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and unit tangents of one (N, 2) shape, or with `stacked` of (T, N, 2) frames, checked."""
    verts, tangs = _as_points(vertices, stacked), _as_points(tangents, stacked)
    if verts.ndim != 2 + stacked or tangs.shape != verts.shape:
        layout = "(T, N, 2)" if stacked else "(N, 2)"
        raise ShapeMismatch(f"expected {layout} vertices and tangents alike, got {verts.shape} and {tangs.shape}")
    if verts.shape[-2] < 2 or not len(verts):
        raise ShapeMismatch("need at least one shape of at least two vertices")
    if not np.isfinite(verts).all():
        raise ShapeMismatch("vertices must be finite")
    if not np.abs(tangs[..., 0] * tangs[..., 0] + tangs[..., 1] * tangs[..., 1] - 1.0).max() <= _UNIT_SQUARE_TOL:
        raise ShapeMismatch("tangents must be finite and have unit length")
    return verts, tangs


@dataclass(frozen=True)
class RigidMotion:
    """Planar rigid transform z -> e^{i angle} z + b on the points z = x + iy."""

    angle: float = 0.0
    translation: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (2,):
            raise ShapeMismatch(f"translation must be a 2-vector, got shape {t.shape}")
        object.__setattr__(self, "translation", t)

    @property
    def rotor(self) -> complex:
        """The rotation as the unit complex number e^{i angle}."""
        return complex(math.cos(self.angle), math.sin(self.angle))

    def apply_points(self, points) -> np.ndarray:
        return _turn(self.rotor, points, complex(*self.translation))

    def move(self, points, vectors) -> tuple[np.ndarray, np.ndarray]:
        """(..., N, 2) points moved and vectors rotated, with e^{i angle} formed once."""
        rotor = self.rotor
        return _turn(rotor, points, complex(*self.translation)), _turn(rotor, vectors)

    def compose(self, other: "RigidMotion") -> "RigidMotion":
        """Motion equivalent to applying `other` first, then `self`."""
        b = self.rotor * complex(*other.translation) + complex(*self.translation)
        return RigidMotion(self.angle + other.angle, (b.real, b.imag))

    def inverse(self) -> "RigidMotion":
        b = -(self.rotor.conjugate() * complex(*self.translation))
        return RigidMotion(-self.angle, (b.real, b.imag))


@dataclass(frozen=True)
class PositionedShape:
    """Polygonal curve in world coordinates: vertex positions plus unit tangents."""

    vertices: np.ndarray
    tangents: np.ndarray

    def __post_init__(self):
        verts, tangs = _check_frames(self.vertices, self.tangents)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "tangents", tangs)

    @classmethod
    def from_vertices(cls, vertices) -> "PositionedShape":
        verts = _as_points(vertices)
        return cls(verts, tangents_from_vertices(verts))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def polyline_length(self) -> float:
        z = complex_view(self.vertices)
        return float(np.abs(z[1:] - z[:-1]).sum())


def tangents_from_vertices(vertices) -> np.ndarray:
    """Unit tangent per vertex: bisector of the adjacent unit edges, single edge at the ends.

    Takes one (N, 2) polyline or a (..., N, 2) stack of them.
    """
    verts = _as_points(vertices, stacked=True)
    if verts.shape[-2] < 2:
        raise ShapeMismatch("need at least two vertices to assign tangents")
    edges = np.diff(verts, axis=-2)
    lengths = np.linalg.norm(edges, axis=-1)
    if np.any(lengths < _COINCIDENT_TOL):
        k = int(np.nonzero(lengths < _COINCIDENT_TOL)[-1][0])
        raise ZeroLengthEdge(f"vertices {k} and {k + 1} coincide")
    units = edges / lengths[..., None]
    tangents = np.empty_like(verts)
    tangents[..., 0, :] = units[..., 0, :]
    tangents[..., -1, :] = units[..., -1, :]
    if verts.shape[-2] > 2:
        sums = units[..., :-1, :] + units[..., 1:, :]
        norms = np.linalg.norm(sums, axis=-1)
        if np.any(norms < _COINCIDENT_TOL):
            k = int(np.nonzero(norms < _COINCIDENT_TOL)[-1][0])
            raise ZeroLengthEdge(f"edges around vertex {k + 1} reverse direction exactly")
        tangents[..., 1:-1, :] = sums / norms[..., None]
    return tangents


def shapes_from_vertices(vertices) -> list[PositionedShape]:
    """One shape per polyline of a (T, N, 2) vertex stack, tangents computed and checked in one pass."""
    verts = _as_points(vertices, stacked=True)
    return _shape_views(*_check_frames(verts, tangents_from_vertices(verts), stacked=True))


def _shape_views(vertices: np.ndarray, tangents: np.ndarray) -> list[PositionedShape]:
    """Shapes sharing memory with (T, N, 2) stacks that `_check_frames(..., stacked=True)` passed.

    The frames are not checked again: each shape is filled in without `__post_init__`.
    """
    shapes = []
    for verts, tangs in zip(vertices, tangents):
        shape = object.__new__(PositionedShape)
        shape.__dict__.update(vertices=verts, tangents=tangs)
        shapes.append(shape)
    return shapes


def rigid_registration(source, target, weights) -> RigidMotion:
    """Weighted least-squares rigid motion carrying `source` points onto `target`.

    Closed form: the angle comes from the weighted cross and dot sums of the
    centred point sets, the translation matches the weighted centroids.  Exact
    to round-off when `target` is a rigid image of `source`.
    """
    src, dst = _as_points(source), _as_points(target)
    if src.shape != dst.shape:
        raise ShapeMismatch(f"source {src.shape} and target {dst.shape} differ in shape")
    weights = _weights(weights, len(src))
    w = weights / weights.sum()
    dst_bar, src_bar = w @ dst, w @ src
    dc = dst - dst_bar
    sc = src - src_bar
    sin_sum = float(np.sum(weights * (sc[:, 0] * dc[:, 1] - sc[:, 1] * dc[:, 0])))
    cos_sum = float(np.sum(weights * (sc[:, 0] * dc[:, 0] + sc[:, 1] * dc[:, 1])))
    angle = 0.0 if sin_sum == 0.0 and cos_sum == 0.0 else float(np.arctan2(sin_sum, cos_sum))
    b = complex(*dst_bar) - RigidMotion(angle).rotor * complex(*src_bar)
    return RigidMotion(angle, (b.real, b.imag))


def curve_from_curvature(curvature_samples, body_length: float) -> PositionedShape:
    """Reconstruct the polygonal curve with the given curvature profile.

    `curvature_samples[j]` is the signed curvature (radians per unit of
    normalized arc length) at station s = j/M, where M is the number of
    samples.  The result has M edges of equal length `body_length`/M, starts
    at the origin heading along +x, and accumulates at each interior vertex
    the turning angle given by the curvature sample at that station times the
    arc-length step (midpoint rule; the first edge carries the half-step turn
    of the station-0 sample).
    """
    kappa = np.asarray(curvature_samples, dtype=float).ravel()
    return PositionedShape.from_vertices(vertices_from_curvature(kappa, body_length))


def vertices_from_curvature(curvature, body_length: float) -> np.ndarray:
    """(..., M + 1, 2) vertices of the curves with (..., M) curvature profiles.

    Each row of samples is reconstructed as in `curve_from_curvature`.
    """
    _check_positive("body length", body_length)
    kappa = np.asarray(curvature, dtype=float)
    m = kappa.shape[-1] if kappa.ndim else 0
    if m < 1:
        raise InvalidParameter("need at least one curvature sample")
    step, edge_length = 1.0 / m, body_length / m
    # edge i of each curve has the heading headings[..., i]
    headings = np.empty_like(kappa)
    headings[..., 0] = 0.5 * step * kappa[..., 0]
    headings[..., 1:] = headings[..., :1] + step * np.cumsum(kappa[..., 1:], axis=-1)
    verts = np.zeros(kappa.shape[:-1] + (m + 1, 2))
    verts[..., 1:, 0] = edge_length * np.cumsum(np.cos(headings), axis=-1)
    verts[..., 1:, 1] = edge_length * np.cumsum(np.sin(headings), axis=-1)
    return verts


def center_of_mass(points, weights) -> np.ndarray:
    """Weighted mean of the vertex positions: (..., N, 2) points or a shape give (..., 2)."""
    pts = points.vertices if isinstance(points, PositionedShape) else _as_points(points, stacked=True)
    w = _weights(weights, pts.shape[-2])
    return w @ pts / w.sum()
