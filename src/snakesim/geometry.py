"""Discrete planar curves, rigid motions, and curvature-based reconstruction.

Points are stored as (N, 2) arrays of in-plane coordinates; `_as_points`
is the one place that checks that layout.  A rigid motion is a rotation
angle with its 2x2 matrix plus a 2-vector translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidLength, NonPositiveWeight, ShapeMismatch, ZeroLengthEdge

_COINCIDENT_TOL = 1e-12


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ShapeMismatch(f"expected an (N, 2) array of points, got shape {pts.shape}")
    return pts


def rotation_matrix(angle: float) -> np.ndarray:
    """2x2 rotation by `angle` radians."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class RigidMotion:
    """Planar rigid transform x -> A x + b with A a 2x2 rotation."""

    angle: float = 0.0
    translation: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float)
        if t.shape != (2,):
            raise ShapeMismatch(f"translation must be a 2-vector, got shape {t.shape}")
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidMotion":
        return cls()

    @property
    def matrix(self) -> np.ndarray:
        return rotation_matrix(self.angle)

    def apply_points(self, points: np.ndarray) -> np.ndarray:
        return points @ self.matrix.T + self.translation

    def apply_vectors(self, vectors: np.ndarray) -> np.ndarray:
        return vectors @ self.matrix.T

    def compose(self, other: "RigidMotion") -> "RigidMotion":
        """Motion equivalent to applying `other` first, then `self`."""
        return RigidMotion(self.angle + other.angle, self.matrix @ other.translation + self.translation)

    def inverse(self) -> "RigidMotion":
        return RigidMotion(-self.angle, -(rotation_matrix(-self.angle) @ self.translation))


@dataclass(frozen=True)
class PositionedShape:
    """Polygonal curve in world coordinates: vertex positions plus unit tangents."""

    vertices: np.ndarray
    tangents: np.ndarray

    def __post_init__(self):
        verts = _as_points(self.vertices)
        tangs = _as_points(self.tangents)
        if len(verts) < 2:
            raise ShapeMismatch("a shape needs at least two vertices")
        if tangs.shape != verts.shape:
            raise ShapeMismatch(
                f"tangent array shape {tangs.shape} does not match vertices {verts.shape}"
            )
        norms = np.linalg.norm(tangs, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ShapeMismatch("tangents must have unit length")
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
        return float(np.sum(np.linalg.norm(np.diff(self.vertices, axis=0), axis=1)))


def tangents_from_vertices(vertices) -> np.ndarray:
    """Unit tangent per vertex: bisector of the adjacent unit edges, single edge at the ends."""
    verts = _as_points(vertices)
    if len(verts) < 2:
        raise ShapeMismatch("need at least two vertices to assign tangents")
    edges = np.diff(verts, axis=0)
    lengths = np.linalg.norm(edges, axis=1)
    if np.any(lengths < _COINCIDENT_TOL):
        k = int(np.argmax(lengths < _COINCIDENT_TOL))
        raise ZeroLengthEdge(f"vertices {k} and {k + 1} coincide")
    units = edges / lengths[:, None]
    tangents = np.empty_like(verts)
    tangents[0] = units[0]
    tangents[-1] = units[-1]
    if len(verts) > 2:
        sums = units[:-1] + units[1:]
        norms = np.linalg.norm(sums, axis=1)
        if np.any(norms < _COINCIDENT_TOL):
            k = int(np.argmax(norms < _COINCIDENT_TOL))
            raise ZeroLengthEdge(f"edges around vertex {k + 1} reverse direction exactly")
        tangents[1:-1] = sums / norms[:, None]
    return tangents


def apply_rigid_motion(motion: RigidMotion, shape: PositionedShape) -> PositionedShape:
    """Move a positioned shape rigidly; tangents rotate with the shape."""
    return PositionedShape(motion.apply_points(shape.vertices), motion.apply_vectors(shape.tangents))


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
    if body_length <= 0:
        raise InvalidLength(f"body length must be positive, got {body_length}")
    kappa = np.asarray(curvature_samples, dtype=float).ravel()
    m = len(kappa)
    if m < 1:
        raise InvalidLength("need at least one curvature sample")
    step = 1.0 / m
    headings = np.empty(m)
    headings[0] = 0.5 * step * kappa[0]
    if m > 1:
        headings[1:] = headings[0] + step * np.cumsum(kappa[1:])
    return polyline_from_headings(headings, body_length / m)


def polyline_from_headings(headings, edge_length: float) -> PositionedShape:
    """Polyline from the origin whose edge i has length `edge_length` and heading `headings[i]`."""
    verts = np.zeros((len(headings) + 1, 2))
    verts[1:, 0] = edge_length * np.cumsum(np.cos(headings))
    verts[1:, 1] = edge_length * np.cumsum(np.sin(headings))
    return PositionedShape.from_vertices(verts)


def center_of_mass(points, weights) -> np.ndarray:
    """Weighted mean of the vertex positions: (..., N, 2) points or a shape give (..., 2)."""
    pts = points.vertices if isinstance(points, PositionedShape) else np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float).ravel()
    if pts.ndim < 2 or pts.shape[-1] != 2 or len(w) != pts.shape[-2]:
        raise ShapeMismatch(f"{len(w)} weights for a vertex array of shape {pts.shape}")
    if np.any(w <= 0):
        raise NonPositiveWeight("all weights must be strictly positive")
    return w @ pts / w.sum()
