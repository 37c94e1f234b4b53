import numpy as np
import pytest

from snakesim.errors import NonPositiveWeight, ShapeMismatch, ZeroLengthEdge
from snakesim.geometry import (
    PositionedShape,
    RigidMotion,
    apply_rigid_motion,
    center_of_mass,
    curve_from_curvature,
    rigid_registration,
    rotation_matrix,
    shapes_from_vertices,
    tangents_from_vertices,
)

# Frozen oracle: endpoint of the smooth curve with curvature sin(2*pi*s) on [0,1],
# computed by composite Simpson quadrature with 4096 panels of (cos psi, sin psi),
# psi(s) = (1 - cos(2*pi*s)) / (2*pi) integrated in closed form.
_SERPENOID_ENDPOINT = np.array([0.9811189153713553, 0.1574818633981127])


def random_motion(rng, scale=1.0):
    return RigidMotion(rng.uniform(-np.pi, np.pi), rng.normal(scale=scale, size=2))


class TestRigidMotion:
    def test_rotation_matrix_turns_x_axis_to_angle(self):
        rng = np.random.default_rng(1)
        for angle in rng.uniform(-10, 10, size=20):
            a = rotation_matrix(angle)
            assert np.allclose(a @ a.T, np.eye(2), atol=1e-14)
            assert np.linalg.det(a) == pytest.approx(1.0, abs=1e-13)
            assert np.allclose(a @ [1, 0], [np.cos(angle), np.sin(angle)])

    def test_translation_must_be_planar(self):
        with pytest.raises(ShapeMismatch):
            RigidMotion(0.0, np.zeros(3))

    def test_identity_and_inverse(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(7, 2))
        for _ in range(25):
            g = random_motion(rng)
            roundtrip = g.compose(g.inverse()).apply_points(points)
            assert np.max(np.abs(roundtrip - points)) < 1e-12

    def test_composition_is_application_order(self):
        # compose(a, b) acts as "b first, then a"
        rng = np.random.default_rng(3)
        points = rng.normal(size=(5, 2))
        for _ in range(25):
            a, b = random_motion(rng), random_motion(rng)
            assert np.allclose(
                a.compose(b).apply_points(points),
                a.apply_points(b.apply_points(points)),
                atol=1e-12,
            )


class TestTangents:
    def test_collinear_vertices(self):
        verts = np.zeros((5, 2))
        verts[:, 0] = np.arange(5) * 0.3
        assert np.allclose(tangents_from_vertices(verts), [1.0, 0.0])

    def test_right_angle_bisector(self):
        verts = np.array([[0.0, 0], [1, 0], [1, 1]])
        tangents = tangents_from_vertices(verts)
        r = 1 / np.sqrt(2)
        assert np.allclose(tangents[1], [r, r], atol=1e-14)
        assert np.allclose(tangents[0], [1, 0])
        assert np.allclose(tangents[2], [0, 1])

    def test_regular_64gon_tangents_orthogonal_to_radii(self):
        # tangent at each vertex of a regular polygon approximates the circle
        # tangent (-sin, cos); agreement within the discretization error O(h^2)
        n = 64
        phi = 2 * np.pi * np.arange(n + 1) / n
        verts = np.column_stack([np.cos(phi), np.sin(phi)])
        tangents = tangents_from_vertices(verts)
        analytic = np.column_stack([-np.sin(phi), np.cos(phi)])
        interior_err = np.max(np.abs(tangents[1:-1] - analytic[1:-1]))
        assert interior_err < (2 * np.pi / n) ** 2

    def test_coincident_vertices_raise(self):
        verts = np.array([[0.0, 0], [1, 0], [1, 0], [2, 0]])
        with pytest.raises(ZeroLengthEdge):
            tangents_from_vertices(verts)

    def test_points_with_a_third_column_rejected(self):
        verts = np.array([[0.0, 0, 0], [1, 0, 0]])
        with pytest.raises(ShapeMismatch):
            tangents_from_vertices(verts)
        with pytest.raises(ShapeMismatch):
            PositionedShape.from_vertices(verts)

    def test_stacked_polylines_match_one_at_a_time(self):
        rng = np.random.default_rng(7)
        stack = np.cumsum(rng.normal(size=(5, 9, 2)), axis=1)
        tangents = tangents_from_vertices(stack)
        for verts, tangs in zip(stack, tangents):
            assert np.array_equal(tangs, tangents_from_vertices(verts))
        shapes = shapes_from_vertices(stack)
        assert [s.num_vertices for s in shapes] == [9] * 5
        stack[3, 5] = stack[3, 4]
        with pytest.raises(ZeroLengthEdge, match="vertices 4 and 5"):
            tangents_from_vertices(stack)

    def test_commutes_with_rigid_motions(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            verts = np.cumsum(rng.normal(size=(6, 2)), axis=0)
            g = random_motion(rng)
            moved = g.apply_points(verts)
            assert np.allclose(
                tangents_from_vertices(moved),
                tangents_from_vertices(verts) @ g.matrix.T,
                atol=1e-12,
            )


class TestApplyRigidMotion:
    def _shape(self):
        verts = np.array([[0.0, 0], [1, 0], [2, 1]])
        return PositionedShape(verts, tangents_from_vertices(verts))

    def test_identity_leaves_shape_unchanged(self):
        shape = self._shape()
        moved = apply_rigid_motion(RigidMotion.identity(), shape)
        assert np.array_equal(moved.vertices, shape.vertices)
        assert np.array_equal(moved.tangents, shape.tangents)

    def test_pure_translation_keeps_tangents(self):
        shape = self._shape()
        moved = apply_rigid_motion(RigidMotion(0.0, np.array([3.0, -1.0])), shape)
        assert np.allclose(moved.vertices, shape.vertices + [3.0, -1.0])
        assert np.array_equal(moved.tangents, shape.tangents)

    def test_quarter_turn_rotates_tangent_x_to_y(self):
        shape = self._shape()
        moved = apply_rigid_motion(RigidMotion(np.pi / 2), shape)
        assert np.allclose(moved.tangents[0], [0, 1], atol=1e-15)

    def test_group_action(self):
        rng = np.random.default_rng(5)
        shape = self._shape()
        for _ in range(20):
            g1, g2 = random_motion(rng), random_motion(rng)
            lhs = apply_rigid_motion(g2, apply_rigid_motion(g1, shape))
            rhs = apply_rigid_motion(g2.compose(g1), shape)
            assert np.max(np.abs(lhs.vertices - rhs.vertices)) < 1e-12
            assert np.max(np.abs(lhs.tangents - rhs.tangents)) < 1e-12


class TestRigidRegistration:
    def test_recovers_motion_of_a_rigid_image(self):
        rng = np.random.default_rng(8)
        weights = rng.uniform(0.5, 2.0, size=7)
        for _ in range(20):
            source = np.cumsum(rng.normal(size=(7, 2)), axis=0)
            g = random_motion(rng, scale=5.0)
            found = rigid_registration(source, g.apply_points(source), weights)
            assert abs(np.angle(np.exp(1j * (found.angle - g.angle)))) < 1e-12
            assert np.max(np.abs(found.translation - g.translation)) < 1e-12


class TestCurveFromCurvature:
    def test_zero_curvature_is_straight_segment(self):
        shape = curve_from_curvature(np.zeros(11), 0.92)
        assert shape.vertices[0] == pytest.approx([0, 0])
        assert shape.vertices[-1] == pytest.approx([0.92, 0])
        assert np.allclose(shape.vertices[:, 1:], 0.0)

    def test_full_turn_closes(self):
        # total turning 2*pi: the polygon closes back on its start
        for m in (8, 16, 64):
            shape = curve_from_curvature(np.full(m, 2 * np.pi), 1.0)
            gap = np.linalg.norm(shape.vertices[-1] - shape.vertices[0])
            assert gap < 1.0 / m**2

    def test_serpenoid_endpoint_matches_quadrature_oracle(self):
        s = np.arange(64) / 64
        shape = curve_from_curvature(np.sin(2 * np.pi * s), 1.0)
        err = np.linalg.norm(shape.vertices[-1][:2] - _SERPENOID_ENDPOINT)
        assert err < 1e-3

    def test_equal_edge_lengths(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = rng.integers(2, 40)
            kappa = rng.normal(scale=3.0, size=m)
            shape = curve_from_curvature(kappa, 0.92)
            lengths = np.linalg.norm(np.diff(shape.vertices, axis=0), axis=1)
            assert np.max(np.abs(lengths - 0.92 / m)) < 1e-12

    def test_nonpositive_length_rejected(self):
        from snakesim.errors import InvalidLength

        with pytest.raises(InvalidLength):
            curve_from_curvature(np.zeros(4), 0.0)


class TestCenterOfMass:
    def test_equal_weights_midpoint(self):
        shape = PositionedShape.from_vertices(np.array([[0.0, 0], [2, 0]]))
        assert center_of_mass(shape, [1.0, 1.0]) == pytest.approx([1, 0])

    def test_weighted_mean(self):
        shape = PositionedShape.from_vertices(np.array([[0.0, 0], [4, 0]]))
        assert center_of_mass(shape, [3.0, 1.0]) == pytest.approx([1, 0])

    def test_regular_polygon_centroid(self):
        phi = 2 * np.pi * np.arange(12) / 12
        verts = np.column_stack([2 + np.cos(phi), -1 + np.sin(phi)])
        shape = PositionedShape(verts, tangents_from_vertices(verts))
        assert center_of_mass(shape, np.ones(12)) == pytest.approx([2, -1], abs=1e-12)

    def test_equivariance(self):
        rng = np.random.default_rng(7)
        verts = np.cumsum(rng.normal(size=(8, 2)), axis=0)
        shape = PositionedShape(verts, tangents_from_vertices(verts))
        weights = rng.uniform(0.1, 2.0, size=8)
        for _ in range(10):
            g = random_motion(rng)
            lhs = center_of_mass(apply_rigid_motion(g, shape), weights)
            rhs = g.apply_points(center_of_mass(shape, weights)[None, :])[0]
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_bad_weights(self):
        shape = PositionedShape.from_vertices(np.array([[0.0, 0], [1, 0]]))
        with pytest.raises(NonPositiveWeight):
            center_of_mass(shape, [1.0, 0.0])
        with pytest.raises(ShapeMismatch):
            center_of_mass(shape, [1.0, 1.0, 1.0])

    def test_stacked_frames_match_per_shape(self):
        rng = np.random.default_rng(8)
        frames = rng.normal(size=(4, 6, 2))
        weights = rng.uniform(0.1, 2.0, size=6)
        stacked = center_of_mass(frames, weights)
        assert stacked.shape == (4, 2)
        for frame, com in zip(frames, stacked):
            assert np.array_equal(com, center_of_mass(PositionedShape.from_vertices(frame), weights))
