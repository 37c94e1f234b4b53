import numpy as np
import pytest

from snakesim.errors import NonPositiveWeight, ShapeMismatch, ZeroLengthEdge
from snakesim.geometry import (
    PositionedShape,
    RigidMotion,
    center_of_mass,
    complex_view,
    curve_from_curvature,
    rigid_registration,
    shapes_from_vertices,
    tangents_from_vertices,
    vertices_from_curvature,
)

# Frozen oracle: endpoint of the smooth curve with curvature sin(2*pi*s) on [0,1],
# computed by composite Simpson quadrature with 4096 panels of (cos psi, sin psi),
# psi(s) = (1 - cos(2*pi*s)) / (2*pi) integrated in closed form.
_SERPENOID_ENDPOINT = np.array([0.9811189153713553, 0.1574818633981127])


def random_motion(rng, scale=1.0):
    return RigidMotion(rng.uniform(-np.pi, np.pi), rng.normal(scale=scale, size=2))


def rotation(angle):
    """2x2 matrix of the rotation by `angle` radians, a reference for the rotor."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


class TestRigidMotion:
    def test_rotor_turns_x_axis_to_angle(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(5, 2))
        for angle in rng.uniform(-10, 10, size=20):
            g = RigidMotion(angle)
            assert abs(g.rotor) == pytest.approx(1.0, abs=1e-15)
            assert np.allclose(g.apply_points([[1.0, 0.0]]), [[np.cos(angle), np.sin(angle)]], atol=1e-15)
            assert np.allclose(g.apply_points(points), points @ rotation(angle).T, atol=1e-14)

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

    def test_shape_rejects_non_finite_points_and_non_unit_tangents(self):
        verts, unit = [[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]
        for bad in (np.nan, np.inf):
            with pytest.raises(ShapeMismatch):
                PositionedShape(verts, [[bad, 0.0], [1.0, 0.0]])
            with pytest.raises(ShapeMismatch):
                PositionedShape([[0.0, bad], [1.0, 0.0]], unit)
        with pytest.raises(ShapeMismatch):
            PositionedShape(verts, [[1.0 + 2e-9, 0.0], [1.0, 0.0]])
        PositionedShape(verts, [[1.0 + 5e-10, 0.0], [1.0, 0.0]])  # within the 1e-9 bound

    def test_shapes_store_c_contiguous_float64(self):
        # complex_view relies on this layout, whatever the caller passed in
        ints = np.array([[0, 0], [2, 0], [3, 2], [5, 3], [4, 6]])
        verts = ints.astype(float)
        tangs = tangents_from_vertices(verts)
        big_verts, big_tangs = np.zeros((5, 4)), np.zeros((5, 4))
        big_verts[:, ::2], big_tangs[:, ::2] = verts, tangs
        layouts = {
            "integer": (ints, tangs),
            "fortran": (np.asfortranarray(verts), np.asfortranarray(tangs)),
            "strided": (big_verts[:, ::2], big_tangs[:, ::2]),
        }
        for name, (v, t) in layouts.items():
            shape = PositionedShape(v, t)
            for stored, expected in ((shape.vertices, verts), (shape.tangents, tangs)):
                assert stored.dtype == np.float64 and stored.flags.c_contiguous, name
                assert np.array_equal(stored, expected), name
                assert np.array_equal(complex_view(stored), expected[:, 0] + 1j * expected[:, 1]), name
        assert PositionedShape.from_vertices(np.asfortranarray(verts)).tangents.flags.c_contiguous

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

    def test_shapes_from_vertices_checks_the_stack_once(self):
        rng = np.random.default_rng(8)
        stack = np.cumsum(rng.normal(size=(4, 6, 2)), axis=1)
        shapes = shapes_from_vertices(stack)
        for verts, shape in zip(stack, shapes):
            expected = PositionedShape.from_vertices(verts)
            assert isinstance(shape, PositionedShape) and shape.num_vertices == 6
            assert np.array_equal(shape.vertices, expected.vertices)
            assert np.array_equal(shape.tangents, expected.tangents)
            assert shape.vertices.flags.c_contiguous and shape.tangents.flags.c_contiguous
            assert np.shares_memory(shape.vertices, stack)  # a view of the checked stack, not a copy
        broken = stack.copy()
        broken[2, 3, 1] = np.nan
        with pytest.raises(ShapeMismatch, match="finite"):
            shapes_from_vertices(broken)
        with pytest.raises(ShapeMismatch):
            shapes_from_vertices(stack[0])  # one (N, 2) polyline is not a stack

    def test_commutes_with_rigid_motions(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            verts = np.cumsum(rng.normal(size=(6, 2)), axis=0)
            g = random_motion(rng)
            moved = g.apply_points(verts)
            assert np.allclose(
                tangents_from_vertices(moved),
                tangents_from_vertices(verts) @ rotation(g.angle).T,
                atol=1e-12,
            )


class TestApplyRigidMotion:
    """`RigidMotion.move` on a shape's vertices and tangents."""

    def _shape(self):
        verts = np.array([[0.0, 0], [1, 0], [2, 1]])
        return PositionedShape(verts, tangents_from_vertices(verts))

    def test_identity_leaves_shape_unchanged(self):
        shape = self._shape()
        verts, tangs = RigidMotion().move(shape.vertices, shape.tangents)
        assert np.array_equal(verts, shape.vertices)
        assert np.array_equal(tangs, shape.tangents)

    def test_pure_translation_keeps_tangents(self):
        shape = self._shape()
        verts, tangs = RigidMotion(0.0, np.array([3.0, -1.0])).move(shape.vertices, shape.tangents)
        assert np.allclose(verts, shape.vertices + [3.0, -1.0])
        assert np.array_equal(tangs, shape.tangents)

    def test_quarter_turn_rotates_tangent_x_to_y(self):
        shape = self._shape()
        _, tangs = RigidMotion(np.pi / 2).move(shape.vertices, shape.tangents)
        assert np.allclose(tangs[0], [0, 1], atol=1e-15)

    def test_group_action(self):
        rng = np.random.default_rng(5)
        shape = self._shape()
        for _ in range(20):
            g1, g2 = random_motion(rng), random_motion(rng)
            lhs = g2.move(*g1.move(shape.vertices, shape.tangents))
            rhs = g2.compose(g1).move(shape.vertices, shape.tangents)
            assert np.max(np.abs(lhs[0] - rhs[0])) < 1e-12
            assert np.max(np.abs(lhs[1] - rhs[1])) < 1e-12


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

    def test_weights_may_be_a_list(self):
        rng = np.random.default_rng(9)
        source = np.cumsum(rng.normal(size=(4, 2)), axis=0)
        target = random_motion(rng).apply_points(source)
        weights = [0.5, 1.0, 1.5, 2.0]
        found = rigid_registration(source, target, weights)
        expected = rigid_registration(source, target, np.array(weights))
        assert found.angle == expected.angle
        assert np.array_equal(found.translation, expected.translation)

    def test_bad_weights(self):
        source = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ShapeMismatch):
            rigid_registration(source, source, np.ones(4))
        with pytest.raises(ShapeMismatch):
            rigid_registration(source, source[:2], np.ones(3))
        for bad in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(NonPositiveWeight):
                rigid_registration(source, source, [1.0, bad, 1.0])


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
        from snakesim.errors import InvalidParameter

        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InvalidParameter):
                curve_from_curvature(np.zeros(4), bad)
            with pytest.raises(InvalidParameter):  # an infinite length made NaN vertices here
                vertices_from_curvature(np.zeros(4), bad)


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
            lhs = center_of_mass(g.apply_points(shape.vertices), weights)
            rhs = g.apply_points(center_of_mass(shape, weights)[None, :])[0]
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_bad_weights(self):
        shape = PositionedShape.from_vertices(np.array([[0.0, 0], [1, 0]]))
        with pytest.raises(NonPositiveWeight):
            center_of_mass(shape, [1.0, 0.0])
        with pytest.raises(ShapeMismatch):
            center_of_mass(shape, [1.0, 1.0, 1.0])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonPositiveWeight):
                center_of_mass(shape, [1.0, bad])
            with pytest.raises(NonPositiveWeight):
                center_of_mass(np.zeros((3, 2, 2)), [bad, 1.0])

    def test_stacked_frames_match_per_shape(self):
        rng = np.random.default_rng(8)
        frames = rng.normal(size=(4, 6, 2))
        weights = rng.uniform(0.1, 2.0, size=6)
        stacked = center_of_mass(frames, weights)
        assert stacked.shape == (4, 2)
        for frame, com in zip(frames, stacked):
            assert np.array_equal(com, center_of_mass(PositionedShape.from_vertices(frame), weights))
