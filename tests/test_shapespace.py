import numpy as np
import pytest

from snakesim.errors import FileFormatError, InvalidParameter
from snakesim.shapespace import (
    GaitEllipse,
    SerpenoidPoint,
    gait_to_shape_sequence,
    read_gait_file,
    sample_gait,
    serpenoid_curvature,
    write_gait_file,
)


def test_serpenoid_curvature_values():
    assert serpenoid_curvature(SerpenoidPoint(0, 0), 1.0, 0.5) == 0.0
    assert serpenoid_curvature(SerpenoidPoint(0, 1), 1.0, 0.0) == pytest.approx(1.0)
    assert serpenoid_curvature(SerpenoidPoint(1, 0), 1.0, 0.25) == pytest.approx(1.0)


def test_sample_gait_circle_points():
    e = GaitEllipse(sigma=1.0, xc=0.0, yc=0.0, theta=0.0, a=1.0, xi=1.0)
    p0 = sample_gait(e, 0.0)
    assert (p0.w1, p0.w2) == pytest.approx((1.0, 0.0))
    pq = sample_gait(e, 0.25)
    assert (pq.w1, pq.w2) == pytest.approx((0.0, 1.0), abs=1e-15)


def test_sample_gait_periodic():
    rng = np.random.default_rng(8)
    for _ in range(10):
        e = GaitEllipse(
            sigma=rng.uniform(0, 1), xc=rng.normal(), yc=rng.normal(),
            theta=rng.uniform(0, np.pi), a=rng.uniform(0.5, 5), xi=rng.uniform(0.5, 2),
        )
        t = rng.uniform(0, 1)
        p, q = sample_gait(e, t), sample_gait(e, t + 1.0)
        assert abs(p.w1 - q.w1) < 1e-12 and abs(p.w2 - q.w2) < 1e-12


def test_circular_gait_has_constant_radius():
    rng = np.random.default_rng(9)
    e = GaitEllipse(sigma=1.0, xc=0.7, yc=-0.3, theta=rng.uniform(0, np.pi), a=2.3, xi=1.0)
    for t in rng.uniform(0, 1, size=50):
        p = sample_gait(e, t)
        assert np.hypot(p.w1 - 0.7, p.w2 + 0.3) == pytest.approx(2.3, abs=1e-12)


def test_gait_ellipse_rejects_non_finite_fields():
    fields = dict(sigma=1.0, xc=0.0, yc=0.0, theta=0.0, a=3.0, xi=1.0)
    for name in fields:
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidParameter, match=f"^{name} must be finite"):
                GaitEllipse(**{**fields, name: bad})


class TestGaitToShapeSequence:
    def test_degenerate_ellipse_gives_straight_lines(self):
        e = GaitEllipse(sigma=1.0, xc=0.0, yc=0.0, theta=0.0, a=1e-14, xi=1.0)
        shapes = gait_to_shape_sequence(e, timesteps=5, edges=6, body_length=0.92)
        for shape in shapes:
            assert np.max(np.abs(shape.vertices[:, 1])) < 1e-12
            assert shape.vertices[-1][0] == pytest.approx(0.92, abs=1e-12)

    def test_robot_discretization_shape(self):
        # 50 timesteps x 11 edges -> 50 shapes of 12 vertices
        e = GaitEllipse(sigma=0.8, xc=0.0, yc=0.0, theta=0.0, a=3.0, xi=1.0)
        shapes = gait_to_shape_sequence(e, timesteps=50, edges=11, body_length=0.92)
        assert len(shapes) == 50
        assert np.stack([shape.vertices for shape in shapes]).shape == (50, 12, 2)

    def test_bad_discretization_rejected(self):
        e = GaitEllipse(sigma=0.8, xc=0.0, yc=0.0, theta=0.0, a=3.0, xi=1.0)
        for timesteps, edges, length in (
            (1, 11, 0.92), (50, 1, 0.92), (50.5, 11, 0.92), (50, 11.5, 0.92), (50, 11, 0.0), (50, 11, np.nan), (50, 11, np.inf),
        ):
            with pytest.raises(InvalidParameter):
                gait_to_shape_sequence(e, timesteps, edges, length)

    def test_first_shape_is_t0_sample(self):
        from snakesim.geometry import curve_from_curvature

        e = GaitEllipse(sigma=0.6, xc=0.4, yc=0.1, theta=0.9, a=2.0, xi=1.4)
        shapes = gait_to_shape_sequence(e, timesteps=10, edges=8, body_length=1.0)
        p = sample_gait(e, 0.0)
        stations = np.arange(8) / 8
        expected = curve_from_curvature(serpenoid_curvature(p, e.xi, stations), 1.0)
        assert np.max(np.abs(shapes[0].vertices - expected.vertices)) < 1e-12

    def test_matches_per_shape_construction_bitwise(self):
        from snakesim.geometry import curve_from_curvature
        from snakesim.optimize import random_gait

        for seed, (timesteps, edges, length) in enumerate([(50, 11, 0.92), (7, 3, 1.3), (13, 6, 0.5)] * 4):
            e = random_gait(seed)
            shapes = gait_to_shape_sequence(e, timesteps, edges, length)
            stations = np.arange(edges) / edges
            assert len(shapes) == timesteps
            for j, shape in enumerate(shapes):
                kappa = serpenoid_curvature(sample_gait(e, j / timesteps), e.xi, stations)
                expected = curve_from_curvature(kappa, length)
                assert np.array_equal(shape.vertices, expected.vertices)
                assert np.array_equal(shape.tangents, expected.tangents)

    def test_cycle_stacks_are_the_closed_sequence_stacked(self):
        from snakesim.optimize import random_gait
        from snakesim.shapespace import _cycle_stacks

        for seed, (timesteps, edges, length) in enumerate([(50, 11, 0.92), (7, 3, 1.3), (4, 11, 0.92)] * 4):
            e = random_gait(seed)
            cycle = gait_to_shape_sequence(e, timesteps, edges, length)
            vertices, tangents = _cycle_stacks(e, timesteps, edges, length)
            assert np.array_equal(vertices, np.array([shape.vertices for shape in cycle + [cycle[0]]]))
            assert np.array_equal(tangents, np.array([shape.tangents for shape in cycle + [cycle[0]]]))

    def test_cycle_stacks_of_a_list_are_each_gaits_stacks(self):
        from snakesim.optimize import random_gait
        from snakesim.shapespace import _cycle_stacks

        for timesteps, edges, length in [(50, 11, 0.92), (7, 3, 1.3), (4, 11, 0.92)]:
            gaits = [random_gait(seed) for seed in range(9)]
            vertices, tangents = _cycle_stacks(gaits, timesteps, edges, length)
            assert vertices.shape == tangents.shape == (9, timesteps + 1, edges + 1, 2)
            for gait, verts, tangs in zip(gaits, vertices, tangents):
                one = _cycle_stacks(gait, timesteps, edges, length)
                assert verts.tobytes() == one[0].tobytes() and tangs.tobytes() == one[1].tobytes()

    def test_zero_coefficients_all_timesteps_identical(self):
        e = GaitEllipse(sigma=1.0, xc=0.0, yc=0.0, theta=0.0, a=1e-14, xi=1.0)
        shapes = gait_to_shape_sequence(e, timesteps=7, edges=5, body_length=1.0)
        for shape in shapes[1:]:
            assert np.max(np.abs(shape.vertices - shapes[0].vertices)) < 1e-12


class TestFiles:
    def test_gait_file_round_trip(self, tmp_path):
        e = GaitEllipse(sigma=0.55, xc=1.25, yc=-2.0, theta=1.1, a=4.5, xi=0.75)
        path = tmp_path / "gait.txt"
        write_gait_file(path, e, timesteps=50, edges=11, body_length=0.92)
        back, meta = read_gait_file(path)
        assert back == e
        assert meta["timesteps"] == 50 and meta["edges"] == 11
        assert meta["body_length"] == 0.92

    def test_gait_file_round_trip_from_numpy_scalars(self, tmp_path):
        e = GaitEllipse(sigma=0.55, xc=1.25, yc=-2.0, theta=1.1, a=4.5, xi=0.75)
        path = tmp_path / "gait.txt"
        write_gait_file(path, e, np.int64(50), np.int64(11), np.float64(0.92))
        assert "np." not in path.read_text()
        back, meta = read_gait_file(path)
        assert back == e
        assert meta == {"timesteps": 50, "edges": 11, "body_length": 0.92}

    def test_gait_file_without_metadata(self, tmp_path):
        path = tmp_path / "bare.txt"
        write_gait_file(path, GaitEllipse(0.5, 0, 0, 0, 1, 1))
        back, meta = read_gait_file(path)
        assert back.a == 1.0
        assert meta["timesteps"] is None

    def test_gait_file_writer_rejects_metadata_that_cannot_be_simulated(self, tmp_path):
        path = tmp_path / "bad.txt"
        e = GaitEllipse(0.5, 0, 0, 0, 1, 1)
        for meta in ((50.5, 11, -2.0), (50.5, None, None), (None, 1, None), (None, 11.5, None),
                     (None, None, -2.0), (None, None, np.inf), (None, None, np.nan)):
            with pytest.raises(InvalidParameter):
                write_gait_file(path, e, *meta)
            assert not path.exists()

    def test_gait_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("sigma = 0.5\nnot a line\n")
        with pytest.raises(FileFormatError):
            read_gait_file(path)
        path.write_text("sigma = 0.5\n")  # missing keys
        with pytest.raises(FileFormatError):
            read_gait_file(path)

    def test_gait_file_rejects_fractional_counts(self, tmp_path):
        path = tmp_path / "frac.txt"
        write_gait_file(path, GaitEllipse(0.5, 0, 0, 0, 1, 1))
        base = path.read_text()
        for line in ("timesteps = 2.7\n", "edges = 5.5\n"):
            path.write_text(base + line)
            with pytest.raises(FileFormatError):
                read_gait_file(path)

    def test_gait_file_rejects_repeated_keys(self, tmp_path):
        path = tmp_path / "twice.txt"
        write_gait_file(path, GaitEllipse(0.5, 0, 0, 0, 3, 1))
        path.write_text(path.read_text() + "a = 5.0\n")
        with pytest.raises(FileFormatError, match="twice.txt:7: second value for key 'a'"):
            read_gait_file(path)

    def test_gait_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "typo.txt"
        write_gait_file(path, GaitEllipse(0.5, 0, 0, 0, 1, 1))
        path.write_text(path.read_text() + "timestep = 80\n")  # a typo for timesteps
        with pytest.raises(FileFormatError, match="unknown key 'timestep'"):
            read_gait_file(path)
