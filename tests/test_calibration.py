import warnings
from dataclasses import replace

import numpy as np
import pytest

from snakesim.calibration import (
    AnisotropyFit,
    ComCurve,
    MocapTrajectory,
    com_curve,
    extract_shapes,
    fit_anisotropy,
    read_mocap_csv,
    read_weights_file,
    resimulate,
    rms_error,
    write_mocap_csv,
    write_weights_file,
)
from snakesim.dynamics import DissipationParams, geometric_momentum, integrate_motion_trajectory
from snakesim.errors import (
    EmptyInput,
    FileFormatError,
    InvalidAnisotropy,
    InvalidParameter,
    NonPositiveWeight,
    ShapeMismatch,
)
from snakesim.geometry import curve_from_curvature, tangents_from_vertices
from snakesim.optimize import random_gait
from snakesim.shapespace import GaitEllipse, gait_to_shape_sequence, sample_gait, serpenoid_curvature

BODY_LENGTH = 0.92
TOTAL_MASS = 1.38


def synthetic_mocap(epsilon, gait=None, timesteps=30, edges=9):
    """A marker recording produced by the simulator itself."""
    if gait is None:
        gait = GaitEllipse(sigma=1.0, xc=0.0, yc=0.0, theta=0.0, a=3.0, xi=1.0)
    cycle = gait_to_shape_sequence(gait, timesteps, edges, BODY_LENGTH)
    params = DissipationParams.uniform(TOTAL_MASS, edges + 1, epsilon)
    traj = integrate_motion_trajectory(cycle + [cycle[0]], params)
    times = np.linspace(0.0, 1.0, len(traj.vertices))
    return MocapTrajectory(times, traj.vertices), params


class TestExtractShapes:
    def test_translating_rod_keeps_shape_class(self):
        base = np.array([[0.0, 0.0], [0.3, 0.0], [0.6, 0.0]])
        frames = np.stack([base + [0.1 * t, 0.05 * t] for t in range(4)])
        shapes = extract_shapes(MocapTrajectory(np.arange(4.0), frames))
        for t, shape in enumerate(shapes):
            assert np.allclose(shape.tangents, [[1, 0]] * 3)
            assert np.allclose(shape.vertices[0, :2], [0.1 * t, 0.05 * t])

    def test_round_trip_through_marker_frames(self):
        mocap, params = synthetic_mocap(0.3, timesteps=10, edges=5)
        shapes = extract_shapes(mocap)
        for frame, shape in zip(mocap.frames, shapes):
            assert np.array_equal(shape.vertices[:, :2], frame)
            assert shape.vertices.shape == frame.shape
            assert np.array_equal(shape.tangents, tangents_from_vertices(frame))

    def test_downsampling_keeps_endpoints(self):
        rng = np.random.default_rng(30)
        frames = rng.normal(size=(150, 4, 2)).cumsum(axis=0) * 0.01 + [[0, 0], [0.3, 0], [0.6, 0], [0.9, 0]]
        mocap = MocapTrajectory(np.arange(150.0), frames)
        shapes = extract_shapes(mocap, target_steps=50)
        assert len(shapes) == 50
        assert np.array_equal(shapes[0].vertices[:, :2], frames[0])
        assert np.array_equal(shapes[-1].vertices[:, :2], frames[-1])
        kept = frames[np.round(np.linspace(0, 149, 50)).astype(int)]
        for frame, shape in zip(kept, shapes):
            assert np.array_equal(shape.vertices, frame)
            assert np.array_equal(shape.tangents, tangents_from_vertices(frame))

    def test_target_steps_must_be_a_positive_integer(self):
        mocap, _ = synthetic_mocap(0.3, timesteps=10, edges=5)
        for bad in (-1, 0, 2.5, 3.0, "3", np.float64(4.0)):
            with pytest.raises(InvalidParameter):
                extract_shapes(mocap, target_steps=bad)
        assert len(extract_shapes(mocap, target_steps=1)) == 1
        assert len(extract_shapes(mocap, target_steps=np.int64(4))) == 4

    def test_single_marker_rejected(self):
        mocap = MocapTrajectory(np.arange(3.0), np.zeros((3, 1, 2)))
        with pytest.raises(ShapeMismatch):
            extract_shapes(mocap)

    def test_constructor_validation(self):
        with pytest.raises(ShapeMismatch):
            MocapTrajectory(np.arange(2.0), np.zeros((2, 3)))
        with pytest.raises(ShapeMismatch):
            MocapTrajectory(np.arange(3.0), np.zeros((2, 3, 2)))
        with pytest.raises(FileFormatError):
            MocapTrajectory(np.array([0.0, 0.0]), np.zeros((2, 3, 2)))

    def test_non_finite_markers_rejected(self):
        for bad in (np.nan, np.inf):
            frames = np.zeros((3, 2, 2)) + [[0.0, 0.0], [0.3, 0.0]]
            frames[1, 0, 1] = bad
            with pytest.raises(FileFormatError):
                MocapTrajectory(np.arange(3.0), frames)

    def test_non_finite_timestamps_rejected(self):
        frames = np.zeros((3, 2, 2)) + [[0.0, 0.0], [0.3, 0.0]]
        for bad in (np.nan, np.inf):
            # a NaN last timestamp slips through a strictly-increasing check
            with pytest.raises(FileFormatError):
                MocapTrajectory(np.array([0.0, 1.0, bad]), frames)


class TestResimulate:
    def test_self_consistency(self):
        mocap, params = synthetic_mocap(0.25)
        traj = resimulate(mocap, params)
        source = com_curve(mocap, params.weights)
        redone = com_curve(traj, params.weights, times=mocap.times)
        assert np.max(np.linalg.norm(source.positions - redone.positions, axis=1)) < 1e-8 * BODY_LENGTH

    def test_one_frame_is_a_zero_step_trajectory(self):
        mocap, params = synthetic_mocap(0.3, timesteps=10, edges=5)
        traj = resimulate(MocapTrajectory(mocap.times[:1], mocap.frames[:1]), params)
        assert np.array_equal(traj.vertices, mocap.frames[:1]) and traj.step_energies.shape == (0,)

    def test_motionless_markers_stay_put(self):
        frame = np.array([[0.0, 0.0], [0.3, 0.1], [0.5, 0.3]])
        mocap = MocapTrajectory(np.arange(5.0), np.stack([frame] * 5))
        params = DissipationParams.uniform(TOTAL_MASS, 3, 0.4)
        traj = resimulate(mocap, params)
        for shape in traj.shapes:
            assert np.max(np.abs(shape.vertices[:, :2] - frame)) < 1e-12
        assert np.all(traj.step_energies == 0.0)

    def test_noisy_markers_still_solve_to_tolerance(self):
        rng = np.random.default_rng(31)
        mocap, params = synthetic_mocap(0.3, timesteps=20, edges=9)
        noisy = MocapTrajectory(mocap.times, mocap.frames + rng.normal(scale=1e-3, size=mocap.frames.shape))
        traj = resimulate(noisy, params)
        for prev, nxt in zip(traj.shapes, traj.shapes[1:]):
            mu = geometric_momentum(prev, nxt, params)
            residual = mu
            scale = params.weights.sum() * nxt.polyline_length
            assert np.linalg.norm(residual) <= 1e-10 * scale


class TestComCurve:
    def test_third_column_rejected(self):
        with pytest.raises(ShapeMismatch):
            ComCurve(np.arange(2.0), np.zeros((2, 3)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch, match="3 times for 2 positions"):
            ComCurve(np.arange(3.0), np.zeros((2, 2)))

    def test_two_markers_midpoint(self):
        frames = np.array([[[0.0, 0.0], [2.0, 0.0]], [[0.0, 2.0], [2.0, 2.0]]])
        curve = com_curve(MocapTrajectory(np.arange(2.0), frames), [1.0, 1.0])
        assert np.allclose(curve.positions, [[1.0, 0.0], [1.0, 2.0]])

    def test_weighted_mean(self):
        frames = np.array([[[0.0, 0.0], [4.0, 0.0]]])
        curve = com_curve(MocapTrajectory(np.array([0.0]), frames), [1.0, 3.0])
        assert np.allclose(curve.positions, [[3.0, 0.0]])

    def test_matches_trajectory_com_path(self):
        mocap, params = synthetic_mocap(0.3, timesteps=8, edges=5)
        traj = resimulate(mocap, params)
        curve = com_curve(traj, params.weights, times=mocap.times)
        assert np.allclose(curve.positions, traj.com_path(params.weights)[:, :2])
        assert np.array_equal(curve.times, mocap.times)

    def test_rejects_bad_weights(self):
        mocap, params = synthetic_mocap(0.3, timesteps=4, edges=2)
        traj = resimulate(mocap, params)
        for bad in (-1.0, 0.0, np.nan, np.inf, -np.inf):
            weights = [1.0, bad, 1.0]
            for source in (mocap, traj):
                with pytest.raises(NonPositiveWeight):
                    com_curve(source, weights)
        with pytest.raises(ShapeMismatch):
            com_curve(mocap, [1.0, 1.0])

    def test_displacement_magnitudes(self):
        curve = ComCurve(np.arange(3.0), np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]]))
        assert np.allclose(curve.displacement_magnitudes, [0.0, 5.0, 10.0])
        assert curve.final_displacement == 10.0


class TestRmsError:
    def test_identical_curves(self):
        curve = ComCurve(np.arange(4.0), np.random.default_rng(32).normal(size=(4, 2)))
        assert rms_error(curve, curve) == 0.0

    def test_constant_offset(self):
        rng = np.random.default_rng(33)
        a = ComCurve(np.arange(5.0), rng.normal(size=(5, 2)))
        d = 0.37
        b = ComCurve(a.times, a.positions + d * np.array([0.6, 0.8]))
        assert rms_error(a, b) == pytest.approx(d)

    def test_single_frame_distance(self):
        a = ComCurve(np.array([0.0]), np.array([[0.0, 0.0]]))
        b = ComCurve(np.array([0.0]), np.array([[3.0, 0.0]]))
        assert rms_error(a, b) == pytest.approx(3.0)

    def test_metric_properties(self):
        rng = np.random.default_rng(34)
        times = np.arange(6.0)
        for _ in range(20):
            a, b, c = (ComCurve(times, rng.normal(size=(6, 2))) for _ in range(3))
            assert abs(rms_error(a, b) - rms_error(b, a)) < 1e-12
            assert rms_error(a, c) <= rms_error(a, b) + rms_error(b, c) + 1e-12

    def test_resampling_is_linear(self):
        # a straight-line CoM sampled at two rates compares as equal
        fine_t = np.linspace(0.0, 1.0, 120)
        coarse_t = np.linspace(0.0, 1.0, 50)
        direction = np.array([0.3, -0.1])
        fine = ComCurve(fine_t, np.outer(fine_t, direction))
        coarse = ComCurve(coarse_t, np.outer(coarse_t, direction))
        assert rms_error(fine, coarse) < 1e-12

    def test_empty_curve_rejected(self):
        empty = ComCurve(np.array([]), np.zeros((0, 2)))
        full = ComCurve(np.array([0.0]), np.zeros((1, 2)))
        with pytest.raises(EmptyInput):
            rms_error(empty, full)


class TestFitAnisotropy:
    def test_recovers_published_average_ratio(self):
        mocap, params = synthetic_mocap(0.1865)
        fit = fit_anisotropy(mocap, params.weights)
        assert abs(fit.epsilon - 0.1865) < 1e-3
        # noise-free data: the best candidate's curve error is tiny relative
        # to the ~0.23 m traveled
        assert fit.rms < 1e-5

    def test_truth_at_bound_is_recovered(self):
        mocap, params = synthetic_mocap(0.25)
        fit = fit_anisotropy(mocap, params.weights, bounds=(0.25, 1.0))
        assert abs(fit.epsilon - 0.25) < 1e-3

    def test_gait_independence(self):
        gaits = [
            GaitEllipse(sigma=1.0, xc=0.0, yc=0.0, theta=0.0, a=3.0, xi=1.0),
            GaitEllipse(sigma=0.6, xc=0.5, yc=-0.3, theta=0.8, a=2.0, xi=1.4),
        ]
        for gait in gaits:
            mocap, params = synthetic_mocap(0.3, gait=gait)
            fit = fit_anisotropy(mocap, params.weights)
            assert abs(fit.epsilon - 0.3) < 2e-3

    def test_curves_are_the_evaluated_resimulations(self):
        mocap, params = synthetic_mocap(0.3, timesteps=8, edges=5)
        fit = fit_anisotropy(mocap, params.weights)
        assert len(fit.curves) == len(fit.evaluations)
        for (eps, rms, displacement), curve in list(zip(fit.evaluations, fit.curves))[::4]:
            fresh = com_curve(resimulate(mocap, DissipationParams(params.weights, eps)),
                              params.weights, times=mocap.times)
            assert np.array_equal(curve.times, fresh.times)
            assert np.array_equal(curve.positions, fresh.positions)
            assert displacement == curve.final_displacement
            assert rms == rms_error(curve, com_curve(mocap, params.weights))

    def test_extracts_the_marker_shapes_once_per_fit(self, monkeypatch):
        # the frames are stacked, given tangents and prepared for the solve once; every solve reuses them
        import snakesim.calibration as cal

        calls = {"tangents_from_vertices": [], "_stack_pairs": [], "_integrate_stacks": []}

        def counting(name):
            original = getattr(cal, name)

            def counted(*args, **kwargs):
                calls[name].append(args)
                return original(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(cal, name, counting(name))
        mocap, params = synthetic_mocap(0.3, timesteps=6, edges=4)
        fit = cal.fit_anisotropy(mocap, params.weights)
        assert len(fit.evaluations) > cal.GRID_POINTS
        assert len(calls["tangents_from_vertices"]) == len(calls["_stack_pairs"]) == 1
        pairs = calls["_stack_pairs"][0]
        solves = calls["_integrate_stacks"]
        # the grid in one solve, then one solve per Gauss-Newton step, all on the same stacks and prepared pairs
        assert [len(args[2]) for args in solves] == [cal.GRID_POINTS] + [1] * (len(fit.evaluations) - cal.GRID_POINTS)
        assert all(args[0] is pairs[0] and args[1] is pairs[1] and args[3] is not None for args in solves)

    def test_fewer_than_two_frames_rejected_before_any_evaluation(self, monkeypatch):
        import snakesim.calibration as cal

        def never(*args, **kwargs):
            raise AssertionError("a ratio was evaluated")

        monkeypatch.setattr(cal, "_integrate_stacks", never)
        mocap, params = synthetic_mocap(0.3, timesteps=6, edges=4)
        with pytest.raises(EmptyInput, match="at least 2 frames"):
            cal.fit_anisotropy(MocapTrajectory(mocap.times[:1], mocap.frames[:1]), params.weights)

    @staticmethod
    def one_at_a_time_fit(mocap, weights, bounds=(0.01, 1.0)):
        """The fit as a reference loop: one `resimulate` per ratio, the grid first, then secant Gauss-Newton steps."""
        import snakesim.calibration as cal

        measured = com_curve(mocap, weights)
        history, curves = [], []

        def evaluate(epsilon):
            curve = com_curve(resimulate(mocap, DissipationParams(weights, epsilon)), weights, times=mocap.times)
            history.append((epsilon, rms_error(curve, measured), curve.final_displacement))
            curves.append(curve)
            return curve

        grid = np.geomspace(bounds[0], bounds[1], cal.GRID_POINTS).tolist()
        for eps in grid:
            evaluate(eps)
        k = int(np.argmin([rms for _, rms, _ in history]))
        lower, upper = grid[max(k - 1, 0)], grid[min(k + 1, cal.GRID_POINTS - 1)]
        j = min((i for i in (k - 1, k + 1) if 0 <= i < cal.GRID_POINTS), key=lambda i: history[i][1])
        (eps0, curve0), (eps1, curve1) = (grid[j], curves[j]), (grid[k], curves[k])
        for _ in range(cal.MAX_REFINE_STEPS):
            change = curve1.positions - curve0.positions
            if np.max(np.abs(change)) <= cal.CURVE_RTOL * np.max(np.abs(curve1.positions)):
                break
            slope = change / (eps1 - eps0)
            epsilon = eps1 - float(np.sum(slope * (curve1.positions - measured.positions)) / np.sum(slope * slope))
            if epsilon <= lower or epsilon >= upper:
                epsilon = (eps1 + (lower if epsilon <= lower else upper)) / 2
            if epsilon in [eps for eps, _, _ in history]:
                break
            (eps0, curve0), (eps1, curve1) = (eps1, curve1), (epsilon, evaluate(epsilon))
            if abs(eps1 - eps0) <= cal.REFINE_TOL:
                break
        best = min(history, key=lambda rec: rec[1])
        return AnisotropyFit(best[0], best[1], history, curves)

    def test_bitwise_equal_to_the_one_at_a_time_fit(self):
        # the grid solved at once and the prepared recording change no bit of the fit
        cases = [synthetic_mocap(eps) for eps in (0.05, 0.1865, 0.7)]
        cases.append(synthetic_mocap(0.3, gait=GaitEllipse(sigma=0.6, xc=0.5, yc=-0.3, theta=0.8, a=2.0, xi=1.4)))
        rng = np.random.default_rng(7)
        for mocap, params in cases:
            weights = params.weights * rng.uniform(0.5, 1.5, len(params.weights))
            for bounds in ((0.01, 1.0), (0.1, 0.6)):
                expected, found = self.one_at_a_time_fit(mocap, weights, bounds), fit_anisotropy(mocap, weights, bounds)
                assert (found.epsilon, found.rms) == (expected.epsilon, expected.rms)
                assert found.evaluations == expected.evaluations
                assert len(found.curves) == len(expected.curves)
                for one, other in zip(found.curves, expected.curves):
                    assert one.times.tobytes() == other.times.tobytes()
                    assert one.positions.tobytes() == other.positions.tobytes()

    def test_bad_weights_raise_before_any_solve(self, monkeypatch):
        # a typed error, before the recording is prepared or any ratio solved
        import snakesim.calibration as cal

        def never(*args, **kwargs):
            raise AssertionError("the recording was prepared or solved")

        monkeypatch.setattr(cal, "_stack_pairs", never)
        monkeypatch.setattr(cal, "_integrate_stacks", never)
        mocap, params = synthetic_mocap(0.3, timesteps=6, edges=4)
        for weights, error in ((np.full(5, np.nan), NonPositiveWeight), (-params.weights, NonPositiveWeight),
                               (params.weights[:-1], ShapeMismatch)):
            with pytest.raises(error):
                cal.fit_anisotropy(mocap, weights)
            with pytest.raises(error):
                cal.resimulate(mocap, DissipationParams(weights, 0.3))

    def test_invalid_bounds(self):
        mocap, params = synthetic_mocap(0.3, timesteps=6, edges=4)
        for bounds in ((0.0, 1.0), (0.5, 0.2), (0.1, 1.5)):
            with pytest.raises(InvalidAnisotropy):
                fit_anisotropy(mocap, params.weights, bounds=bounds)

    def test_turning_gait_with_non_monotone_displacement(self):
        # A turning gait whose amplitude ramps over the recording: its final
        # CoM displacement dips near 0.05 and is nearly flat from 0.10 to
        # 0.14, so it matches the recorded value at more than one ratio and
        # only the whole CoM curve tells them apart.
        epsilon, edges, frames = 0.10148888202713702, 11, 61
        gait = random_gait(955111941)
        stations = np.arange(edges) / edges
        shapes = []
        for j in range(frames):
            point = sample_gait(replace(gait, a=gait.a * (0.75 + 0.5 * j / (frames - 1))), j / 50)
            shapes.append(curve_from_curvature(serpenoid_curvature(point, gait.xi, stations), BODY_LENGTH))
        params = DissipationParams.uniform(TOTAL_MASS, edges + 1, epsilon)
        traj = integrate_motion_trajectory(shapes, params)
        mocap = MocapTrajectory(0.02 * np.arange(frames), traj.vertices)
        fit = fit_anisotropy(mocap, params.weights)
        assert abs(fit.epsilon - epsilon) < 1e-3

    @pytest.mark.parametrize("velocity", [(0.0, 0.0), (1.0, 0.3), (0.0, -1.0)])
    def test_recording_whose_com_no_ratio_moves_stops_at_the_grid(self, velocity):
        # one shape held still or moved rigidly: every ratio resimulates the
        # same CoM curve up to rounding, so the fit is the grid's least-RMS
        # ratio and no step is solved past the grid (along -y the curves'
        # rounding differs between ratios, and a stop on an exactly zero J.J
        # would take steps on it)
        import snakesim.calibration as cal

        mocap, params = synthetic_mocap(0.3, timesteps=8, edges=5)
        shift = np.linspace(0.0, 0.5, len(mocap.times))[:, None, None] * velocity
        frames = np.repeat(mocap.frames[:1], len(mocap.times), axis=0) + shift
        fit = cal.fit_anisotropy(MocapTrajectory(mocap.times, frames), params.weights)
        assert len(fit.evaluations) == len(fit.curves) == cal.GRID_POINTS
        assert (fit.epsilon, fit.rms) == min(fit.evaluations, key=lambda record: record[1])[:2]
        # each resimulation holds the first pose, so the RMS is that of the measured CoM's displacement
        measured = com_curve(MocapTrajectory(mocap.times, frames), params.weights)
        assert fit.rms == pytest.approx(np.sqrt(np.mean(measured.displacement_magnitudes ** 2)), rel=1e-12, abs=1e-15)

    def test_marker_noise_ends_near_the_truth_and_below_the_grid(self):
        mocap, params = synthetic_mocap(0.1865)
        rng = np.random.default_rng(3)
        noisy = MocapTrajectory(mocap.times, mocap.frames + rng.normal(scale=1e-4, size=mocap.frames.shape))
        fit = fit_anisotropy(noisy, params.weights)
        assert abs(fit.epsilon - 0.1865) < 1e-3
        assert fit.rms <= min(rms for _, rms, _ in fit.evaluations[:6])

    def test_rms_minimum_is_found_when_displacement_is_v_shaped(self, monkeypatch):
        import snakesim.calibration as cal

        def synthetic(recording, epsilons):
            # The CoM curve of a ratio runs 0.3 - epsilon off the measured one,
            # so RMS has its minimum at 0.3, while displacement is V-shaped
            # about 0.4: the fit follows the RMS alone, without a warning.
            evaluations = []
            for epsilon in epsilons:
                curve = ComCurve(recording.curve.times, recording.curve.positions + [0.3 - epsilon, 0.0])
                evaluations.append(((epsilon, rms_error(curve, recording.curve), 0.1 + abs(epsilon - 0.4)), curve))
            return evaluations

        monkeypatch.setattr(cal, "_evaluate", synthetic)
        mocap, params = synthetic_mocap(0.3, timesteps=6, edges=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = cal.fit_anisotropy(mocap, params.weights)
        assert abs(fit.epsilon - 0.3) < 1e-3


class TestFileFormats:
    def test_mocap_round_trip(self, tmp_path):
        mocap, _ = synthetic_mocap(0.3, timesteps=6, edges=4)
        path = tmp_path / "mocap.csv"
        write_mocap_csv(path, mocap)
        back = read_mocap_csv(path)
        assert np.array_equal(back.times, mocap.times)
        assert np.array_equal(back.frames, mocap.frames)

    def test_header_must_name_time_and_marker_pairs(self, tmp_path):
        bad_headers = [
            "t,m0_x,m0_y",  # wrong time column name
            "time_s,m0_x",  # dangling coordinate
            "time_s",  # no markers at all
        ]
        for text in bad_headers:
            path = tmp_path / "bad.csv"
            path.write_text(text + "\n0.0,0.0,0.0\n")
            with pytest.raises(FileFormatError):
                read_mocap_csv(path)

    def test_rejects_ragged_and_non_numeric_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("time_s,m0_x,m0_y\n0.0,1.0\n")
        with pytest.raises(FileFormatError):
            read_mocap_csv(path)
        path.write_text("time_s,m0_x,m0_y\n0.0,1.0,spam\n")
        with pytest.raises(FileFormatError):
            read_mocap_csv(path)
        path.write_text("time_s,m0_x,m0_y\n")
        with pytest.raises(FileFormatError):
            read_mocap_csv(path)

    def test_rejects_nan_cells(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("time_s,m0_x,m0_y,m1_x,m1_y\n0.0,0.0,0.0,0.3,0.0\n1.0,nan,0.0,0.3,0.0\n")
        with pytest.raises(FileFormatError):
            read_mocap_csv(path)
        path.write_text("time_s,m0_x,m0_y,m1_x,m1_y\n0.0,0.0,0.0,0.3,0.0\nnan,0.0,0.0,0.3,0.0\n")
        with pytest.raises(FileFormatError):
            read_mocap_csv(path)

    def test_weights_round_trip(self, tmp_path):
        path = tmp_path / "weights.txt"
        weights = np.array([0.115, 0.115, 0.12, 0.11])
        write_weights_file(path, weights)
        assert np.array_equal(read_weights_file(path), weights)

    def test_weights_comments_and_errors(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("# segment masses in kg\n0.115\n\n0.2\n")
        assert np.array_equal(read_weights_file(path), [0.115, 0.2])
        path.write_text("0.115  # head\n0.2\n")  # text after # is a comment, as in gait files
        assert np.array_equal(read_weights_file(path), [0.115, 0.2])
        path.write_text("0.1\nnot-a-weight\n")
        with pytest.raises(FileFormatError):
            read_weights_file(path)
        path.write_text("# nothing\n")
        with pytest.raises(FileFormatError):
            read_weights_file(path)
