import numpy as np
import pytest

from snakesim.analysis import (
    CLASS_LABELS,
    ClassDisplacements,
    PowerLog,
    cost_of_transport,
    performance_ratios,
    ratio_quotients,
    read_displacements_file,
    read_matrix_csv,
    read_power_csv,
    simulated_power_proxy,
    trial_stats,
    write_displacements_file,
    write_matrix_csv,
    write_power_csv,
)
from snakesim.dynamics import DissipationParams, integrate_motion_trajectory
from snakesim.errors import EmptyInput, FileFormatError, InvalidParameter, ShapeMismatch
from snakesim.geometry import PositionedShape


class TestClassDisplacements:
    def test_labels(self):
        assert CLASS_LABELS == ("Exp", "Sim", "Resim")
        for label in CLASS_LABELS:
            ClassDisplacements(label, [0.1, 0.2])
        with pytest.raises(InvalidParameter):
            ClassDisplacements("Measured", [0.1])

    def test_values_checked(self):
        with pytest.raises(EmptyInput):
            ClassDisplacements("Exp", [])
        with pytest.raises(InvalidParameter):
            ClassDisplacements("Exp", [0.1, float("nan")])


class TestPerformanceRatios:
    def test_equal_values_all_ones(self):
        delta = performance_ratios(ClassDisplacements("Exp", [2.0, 2.0]))
        assert np.array_equal(delta, np.ones((2, 2)))

    def test_four_and_two(self):
        delta = performance_ratios(ClassDisplacements("Sim", [4.0, 2.0]))
        assert np.array_equal(delta, [[1.0, 2.0], [0.5, 1.0]])

    def test_reciprocal_symmetry_and_unit_diagonal(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            values = rng.uniform(0.05, 3.0, size=rng.integers(2, 8))
            delta = performance_ratios(ClassDisplacements("Resim", values))
            assert np.allclose(delta * delta.T, 1.0)
            assert np.allclose(np.diag(delta), 1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidParameter):
            performance_ratios(ClassDisplacements("Exp", [0.5, 0.0]))
        with pytest.raises(InvalidParameter):
            performance_ratios(ClassDisplacements("Exp", [0.5, -0.1]))


class TestRatioQuotients:
    def test_identical_matrices(self):
        delta = performance_ratios(ClassDisplacements("Exp", [1.0, 2.0, 3.0]))
        xi, mean, std = ratio_quotients(delta, delta)
        assert np.array_equal(xi, np.ones((3, 3)))
        assert mean == 1.0
        assert std == 0.0

    def test_random_pair_against_direct_division(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            d_x = rng.uniform(0.2, 3.0, size=(3, 3))
            d_y = rng.uniform(0.2, 3.0, size=(3, 3))
            xi, mean, std = ratio_quotients(d_x, d_y)
            assert np.array_equal(xi, d_x / d_y)
            # two-pass recomputation of the off-diagonal statistics
            off = [xi[i, j] for i in range(3) for j in range(3) if i != j]
            m = sum(off) / len(off)
            s = (sum((v - m) ** 2 for v in off) / len(off)) ** 0.5
            assert mean == pytest.approx(m, rel=1e-14)
            assert std == pytest.approx(s, rel=1e-13)

    def test_swapping_inverts_elementwise(self):
        rng = np.random.default_rng(42)
        d_x = rng.uniform(0.2, 3.0, size=(4, 4))
        d_y = rng.uniform(0.2, 3.0, size=(4, 4))
        xi_xy, _, _ = ratio_quotients(d_x, d_y)
        xi_yx, _, _ = ratio_quotients(d_y, d_x)
        assert np.allclose(xi_xy, 1.0 / xi_yx)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ratio_quotients(np.ones((2, 2)), np.ones((3, 3)))

    def test_one_gait_has_no_off_diagonal(self):
        # a 1x1 matrix has only its diagonal: the statistics are those of perfect agreement
        xi, mean, std = ratio_quotients([[2.0]], [[4.0]])
        assert np.array_equal(xi, [[0.5]])
        assert (mean, std) == (1.0, 0.0)


class TestTrialStats:
    def test_constant(self):
        assert trial_stats([1.0, 1.0, 1.0]) == (1.0, 0.0)

    def test_two_point(self):
        assert trial_stats([0.0, 2.0]) == (1.0, 1.0)

    def test_against_two_pass_oracle(self):
        rng = np.random.default_rng(43)
        values = list(rng.normal(size=17))
        mean, std = trial_stats(values)
        m = sum(values) / len(values)
        s = (sum((v - m) ** 2 for v in values) / len(values)) ** 0.5
        assert mean == pytest.approx(m, rel=1e-14)
        assert std == pytest.approx(s, rel=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            trial_stats([])


class TestCostOfTransport:
    def test_balanced_inputs_give_one(self):
        assert cost_of_transport(1.38 * 9.81 * 0.1, 1.38, 9.81, 0.1) == pytest.approx(1.0)

    def test_linear_in_power(self):
        base = cost_of_transport(5.0, 1.38, 9.81, 0.1)
        assert cost_of_transport(10.0, 1.38, 9.81, 0.1) == pytest.approx(2.0 * base)

    def test_robot_scale_arithmetic(self):
        assert cost_of_transport(5.0, 1.38, 9.81, 0.1) == pytest.approx(
            5.0 / (1.38 * 9.81 * 0.1)
        )
        assert cost_of_transport(5.0, 1.38, 9.81, 0.1) == pytest.approx(3.693, abs=5e-4)

    def test_rescaling_power_and_speed_cancels(self):
        base = cost_of_transport(5.0, 1.38, 9.81, 0.1)
        for lam in (0.5, 2.0, 7.0):
            assert cost_of_transport(5.0 * lam, 1.38, 9.81, 0.1 * lam) == pytest.approx(base)

    def test_nonpositive_inputs_rejected(self):
        good = (5.0, 1.38, 9.81, 0.1)
        for k in range(4):
            for bad in (0.0, -1.0, np.nan, np.inf):
                args = list(good)
                args[k] = bad
                with pytest.raises(InvalidParameter):
                    cost_of_transport(*args)


class TestSimulatedPowerProxy:
    def test_stationary_trajectory(self):
        shape = PositionedShape.from_vertices(
            np.array([[0.0, 0.0], [0.3, 0.0], [0.6, 0.0]])
        )
        params = DissipationParams.uniform(1.38, 3, 0.5)
        traj = integrate_motion_trajectory([shape] * 4, params)
        assert simulated_power_proxy(traj, 2.0) == 0.0

    def test_inverse_in_duration(self):
        from snakesim.optimize import SimConfig, simulate_gait
        from snakesim.shapespace import GaitEllipse

        sim = SimConfig(timesteps=10, edges=5)
        params = DissipationParams.uniform(1.38, 6, 0.3)
        traj = simulate_gait(GaitEllipse(1.0, 0.0, 0.0, 0.0, 3.0, 1.0), sim, params)
        assert simulated_power_proxy(traj, 4.0) == pytest.approx(
            0.5 * simulated_power_proxy(traj, 2.0)
        )

    def test_nonpositive_duration_rejected(self):
        shape = PositionedShape.from_vertices(np.array([[0.0, 0], [0.3, 0]]))
        params = DissipationParams.uniform(1.38, 2, 0.5)
        traj = integrate_motion_trajectory([shape] * 2, params)
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InvalidParameter):
                simulated_power_proxy(traj, bad)

    def test_penalized_gait_is_no_less_efficient(self):
        # end-to-end: optimize with and without the energy penalty, then
        # compare proxy cost of transport at equal cycle duration
        from snakesim.dynamics import DissipationParams
        from snakesim.optimize import ObjectiveConfig, SimConfig, optimize_gait, random_gait, simulate_gait
        from snakesim.optimize import DEFAULT_BOUNDS

        sim = SimConfig(timesteps=20, edges=7)
        params = DissipationParams.uniform(1.38, 8, 0.25)
        seed = random_gait(13)
        duration, mass, gravity = 5.0, 1.38, 9.81
        cots = {}
        for c in (0.0, 2.5):
            cfg = ObjectiveConfig(params=params, sim=sim, dissipation_coefficient=c)
            best, _ = optimize_gait(seed, DEFAULT_BOUNDS, cfg, max_evaluations=100)
            traj = simulate_gait(best, sim, params)
            velocity = traj.net_displacement / duration
            cots[c] = cost_of_transport(
                simulated_power_proxy(traj, duration), mass, gravity, velocity
            )
        assert cots[2.5] <= cots[0.0]


class TestPowerLog:
    def test_mean_power(self):
        log = PowerLog(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        assert log.mean_power == 2.0

    def test_validation(self):
        with pytest.raises(FileFormatError, match="increasing"):
            PowerLog(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(InvalidParameter):
            PowerLog(np.array([0.0, 1.0]), np.array([1.0, -1.0]))
        with pytest.raises(ShapeMismatch):
            PowerLog(np.array([0.0, 1.0]), np.array([1.0]))

    def test_non_finite_samples_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(FileFormatError, match="finite"):
                PowerLog(np.array([0.0, 1.0, 2.0]), np.array([1.0, bad, 1.0]))
            with pytest.raises(FileFormatError, match="finite"):
                PowerLog(np.array([0.0, bad, 2.0]), np.array([1.0, 1.0, 1.0]))


class TestFileFormats:
    def test_displacements_round_trip(self, tmp_path):
        path = tmp_path / "delta.txt"
        values = np.array([0.27, 0.19, 0.33])
        write_displacements_file(path, values)
        assert np.array_equal(read_displacements_file(path), values)

    def test_displacements_errors(self, tmp_path):
        path = tmp_path / "delta.txt"
        path.write_text("0.1\noops\n")
        with pytest.raises(FileFormatError):
            read_displacements_file(path)
        path.write_text("")
        with pytest.raises(FileFormatError):
            read_displacements_file(path)

    def test_power_round_trip(self, tmp_path):
        path = tmp_path / "power.csv"
        log = PowerLog(np.array([0.0, 0.5, 1.0]), np.array([4.2, 4.4, 4.1]))
        write_power_csv(path, log)
        back = read_power_csv(path)
        assert np.array_equal(back.times, log.times)
        assert np.array_equal(back.power, log.power)
        assert path.read_text().splitlines()[0] == "time_s,power_w"

    def test_power_header_checked(self, tmp_path):
        path = tmp_path / "power.csv"
        path.write_text("t,w\n0.0,1.0\n")
        with pytest.raises(FileFormatError):
            read_power_csv(path)

    def test_matrix_round_trip(self, tmp_path):
        path = tmp_path / "xi.csv"
        matrix = np.array([[1.0, 2.0], [0.5, 1.0]])
        write_matrix_csv(path, matrix, labels=["g1", "g2"])
        back, labels = read_matrix_csv(path)
        assert np.array_equal(back, matrix)
        assert labels == ["g1", "g2"]

    def test_matrix_writer_needs_one_row_and_column_per_label(self, tmp_path):
        for matrix, labels in ((np.ones((2, 3)), None), (np.eye(3), ["a", "b"]), (np.ones(3), None)):
            with pytest.raises(ShapeMismatch):
                write_matrix_csv(tmp_path / "xi.csv", matrix, labels=labels)
        assert not (tmp_path / "xi.csv").exists()

    def test_matrix_must_be_square_in_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",g1,g2\ng1,1.0\n")
        with pytest.raises(FileFormatError):
            read_matrix_csv(path)
