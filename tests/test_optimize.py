import numpy as np
import pytest

from snakesim.dynamics import DissipationParams, geometric_momentum, integrate_motion_trajectory
from snakesim.errors import DegenerateJacobian, FileFormatError, NoConvergence, NonFiniteLoss, ShapeMismatch
from snakesim.optimize import (
    DEFAULT_BOUNDS,
    DISSIPATION_COEFFICIENT_GRID,
    EvaluationRecord,
    GaitBounds,
    ObjectiveConfig,
    SimConfig,
    evaluate_gait,
    gait_loss,
    net_displacement,
    optimize_gait,
    random_gait,
    read_report_csv,
    simulate_gait,
    write_report_csv,
)
from snakesim.geometry import RigidMotion, rigid_registration
from snakesim.shapespace import GaitEllipse, gait_to_shape_sequence

REFERENCE_GAIT = GaitEllipse(sigma=1.0, xc=0.0, yc=0.0, theta=0.0, a=3.0, xi=1.0)

# net CoM travel of the reference gait over one 50-step cycle at the fitted
# anisotropy ratio; frozen from a solver run after the integrator itself was
# checked against independent oracles (see test_dynamics)
REFERENCE_DISPLACEMENT_M = 0.22966538925619195


def small_cfg(c=0.0, fixed_xi=None, epsilon=0.25, timesteps=20, edges=7):
    sim = SimConfig(timesteps=timesteps, edges=edges, body_length=0.92)
    params = DissipationParams.uniform(1.38, sim.num_vertices, epsilon)
    return ObjectiveConfig(params=params, sim=sim, dissipation_coefficient=c, fixed_xi=fixed_xi)


def default_cfg(epsilon=0.1865):
    sim = SimConfig()
    return ObjectiveConfig(params=DissipationParams.uniform(1.38, sim.num_vertices, epsilon), sim=sim)


class TestGaitBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            GaitBounds(sigma=(0.8, 0.2))
        with pytest.raises(ValueError):
            GaitBounds(sigma=(-0.1, 1.0))
        with pytest.raises(ValueError):
            GaitBounds(sigma=(0.0, 1.2))
        with pytest.raises(ValueError):
            GaitBounds(a=(0.0, 8.0))
        with pytest.raises(ValueError):
            GaitBounds(xi=(-0.5, 2.0))

    def test_contains(self):
        assert DEFAULT_BOUNDS.contains(REFERENCE_GAIT)
        assert not DEFAULT_BOUNDS.contains(REFERENCE_GAIT.with_xi(5.0))

    def test_coefficient_grid(self):
        assert DISSIPATION_COEFFICIENT_GRID == (0.0, 0.5, 1.0, 1.5, 1.7, 2.0, 2.5)


class TestRandomGait:
    def test_degenerate_bounds_give_exact_point(self):
        bounds = GaitBounds(
            sigma=(0.7, 0.7), xc=(0.1, 0.1), yc=(-0.2, -0.2),
            theta=(1.0, 1.0), a=(3.0, 3.0), xi=(1.5, 1.5),
        )
        gait = random_gait(12345, bounds)
        assert gait == GaitEllipse(0.7, 0.1, -0.2, 1.0, 3.0, 1.5)

    def test_seed_determinism(self):
        assert random_gait(7) == random_gait(7)
        assert random_gait(7) != random_gait(8)

    def test_sigma_sample_mean(self):
        bounds = GaitBounds(sigma=(0.0, 1.0))
        sigmas = [random_gait(seed, bounds).sigma for seed in range(1000)]
        assert abs(np.mean(sigmas) - 0.5) < 0.05


class TestNetDisplacement:
    def test_degenerate_gait_goes_nowhere(self):
        gait = GaitEllipse(sigma=0.5, xc=0.4, yc=-0.8, theta=0.3, a=0.0, xi=1.0)
        assert net_displacement(gait, small_cfg()) == 0.0

    def test_isotropic_friction_goes_nowhere(self):
        cfg = default_cfg(epsilon=1.0)
        assert net_displacement(REFERENCE_GAIT, cfg) < 1e-9 * cfg.sim.body_length

    def test_reference_gait_regression_value(self):
        disp = net_displacement(REFERENCE_GAIT, default_cfg())
        assert disp > 0.0
        assert disp == pytest.approx(REFERENCE_DISPLACEMENT_M, rel=1e-6)


class TestGaitLoss:
    def test_zero_coefficient_is_negative_displacement(self):
        cfg = small_cfg(c=0.0)
        loss, displacement, energy = evaluate_gait(REFERENCE_GAIT, cfg)
        assert loss == -displacement
        assert gait_loss(REFERENCE_GAIT, cfg) == -net_displacement(REFERENCE_GAIT, cfg)

    def test_stationary_gait_scores_zero(self):
        gait = GaitEllipse(sigma=0.5, xc=0.0, yc=0.0, theta=0.0, a=0.0, xi=1.0)
        for c in (0.0, 1.7, 1e6):
            assert gait_loss(gait, small_cfg(c=c)) == 0.0

    def test_fixed_xi_substitution(self):
        pinned = small_cfg(fixed_xi=1.3)
        free = small_cfg()
        assert gait_loss(REFERENCE_GAIT, pinned) == gait_loss(REFERENCE_GAIT.with_xi(1.3), free)

    def test_evaluation_is_pure(self):
        cfg = small_cfg(c=1.7)
        first = evaluate_gait(REFERENCE_GAIT, cfg)
        second = evaluate_gait(REFERENCE_GAIT, cfg)
        assert first == second


class TestObjectiveConfigValidation:
    def test_negative_coefficient_rejected(self):
        sim = SimConfig(timesteps=10, edges=5)
        params = DissipationParams.uniform(1.38, 6, 0.3)
        with pytest.raises(ValueError):
            ObjectiveConfig(params=params, sim=sim, dissipation_coefficient=-0.5)

    def test_weight_count_must_match_vertices(self):
        sim = SimConfig(timesteps=10, edges=5)
        with pytest.raises(ShapeMismatch):
            ObjectiveConfig(params=DissipationParams.uniform(1.38, 4, 0.3), sim=sim)

    def test_sim_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(timesteps=1)
        with pytest.raises(ValueError):
            SimConfig(edges=1)
        with pytest.raises(ValueError):
            SimConfig(body_length=0.0)
        with pytest.raises(ValueError):
            SimConfig(cycles=0)


def quadratic_surrogate(minimum):
    """A stand-in objective with a known unique minimizer (no simulation)."""
    target = np.array([getattr(minimum, n) for n in ("sigma", "xc", "yc", "theta", "a", "xi")])

    def fake_evaluate(gait, cfg):
        v = np.array([getattr(gait, n) for n in ("sigma", "xc", "yc", "theta", "a", "xi")])
        loss = float(np.sum((v - target) ** 2))
        return loss, 0.0, 0.0

    return fake_evaluate


class TestOptimizeGait:
    def test_seed_at_optimum_is_returned(self, monkeypatch):
        import snakesim.optimize as opt

        seed = GaitEllipse(0.6, 0.0, 0.0, 1.5, 4.0, 1.2)
        monkeypatch.setattr(opt, "evaluate_gait", quadratic_surrogate(seed))
        best, history = opt.optimize_gait(seed, DEFAULT_BOUNDS, small_cfg())
        for name in ("sigma", "xc", "yc", "theta", "a", "xi"):
            assert abs(getattr(best, name) - getattr(seed, name)) <= 1e-3

    def test_finds_interior_quadratic_minimum(self, monkeypatch):
        import snakesim.optimize as opt

        seed = GaitEllipse(0.6, 0.0, 0.0, 1.5, 4.0, 1.2)
        target = GaitEllipse(0.45, 1.0, -1.0, 2.0, 5.5, 0.9)
        monkeypatch.setattr(opt, "evaluate_gait", quadratic_surrogate(target))
        best, history = opt.optimize_gait(seed, DEFAULT_BOUNDS, small_cfg())
        lo, hi = DEFAULT_BOUNDS.as_arrays()
        v_best = np.array([getattr(best, n) for n in ("sigma", "xc", "yc", "theta", "a", "xi")])
        v_target = np.array([getattr(target, n) for n in ("sigma", "xc", "yc", "theta", "a", "xi")])
        assert np.max(np.abs(v_best - v_target) / (hi - lo)) < 5e-3

    def test_never_worse_than_seed(self):
        cfg = small_cfg()
        seed = random_gait(3)
        best, history = optimize_gait(seed, DEFAULT_BOUNDS, cfg, max_evaluations=60)
        assert history[0].gait == seed
        assert min(rec.loss for rec in history) == gait_loss(best, cfg)
        assert gait_loss(best, cfg) <= history[0].loss

    def test_zero_coefficient_grows_displacement(self):
        cfg = small_cfg(c=0.0)
        seed = random_gait(11)
        best, history = optimize_gait(seed, DEFAULT_BOUNDS, cfg, max_evaluations=100)
        assert net_displacement(best, cfg) >= net_displacement(seed, cfg)

    def test_fixed_xi_is_exact_in_result(self):
        cfg = small_cfg(fixed_xi=1.25)
        best, history = optimize_gait(random_gait(5), DEFAULT_BOUNDS, cfg, max_evaluations=40)
        assert best.xi == 1.25
        assert all(rec.gait.xi == 1.25 for rec in history)

    def test_fixed_xi_outside_bounds_rejected(self):
        cfg = small_cfg(fixed_xi=3.0)
        with pytest.raises(ValueError):
            optimize_gait(random_gait(5), DEFAULT_BOUNDS, cfg)

    def test_degenerate_bounds_single_evaluation(self):
        point = GaitEllipse(0.7, 0.1, -0.2, 1.0, 3.0, 1.5)
        bounds = GaitBounds(
            sigma=(0.7, 0.7), xc=(0.1, 0.1), yc=(-0.2, -0.2),
            theta=(1.0, 1.0), a=(3.0, 3.0), xi=(1.5, 1.5),
        )
        best, history = optimize_gait(point, bounds, small_cfg())
        assert best == point
        assert len(history) == 1

    def test_energy_penalty_suppresses_energy(self):
        seed = random_gait(21)
        cfg_free = small_cfg(c=0.0)
        _, history_free = optimize_gait(seed, DEFAULT_BOUNDS, cfg_free, max_evaluations=100)
        best_free = min(history_free, key=lambda rec: rec.loss)
        cfg_pen = small_cfg(c=2.5)
        _, history_pen = optimize_gait(seed, DEFAULT_BOUNDS, cfg_pen, max_evaluations=100)
        best_pen = min(history_pen, key=lambda rec: rec.loss)
        assert best_pen.energy <= best_free.energy

    def test_huge_penalty_drives_energy_to_zero(self):
        seed = random_gait(21)
        cfg = small_cfg(c=1e6)
        seed_energy = evaluate_gait(seed, cfg)[2]
        best, history = optimize_gait(seed, DEFAULT_BOUNDS, cfg, max_evaluations=100)
        best_energy = min(history, key=lambda rec: rec.loss).energy
        assert best_energy < 0.01 * seed_energy

    def test_non_finite_loss_aborts_with_gait(self, monkeypatch):
        import snakesim.optimize as opt

        def bad_evaluate(gait, cfg):
            return float("nan"), 0.0, 0.0

        monkeypatch.setattr(opt, "evaluate_gait", bad_evaluate)
        with pytest.raises(NonFiniteLoss) as info:
            opt.optimize_gait(random_gait(5), DEFAULT_BOUNDS, small_cfg())
        assert info.value.gait is not None

    def test_evaluation_budget_respected(self):
        cfg = small_cfg()
        _, history = optimize_gait(random_gait(9), DEFAULT_BOUNDS, cfg, max_evaluations=25)
        assert len(history) <= 25 + 1  # scipy may finish the in-flight iteration

    # DegenerateJacobian is an alias of NoConvergence, so the ids name the spelling used
    @pytest.mark.parametrize("failure", [NoConvergence, DegenerateJacobian], ids=["NoConvergence", "DegenerateJacobian"])
    def test_solver_failure_keeps_history(self, monkeypatch, failure):
        import snakesim.optimize as opt

        fail_at = 6
        calls = []

        def fails_late(gait, cfg):
            calls.append(gait)
            if len(calls) == fail_at:
                raise failure("timestep 4: synthetic stall")
            return evaluate_gait(gait, cfg)

        monkeypatch.setattr(opt, "evaluate_gait", fails_late)
        with pytest.raises(failure) as info:
            opt.optimize_gait(random_gait(5), DEFAULT_BOUNDS, small_cfg())
        history = info.value.history
        assert [rec.iteration for rec in history] == list(range(fail_at - 1))
        assert [rec.gait for rec in history] == calls[:-1]
        for rec in history:
            assert (rec.loss, rec.displacement, rec.energy) == evaluate_gait(rec.gait, small_cfg())


class TestSimulateGait:
    def test_cycle_closes_on_start_shape(self):
        cfg = small_cfg()
        traj = simulate_gait(REFERENCE_GAIT, cfg.sim, cfg.params)
        assert len(traj.shapes) == cfg.sim.timesteps + 1
        first, last = traj.shapes[0], traj.shapes[-1]
        # same shape class at both ends: edge vectors agree after alignment
        first_edges = np.diff(first.vertices, axis=0)
        last_edges = np.diff(last.vertices, axis=0)
        assert np.allclose(np.linalg.norm(first_edges, axis=1), np.linalg.norm(last_edges, axis=1))

    def test_multiple_cycles_scale_length(self):
        sim = SimConfig(timesteps=10, edges=5, cycles=3)
        params = DissipationParams.uniform(1.38, 6, 0.3)
        traj = simulate_gait(REFERENCE_GAIT, sim, params)
        assert len(traj.shapes) == 31

    def test_one_cycle_is_the_direct_integration(self):
        for seed, epsilon in ((0, 0.05), (1, 0.1865), (2, 0.9)):
            gait = random_gait(seed)
            cfg = small_cfg(epsilon=epsilon)
            traj = simulate_gait(gait, cfg.sim, cfg.params)
            cycle = gait_to_shape_sequence(gait, cfg.sim.timesteps, cfg.sim.edges, cfg.sim.body_length)
            direct = integrate_motion_trajectory(cycle + [cycle[0]], cfg.params)
            assert len(traj.shapes) == len(direct.shapes)
            for ours, ref in zip(traj.shapes, direct.shapes):
                assert np.array_equal(ours.vertices, ref.vertices)
                assert np.array_equal(ours.tangents, ref.tangents)
            assert np.array_equal(traj.step_energies, direct.step_energies)

    def test_later_cycles_are_the_first_moved_by_powers_of_its_net_motion(self):
        timesteps, cycles = 15, 3
        for seed in (6, 7, 8, 9):
            cfg = small_cfg(epsilon=0.2, timesteps=timesteps)
            sim = SimConfig(timesteps, cfg.sim.edges, cfg.sim.body_length, cycles)
            traj = simulate_gait(random_gait(seed), sim, cfg.params)
            assert traj.vertices.shape == (cycles * timesteps + 1, sim.num_vertices, 2)
            net = rigid_registration(traj.vertices[0], traj.vertices[timesteps], cfg.params.weights)
            power = RigidMotion()
            for k in range(cycles):
                for j in range(1, timesteps + 1):
                    vertices, tangents = power.move(traj.vertices[j], traj.tangents[j])
                    assert np.array_equal(traj.vertices[k * timesteps + j], vertices)
                    assert np.array_equal(traj.tangents[k * timesteps + j], tangents)
                power = net if k == 0 else net.compose(power)

    @pytest.mark.parametrize("cycles", [2, 5, 12])
    def test_later_cycles_match_step_by_step_solve(self, cycles):
        timesteps = 20
        for seed, epsilon in ((3, 0.05), (4, 0.1865), (5, 0.5)):
            gait = random_gait(seed)
            cfg = small_cfg(epsilon=epsilon, timesteps=timesteps)
            sim = SimConfig(timesteps, cfg.sim.edges, cfg.sim.body_length, cycles)
            params = cfg.params
            traj = simulate_gait(gait, sim, params)
            cycle = gait_to_shape_sequence(gait, timesteps, sim.edges, sim.body_length)
            solved = integrate_motion_trajectory(cycle * cycles + [cycle[0]], params)
            assert len(traj.shapes) == cycles * timesteps + 1

            gap = max(np.max(np.abs(ours.vertices - ref.vertices))
                      for ours, ref in zip(traj.shapes, solved.shapes))
            assert gap <= 1e-8 * sim.body_length * cycles
            for prev, nxt in zip(traj.shapes[:-1], traj.shapes[1:]):
                tol = 1e-10 * params.weights.sum() * nxt.polyline_length
                assert np.linalg.norm(geometric_momentum(prev, nxt, params)) <= tol

            per_cycle = traj.step_energies.reshape(cycles, timesteps)
            for k in range(cycles):
                assert np.array_equal(per_cycle[k], per_cycle[0])
            assert np.allclose(traj.step_energies, solved.step_energies, rtol=1e-10, atol=0.0)


class TestReportFile:
    def test_round_trip(self, tmp_path):
        cfg = small_cfg()
        _, history = optimize_gait(random_gait(2), DEFAULT_BOUNDS, cfg, max_evaluations=15)
        path = tmp_path / "report.csv"
        write_report_csv(path, history)
        back = read_report_csv(path)
        assert len(back) == len(history)
        for ours, theirs in zip(history, back):
            assert ours.iteration == theirs.iteration
            assert ours.loss == theirs.loss
            assert ours.displacement == theirs.displacement
            assert ours.energy == theirs.energy
            assert ours.gait == theirs.gait

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("iteration,loss\n0,0.0\n")
        with pytest.raises(FileFormatError):
            read_report_csv(path)

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "iteration,loss,delta_com,energy,sigma,xc,yc,theta,a,xi\n"
            "0,0.1,0.1\n"
        )
        with pytest.raises(FileFormatError):
            read_report_csv(path)
