import collections
import math

import numpy as np
import pytest

from snakesim.dynamics import DissipationParams, geometric_momentum, integrate_motion_trajectory
from snakesim.errors import (
    FileFormatError,
    InvalidParameter,
    NoConvergence,
    NonFiniteLoss,
    ShapeMismatch,
)
from snakesim.optimize import (
    DEFAULT_BOUNDS,
    DISSIPATION_COEFFICIENT_GRID,
    EvaluationRecord,
    GaitBounds,
    ObjectiveConfig,
    SimConfig,
    evaluate_gait,
    evaluate_gaits,
    optimize_gait,
    random_gait,
    read_report_csv,
    simulate_gait,
    write_report_csv,
)
from snakesim.geometry import RigidMotion, rigid_registration
from snakesim.shapespace import GaitEllipse, gait_to_shape_sequence

REFERENCE_GAIT = GaitEllipse(sigma=1.0, xc=0.0, yc=0.0, theta=0.0, a=3.0, xi=1.0)
# the coarse gait of test_dynamics: in 4 timesteps each step turns the body by 0.3-0.9 rad, and
# the lockstep Newton leaves 3 of the 4 steps to `position_step`
COARSE_GAIT = GaitEllipse(
    sigma=0.6982090874995195, xc=2.5306626580087217, yc=2.3265284672162814,
    theta=0.17953936059562067, a=13.262084647248928, xi=0.8920442003407526,
)

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
        with pytest.raises(InvalidParameter):
            GaitBounds(sigma=(0.8, 0.2))
        with pytest.raises(InvalidParameter):
            GaitBounds(sigma=(-0.1, 1.0))
        with pytest.raises(InvalidParameter):
            GaitBounds(sigma=(0.0, 1.2))
        with pytest.raises(InvalidParameter):
            GaitBounds(a=(0.0, 8.0))
        with pytest.raises(InvalidParameter):
            GaitBounds(xi=(-0.5, 2.0))
        for bad in ((np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0)):
            with pytest.raises(InvalidParameter, match="finite"):
                GaitBounds(xc=bad)

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
        assert evaluate_gait(gait, small_cfg())[1] == 0.0

    def test_isotropic_friction_goes_nowhere(self):
        cfg = default_cfg(epsilon=1.0)
        assert evaluate_gait(REFERENCE_GAIT, cfg)[1] < 1e-9 * cfg.sim.body_length

    def test_reference_gait_regression_value(self):
        disp = evaluate_gait(REFERENCE_GAIT, default_cfg())[1]
        assert disp > 0.0
        assert disp == pytest.approx(REFERENCE_DISPLACEMENT_M, rel=1e-6)


class TestGaitLoss:
    def test_zero_coefficient_is_negative_displacement(self):
        cfg = small_cfg(c=0.0)
        loss, displacement, energy = evaluate_gait(REFERENCE_GAIT, cfg)
        assert loss == -displacement

    def test_stationary_gait_scores_zero(self):
        gait = GaitEllipse(sigma=0.5, xc=0.0, yc=0.0, theta=0.0, a=0.0, xi=1.0)
        for c in (0.0, 1.7, 1e6):
            assert evaluate_gait(gait, small_cfg(c=c))[0] == 0.0

    def test_fixed_xi_substitution(self):
        pinned = small_cfg(fixed_xi=1.3)
        free = small_cfg()
        assert evaluate_gait(REFERENCE_GAIT, pinned)[0] == evaluate_gait(REFERENCE_GAIT.with_xi(1.3), free)[0]

    def test_evaluation_is_pure(self):
        cfg = small_cfg(c=1.7)
        first = evaluate_gait(REFERENCE_GAIT, cfg)
        second = evaluate_gait(REFERENCE_GAIT, cfg)
        assert first == second


class TestLockstepObjective:
    """`evaluate_gait` solves all steps of a cycle at once; `simulate_gait`, step by step, is its reference."""

    @staticmethod
    def reference(gait, cfg):
        traj = simulate_gait(gait if cfg.fixed_xi is None else gait.with_xi(cfg.fixed_xi), cfg.sim, cfg.params)
        displacement, energy = traj.net_displacement, float(np.sum(traj.step_energies))
        return -displacement + cfg.dissipation_coefficient * energy, displacement, energy

    @staticmethod
    def assert_agrees(found, expected):
        # at epsilon = 1 the displacement is round-off, a few 1e-15 m on both paths, hence the floor
        for ours, ref in zip(found, expected):
            assert abs(ours - ref) <= max(1e-12 * abs(ref), 1e-14), (found, expected)

    def test_agrees_with_simulate_gait(self):
        for cycles in (1, 3):
            sim = SimConfig(cycles=cycles)
            for seed in range(40):
                for epsilon in (0.05, 0.1865, 0.5, 1.0):
                    params = DissipationParams.uniform(1.38, sim.num_vertices, epsilon)
                    cfg = ObjectiveConfig(params, sim, dissipation_coefficient=2.5)
                    self.assert_agrees(evaluate_gait(random_gait(seed), cfg), self.reference(random_gait(seed), cfg))
        cfg = small_cfg(c=1.7, fixed_xi=1.3)
        self.assert_agrees(evaluate_gait(REFERENCE_GAIT, cfg), self.reference(REFERENCE_GAIT, cfg))

    def test_coarse_gait_takes_the_same_roots(self, monkeypatch):
        import snakesim.dynamics as dyn

        handed_over = []
        original = dyn.position_step

        def counted(*args, **kwargs):
            handed_over.append(args)
            return original(*args, **kwargs)

        sim = SimConfig(timesteps=4)
        cfg = ObjectiveConfig(DissipationParams.uniform(1.38, sim.num_vertices, 0.1865), sim, 2.5)
        expected = self.reference(COARSE_GAIT, cfg)
        monkeypatch.setattr(dyn, "position_step", counted)
        found = evaluate_gait(COARSE_GAIT, cfg)
        assert 0 < len(handed_over) < sim.timesteps  # both the lockstep solve and its fallback ran
        self.assert_agrees(found, expected)


class TestObjectiveConfigValidation:
    def test_negative_coefficient_rejected(self):
        sim = SimConfig(timesteps=10, edges=5)
        params = DissipationParams.uniform(1.38, 6, 0.3)
        with pytest.raises(InvalidParameter):
            ObjectiveConfig(params=params, sim=sim, dissipation_coefficient=-0.5)

    def test_weight_count_must_match_vertices(self):
        sim = SimConfig(timesteps=10, edges=5)
        with pytest.raises(ShapeMismatch):
            ObjectiveConfig(params=DissipationParams.uniform(1.38, 4, 0.3), sim=sim)

    def test_sim_config_validation(self):
        with pytest.raises(InvalidParameter):
            SimConfig(timesteps=1)
        with pytest.raises(InvalidParameter):
            SimConfig(edges=1)
        with pytest.raises(InvalidParameter):
            SimConfig(body_length=0.0)
        with pytest.raises(InvalidParameter):
            SimConfig(cycles=0)
        with pytest.raises(InvalidParameter):
            SimConfig(body_length=np.nan)


def quadratic_surrogate(minimum):
    """A stand-in for `evaluate_gaits` with a known unique minimizer (no simulation)."""
    target = np.array([getattr(minimum, n) for n in ("sigma", "xc", "yc", "theta", "a", "xi")])

    def fake_evaluate(gaits, cfg):
        vectors = [np.array([getattr(gait, n) for n in ("sigma", "xc", "yc", "theta", "a", "xi")]) for gait in gaits]
        return [(float(np.sum((v - target) ** 2)), 0.0, 0.0) for v in vectors]

    return fake_evaluate


class TestOptimizeGait:
    def test_seed_at_optimum_is_returned(self, monkeypatch):
        import snakesim.optimize as opt

        seed = GaitEllipse(0.6, 0.0, 0.0, 1.5, 4.0, 1.2)
        monkeypatch.setattr(opt, "evaluate_gaits", quadratic_surrogate(seed))
        best, history = opt.optimize_gait(seed, DEFAULT_BOUNDS, small_cfg())
        for name in ("sigma", "xc", "yc", "theta", "a", "xi"):
            assert abs(getattr(best, name) - getattr(seed, name)) <= 1e-3

    def test_finds_interior_quadratic_minimum(self, monkeypatch):
        import snakesim.optimize as opt

        seed = GaitEllipse(0.6, 0.0, 0.0, 1.5, 4.0, 1.2)
        target = GaitEllipse(0.45, 1.0, -1.0, 2.0, 5.5, 0.9)
        monkeypatch.setattr(opt, "evaluate_gaits", quadratic_surrogate(target))
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
        assert min(rec.loss for rec in history) == evaluate_gait(best, cfg)[0]
        assert evaluate_gait(best, cfg)[0] <= history[0].loss

    def test_zero_coefficient_grows_displacement(self):
        cfg = small_cfg(c=0.0)
        seed = random_gait(11)
        best, history = optimize_gait(seed, DEFAULT_BOUNDS, cfg, max_evaluations=100)
        assert evaluate_gait(best, cfg)[1] >= evaluate_gait(seed, cfg)[1]

    def test_fixed_xi_is_exact_in_result(self):
        cfg = small_cfg(fixed_xi=1.25)
        best, history = optimize_gait(random_gait(5), DEFAULT_BOUNDS, cfg, max_evaluations=40)
        assert best.xi == 1.25
        assert all(rec.gait.xi == 1.25 for rec in history)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected_before_any_simulation(self, budget, monkeypatch):
        def fail(*args):
            raise AssertionError("simulated despite an empty budget")

        monkeypatch.setattr("snakesim.optimize.evaluate_gaits", fail)
        with pytest.raises(InvalidParameter, match="max_evaluations"):
            optimize_gait(random_gait(5), DEFAULT_BOUNDS, small_cfg(), max_evaluations=budget)

    def test_fixed_xi_outside_bounds_rejected(self):
        cfg = small_cfg(fixed_xi=3.0)
        with pytest.raises(InvalidParameter):
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

        def bad_evaluate(gaits, cfg):
            return [(float("nan"), 0.0, 0.0)] * len(gaits)

        monkeypatch.setattr(opt, "evaluate_gaits", bad_evaluate)
        with pytest.raises(NonFiniteLoss) as info:
            opt.optimize_gait(random_gait(5), DEFAULT_BOUNDS, small_cfg())
        assert info.value.gait is not None

    def test_evaluation_budget_respected(self):
        cfg = small_cfg()
        _, history = optimize_gait(random_gait(9), DEFAULT_BOUNDS, cfg, max_evaluations=25)
        assert len(history) == 25

    @pytest.mark.parametrize("failure", [NoConvergence], ids=["NoConvergence"])
    def test_solver_failure_keeps_history(self, monkeypatch, failure):
        import snakesim.optimize as opt

        # the 6th gait to be evaluated fails, in the starting batch and again when it is evaluated alone
        fail_at = 6
        calls = []

        def fails_late(gaits, cfg):
            calls.extend(gait for gait in gaits if gait not in calls)
            if any(calls.index(gait) == fail_at - 1 for gait in gaits):
                raise failure("timestep 4: synthetic stall")
            return evaluate_gaits(gaits, cfg)

        monkeypatch.setattr(opt, "evaluate_gaits", fails_late)
        with pytest.raises(failure) as info:
            opt.optimize_gait(random_gait(5), DEFAULT_BOUNDS, small_cfg())
        history = info.value.history
        assert [rec.iteration for rec in history] == list(range(fail_at - 1))
        assert [rec.gait for rec in history] == calls[:fail_at - 1]
        for rec in history:
            assert (rec.loss, rec.displacement, rec.energy) == evaluate_gait(rec.gait, small_cfg())


def one_gait_objective(gait, cfg):
    """(loss, displacement, energy) of one gait from its own forward solve: the reference for the batched search."""
    from snakesim.dynamics import _integrate_stacks, total_energy
    from snakesim.optimize import _repeat_cycle
    from snakesim.shapespace import _cycle_stacks

    if cfg.fixed_xi is not None:
        gait = gait.with_xi(cfg.fixed_xi)
    sim = cfg.sim
    verts, tangs = _cycle_stacks(gait, sim.timesteps, sim.edges, sim.body_length)
    traj = _repeat_cycle(_integrate_stacks(verts[None], tangs[None], [cfg.params])[0], sim.cycles)
    displacement, energy = traj.net_displacement, total_energy(traj)
    return -displacement + cfg.dissipation_coefficient * energy, displacement, energy


def reference_search(seed_gait, bounds, cfg, budget, one_gait=one_gait_objective):
    """scipy's Nelder-Mead on `optimize_gait`'s problem, `one_gait` called at every point it asks for, one at a time.

    scipy is needed only here, as the oracle for the search's own loop; without it the tests that call this are skipped.
    """
    minimize = pytest.importorskip("scipy.optimize").minimize

    keys = ("sigma", "xc", "yc", "theta", "a", "xi")
    lo, hi = bounds.as_arrays()
    x_seed = np.clip([getattr(seed_gait, n) for n in keys], lo, hi)
    free = hi > lo
    if cfg.fixed_xi is not None:
        x_seed[5], free[5] = cfg.fixed_xi, False
    records = []

    def objective(u):
        x = x_seed.copy()
        x[free] = lo[free] + np.clip(u, 0.0, 1.0) * (hi - lo)[free]
        gait = GaitEllipse(*(float(v) for v in x))
        loss, displacement, energy = one_gait(gait, cfg)
        records.append((loss, displacement, energy, gait))
        return loss

    u0 = (x_seed[free] - lo[free]) / (hi - lo)[free]
    if not free.any():
        objective(u0)
        return records
    simplex = [u0]
    for i in range(len(u0)):
        vertex = u0.copy()
        vertex[i] += 0.1 if vertex[i] + 0.1 <= 1.0 else -0.1
        simplex.append(vertex)
    options = {"initial_simplex": np.array(simplex), "xatol": 1e-4, "fatol": np.inf, "maxfev": budget, "disp": False}
    minimize(objective, u0, method="Nelder-Mead", options=options)
    return records


def stepped_valley_losses(gaits, cfg):
    """A stand-in for `evaluate_gaits` (no simulation): a curved valley rounded down to steps of 1e-3.

    The frequency's minimum lies outside its bounds, and the steps make plateaus, so the search meets
    clipped points and tied losses, and some contractions fail and shrink the simplex.
    """
    results = []
    for g in gaits:
        valley = (g.xc - 1.0) ** 2 + 10.0 * (g.yc - g.xc ** 2 / 3.0) ** 2 + (g.a - 5.0) ** 2 / 4.0
        loss = math.floor(1e3 * (valley + (g.sigma - 0.6) ** 2 + (g.theta - 1.0) ** 2 + (g.xi - 2.5) ** 2)) / 1e3
        results.append((loss, -loss, 0.0))
    return results


def one_valley_loss(gait, cfg):
    return stepped_valley_losses([gait], cfg)[0]


def replayed_steps(losses, n):
    """The Nelder-Mead step each iteration took, replayed from the losses of a search that stopped on its simplex size.

    Only the losses are followed (the simplex's, kept sorted), so the replay needs no point of the search.
    """
    simplex, rest, steps = sorted(losses[:n + 1]), iter(losses[n + 1:]), []
    for reflected in rest:
        if reflected < simplex[0]:
            expanded = next(rest)
            steps.append("expansion" if expanded < reflected else "reflection")
            simplex[-1] = min(expanded, reflected)
        elif reflected < simplex[-2]:
            steps.append("reflection")
            simplex[-1] = reflected
        else:
            contracted, outside = next(rest), reflected < simplex[-1]
            if contracted <= reflected if outside else contracted < simplex[-1]:
                steps.append("outside contraction" if outside else "inside contraction")
                simplex[-1] = contracted
            else:
                steps.append("shrink")
                simplex[1:] = [next(rest) for _ in range(n)]
        simplex.sort()
    return collections.Counter(steps)


class TestSearchHistories:
    """The search solves its starting simplex in one batch; its histories are bitwise those of `reference_search`."""

    @staticmethod
    def batch_sizes(monkeypatch):
        import snakesim.optimize as opt

        sizes, solve = [], opt.evaluate_gaits

        def counted(gaits, cfg):
            sizes.append(len(gaits))
            return solve(gaits, cfg)

        monkeypatch.setattr(opt, "evaluate_gaits", counted)
        return sizes

    def assert_matches_reference(self, seed_gait, bounds, cfg, budget, monkeypatch, simplex_size):
        expected = reference_search(seed_gait, bounds, cfg, budget)
        sizes = self.batch_sizes(monkeypatch)
        _, history = optimize_gait(seed_gait, bounds, cfg, max_evaluations=budget)
        assert [(rec.loss, rec.displacement, rec.energy, rec.gait) for rec in history] == expected
        assert [rec.iteration for rec in history] == list(range(len(history)))
        # the starting vertices in one call, every later point alone
        assert sizes == [min(simplex_size, budget)] + [1] * (len(history) - min(simplex_size, budget))

    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 6, 7, 8, 20])
    def test_budgets_around_the_simplex(self, budget, monkeypatch):
        for seed, c in ((3, 0.0), (8, 2.5)):
            self.assert_matches_reference(random_gait(seed), DEFAULT_BOUNDS, small_cfg(c=c), budget, monkeypatch, 7)

    @pytest.mark.parametrize("budget", [5, 6, 7, 20])
    def test_pinned_frequency_gives_six_vertices(self, budget, monkeypatch):
        self.assert_matches_reference(random_gait(4), DEFAULT_BOUNDS, small_cfg(fixed_xi=1.25), budget, monkeypatch, 6)

    def test_degenerate_bounds_one_evaluation(self, monkeypatch):
        point = GaitEllipse(0.7, 0.1, -0.2, 1.0, 3.0, 1.5)
        bounds = GaitBounds(*((value, value) for value in (0.7, 0.1, -0.2, 1.0, 3.0, 1.5)))
        self.assert_matches_reference(point, bounds, small_cfg(), 20, monkeypatch, 1)

    @pytest.mark.parametrize("fixed_xi", [None, 1.25])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_step_of_a_long_search_matches_the_reference(self, seed, fixed_xi, monkeypatch):
        import snakesim.optimize as opt

        def no_solve(*args):
            raise AssertionError("the analytic loss must stand in for every forward solve")

        monkeypatch.setattr(opt, "_integrate_stacks", no_solve)
        monkeypatch.setattr(opt, "evaluate_gaits", stepped_valley_losses)
        cfg, budget = small_cfg(fixed_xi=fixed_xi), 2000
        expected = reference_search(random_gait(seed), DEFAULT_BOUNDS, cfg, budget, one_valley_loss)
        _, history = optimize_gait(random_gait(seed), DEFAULT_BOUNDS, cfg, max_evaluations=budget)
        assert [(rec.loss, rec.displacement, rec.energy, rec.gait) for rec in history] == expected
        assert 200 <= len(history) < budget
        steps = replayed_steps([rec.loss for rec in history], 6 if fixed_xi is None else 5)
        assert {"expansion", "outside contraction", "inside contraction", "shrink"} <= set(steps), steps

    @pytest.mark.parametrize("budget", [9, 10, 60, 150])
    def test_a_long_search_cut_by_its_budget_matches_the_reference(self, budget, monkeypatch):
        import snakesim.optimize as opt

        monkeypatch.setattr(opt, "evaluate_gaits", stepped_valley_losses)
        cfg = small_cfg()
        expected = reference_search(random_gait(1), DEFAULT_BOUNDS, cfg, budget, one_valley_loss)
        _, history = optimize_gait(random_gait(1), DEFAULT_BOUNDS, cfg, max_evaluations=budget)
        assert [(rec.loss, rec.displacement, rec.energy, rec.gait) for rec in history] == expected
        assert len(history) == budget

    @pytest.mark.parametrize("k", range(1, 8))
    def test_failure_at_a_simplex_gait_keeps_the_records_before_it(self, k, monkeypatch):
        import snakesim.optimize as opt

        solve, simplex = opt.evaluate_gaits, []

        def fails_at_k(gaits, cfg):
            simplex.extend(gaits if not simplex else [])  # the first call is the starting batch
            if simplex[k - 1] in gaits:
                raise NoConvergence("timestep 2: synthetic stall")
            return solve(gaits, cfg)

        monkeypatch.setattr(opt, "evaluate_gaits", fails_at_k)
        with pytest.raises(NoConvergence) as info:
            optimize_gait(random_gait(6), DEFAULT_BOUNDS, small_cfg(), max_evaluations=20)
        history = info.value.history
        assert len(simplex) == 7
        assert [rec.gait for rec in history] == simplex[:k - 1]
        assert [rec.iteration for rec in history] == list(range(k - 1))
        for rec in history:
            assert (rec.loss, rec.displacement, rec.energy) == one_gait_objective(rec.gait, small_cfg())

    def test_non_finite_loss_raises_at_its_vertex(self, monkeypatch):
        import snakesim.optimize as opt

        solve, simplex = opt.evaluate_gaits, []

        def third_is_nan(gaits, cfg):
            simplex.extend(gaits if not simplex else [])
            return [(float("nan"), 0.0, 0.0) if gait == simplex[2] else result for gait, result in zip(gaits, solve(gaits, cfg))]

        monkeypatch.setattr(opt, "evaluate_gaits", third_is_nan)
        history = []
        monkeypatch.setattr(opt, "EvaluationRecord", lambda *fields: history.append(fields) or EvaluationRecord(*fields))
        with pytest.raises(NonFiniteLoss) as info:
            optimize_gait(random_gait(6), DEFAULT_BOUNDS, small_cfg(), max_evaluations=20)
        assert info.value.gait == simplex[2]
        assert [fields[-1] for fields in history] == simplex[:2]


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
