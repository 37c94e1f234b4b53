"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with the measured quantity and its
tolerance, then asserts.  Run with -s to see all lines; budgets are wall-clock
seconds on a commodity desktop.
"""

import time

import numpy as np

from snakesim.calibration import MocapTrajectory, fit_anisotropy
from snakesim.dynamics import (
    DissipationParams,
    geometric_momentum,
    integrate_motion_trajectory,
    position_step,
)
from snakesim.geometry import PositionedShape, RigidMotion, tangents_from_vertices
from snakesim.analysis import ClassDisplacements, performance_ratios, ratio_quotients
from snakesim.optimize import (
    DEFAULT_BOUNDS,
    ObjectiveConfig,
    SimConfig,
    optimize_gait,
    random_gait,
    simulate_gait,
)
from snakesim.shapespace import GaitEllipse, gait_to_shape_sequence

from test_dynamics import refined_grid_search

BODY_LENGTH = 0.92
TOTAL_MASS = 1.38
SIM = SimConfig()  # 50 timesteps, 11 edges (12 vertices), 0.92 m, 1 cycle
REFERENCE_GAIT = GaitEllipse(sigma=1.0, xc=0.0, yc=0.0, theta=0.0, a=3.0, xi=1.0)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def params_for(epsilon):
    return DissipationParams.uniform(TOTAL_MASS, SIM.num_vertices, epsilon)


def test_criterion_01_isotropy_theorem():
    start = time.perf_counter()
    params = params_for(1.0)
    worst = 0.0
    for seed in range(20):
        traj = simulate_gait(random_gait(seed), SIM, params)
        worst = max(worst, traj.net_displacement / BODY_LENGTH)
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (isotropy: no net displacement)",
        worst < 1e-9 and elapsed < 10.0,
        f"worst displacement {worst:.3e} BL over 20 random gaits (tol 1e-9), {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_02_momentum_residuals_and_grid_oracle():
    start = time.perf_counter()
    # residual bound across a varied batch of trajectories
    cases = [(REFERENCE_GAIT, eps) for eps in (0.05, 0.1865, 0.9)]
    cases += [(random_gait(100 + k), 0.1865) for k in range(5)]
    worst_rel = 0.0
    for gait, eps in cases:
        params = params_for(eps)
        bound = params.weights.sum() * BODY_LENGTH
        traj = simulate_gait(gait, SIM, params)
        for prev, nxt in zip(traj.shapes, traj.shapes[1:]):
            mu = geometric_momentum(prev, nxt, params)
            worst_rel = max(
                worst_rel, np.linalg.norm(mu) / bound
            )

    # independent oracle: exhaustive refined grid search on a 3-vertex step
    def shape(points):
        verts = np.array(points)
        return PositionedShape(verts, tangents_from_vertices(verts))

    prev = shape([(0.12, -0.05), (0.62, 0.05), (1.0, 0.32)])
    nxt = shape([(0.0, 0.0), (0.45, 0.0), (0.80, 0.25)])
    weights = np.array([0.7, 1.1, 1.5])
    sol = position_step(prev, nxt, DissipationParams(weights, 0.3))
    newton_x = np.array(
        [sol.motion.angle, sol.motion.translation[0], sol.motion.translation[1]]
    )
    grid_x, final_step = refined_grid_search(prev, nxt, weights, 0.3)
    oracle_gap = float(np.max(np.abs(newton_x - grid_x)))
    elapsed = time.perf_counter() - start
    report(
        "criterion 2 (momentum residuals + grid-search oracle)",
        worst_rel <= 1e-10 and final_step < 5e-7 and oracle_gap <= 1e-6 and elapsed < 30.0,
        f"worst |residual|/(sum w * L) = {worst_rel:.3e} (tol 1e-10); "
        f"grid vs Newton gap {oracle_gap:.2e} (tol 1e-6); {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_03_equivariance():
    rng = np.random.default_rng(7)
    params = params_for(0.1865)
    tol = 1e-8 * BODY_LENGTH
    worst = 0.0
    for k in range(10):
        gait = random_gait(200 + k)
        cycle = gait_to_shape_sequence(gait, SIM.timesteps, SIM.edges, SIM.body_length)
        shapes = cycle + [cycle[0]]
        base = integrate_motion_trajectory(shapes, params)
        for _ in range(10):
            h = RigidMotion(rng.uniform(-np.pi, np.pi), rng.normal(scale=1.0, size=2))
            moved = integrate_motion_trajectory(
                [PositionedShape(*h.move(shapes[0].vertices, shapes[0].tangents))] + shapes[1:], params
            )
            for ours, theirs in zip(base.shapes, moved.shapes):
                worst = max(worst, float(np.max(np.abs(theirs.vertices - h.apply_points(ours.vertices)))))
    report(
        "criterion 3 (equivariance under rigid motions)",
        worst < tol,
        f"worst vertex deviation {worst:.3e} m over 10 gaits x 10 motions (tol {tol:.1e})",
    )


def test_criterion_04_monotone_in_anisotropy():
    grid = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
    displacements = [
        simulate_gait(REFERENCE_GAIT, SIM, params_for(eps)).net_displacement for eps in grid
    ]
    strictly_decreasing = all(a > b for a, b in zip(displacements, displacements[1:]))
    report(
        "criterion 4 (displacement strictly decreasing in the anisotropy ratio)",
        strictly_decreasing,
        "displacements " + ", ".join(f"{d:.4f}" for d in displacements) + f" m over eps={grid}",
    )


def test_criterion_05_calibration_round_trip():
    start = time.perf_counter()
    worst = 0.0
    for eps_true in (0.05, 0.1, 0.1865, 0.4, 0.8):
        params = params_for(eps_true)
        traj = simulate_gait(REFERENCE_GAIT, SIM, params)
        mocap = MocapTrajectory(np.linspace(0.0, 1.0, len(traj.vertices)), traj.vertices)
        fit = fit_anisotropy(mocap, params.weights)
        worst = max(worst, abs(fit.epsilon - eps_true))
    elapsed = time.perf_counter() - start
    report(
        "criterion 5 (calibration round trip)",
        worst < 1e-3 and elapsed < 60.0,
        f"worst |fit - truth| = {worst:.2e} over 5 ratios (tol 1e-3), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_06_optimization_improves_every_seed():
    start = time.perf_counter()
    cfg = ObjectiveConfig(params=params_for(0.1865), sim=SIM, dissipation_coefficient=0.0)
    gains = []
    for seed in range(12):
        seed_gait = random_gait(seed)
        best, history = optimize_gait(seed_gait, DEFAULT_BOUNDS, cfg, max_evaluations=120)
        seed_disp = history[0].displacement
        best_disp = min(history, key=lambda r: r.loss).displacement
        gains.append(best_disp - seed_disp)
    elapsed = time.perf_counter() - start
    report(
        "criterion 6 (optimization strictly improves 12 random seeds)",
        all(g > 0 for g in gains) and elapsed < 300.0,
        f"min gain {min(gains):.4f} m, max {max(gains):.4f} m, {elapsed:.0f}s (budget 300s)",
    )


def test_criterion_07_energy_penalty_trend():
    # both searches need to be near-converged before the two optima separate;
    # 120 evaluations leaves them inside each other's noise floor
    seed_gait = random_gait(21)
    results = {}
    for c in (0.0, 2.5):
        cfg = ObjectiveConfig(params=params_for(0.1865), sim=SIM, dissipation_coefficient=c)
        _, history = optimize_gait(seed_gait, DEFAULT_BOUNDS, cfg, max_evaluations=300)
        best = min(history, key=lambda r: r.loss)
        results[c] = (best.displacement, best.energy)
    ok = results[2.5][1] < results[0.0][1] and results[2.5][0] < results[0.0][0]
    report(
        "criterion 7 (energy penalty lowers both dissipation and displacement)",
        ok,
        f"c=0: displacement {results[0.0][0]:.4f} m, energy {results[0.0][1]:.3e}; "
        f"c=2.5: displacement {results[2.5][0]:.4f} m, energy {results[2.5][1]:.3e}",
    )


def test_criterion_08_analysis_identities():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        x = ClassDisplacements("Exp", rng.uniform(0.05, 3.0, size=n))
        y = ClassDisplacements("Sim", rng.uniform(0.05, 3.0, size=n))
        dx, dy = performance_ratios(x), performance_ratios(y)
        worst = max(worst, float(np.max(np.abs(dx * dx.T - 1.0))))
        worst = max(worst, float(np.max(np.abs(np.diag(dx) - 1.0))))
        xi_xx, mean_xx, std_xx = ratio_quotients(dx, dx)
        worst = max(worst, float(np.max(np.abs(xi_xx - 1.0))), abs(mean_xx - 1.0), std_xx)
        xi_xy, _, _ = ratio_quotients(dx, dy)
        xi_yx, _, _ = ratio_quotients(dy, dx)
        worst = max(worst, float(np.max(np.abs(xi_xy * xi_yx - 1.0))))
    report(
        "criterion 8 (ratio identities over 1000 random trials)",
        worst < 1e-12,
        f"worst identity violation {worst:.2e} (tol 1e-12)",
    )


def test_criterion_09_performance_budgets():
    params = params_for(0.1865)
    cycle_times = []
    for _ in range(3):
        start = time.perf_counter()
        simulate_gait(REFERENCE_GAIT, SIM, params)
        cycle_times.append(time.perf_counter() - start)
    cycle_ms = 1000.0 * min(cycle_times)

    cfg = ObjectiveConfig(params=params, sim=SIM, dissipation_coefficient=0.0)
    start = time.perf_counter()
    _, history = optimize_gait(random_gait(42), DEFAULT_BOUNDS, cfg, max_evaluations=500)
    optimize_s = time.perf_counter() - start
    report(
        "criterion 9 (performance budgets)",
        cycle_ms < 100.0 and optimize_s < 60.0,
        f"one cycle {cycle_ms:.0f} ms (budget 100 ms); "
        f"{len(history)}-evaluation optimization {optimize_s:.1f}s (budget 60s)",
    )


def test_criterion_10_weight_scale_invariance():
    gaits = [REFERENCE_GAIT, random_gait(301), random_gait(302)]
    tol = 1e-10 * BODY_LENGTH
    worst = 0.0
    for gait in gaits:
        cycle = gait_to_shape_sequence(gait, SIM.timesteps, SIM.edges, SIM.body_length)
        shapes = cycle + [cycle[0]]
        base = integrate_motion_trajectory(shapes, params_for(0.1865))
        for lam in (0.1, 10.0):
            scaled_params = DissipationParams(
                np.full(SIM.num_vertices, lam * TOTAL_MASS / SIM.num_vertices), 0.1865
            )
            scaled = integrate_motion_trajectory(shapes, scaled_params)
            for ours, theirs in zip(base.shapes, scaled.shapes):
                worst = max(worst, float(np.max(np.abs(ours.vertices - theirs.vertices))))
    report(
        "criterion 10 (weight rescaling leaves trajectories unchanged)",
        worst < tol,
        f"worst vertex deviation {worst:.3e} m for lambda in {{0.1, 10}} (tol {tol:.1e})",
    )
