import csv
import io
import math
from types import SimpleNamespace

import numpy as np
import pytest

import snakesim.dynamics as dyn
from snakesim.dynamics import (
    DissipationParams,
    Trajectory,
    geometric_momentum,
    integrate_motion_trajectory,
    integrate_shape_sequence,
    local_tensor,
    position_step,
    read_step_energies_csv,
    read_trajectory_csv,
    step_energy,
    total_energy,
    write_step_energies_csv,
    write_trajectory_csv,
)
from snakesim.errors import (
    FileFormatError,
    InvalidAnisotropy,
    InvalidParameter,
    NoConvergence,
    NonPositiveWeight,
    ShapeMismatch,
)
from snakesim.geometry import (
    PositionedShape,
    RigidMotion,
    center_of_mass,
    curve_from_curvature,
    rigid_registration,
    tangents_from_vertices,
)
from snakesim.shapespace import GaitEllipse, gait_to_shape_sequence

# circle of radius 3 in the coefficient plane: the plain traveling-wave gait
REFERENCE_GAIT = GaitEllipse(sigma=1.0, xc=0.0, yc=0.0, theta=0.0, a=3.0, xi=1.0)
# outside DEFAULT_BOUNDS; played in 4 timesteps, each step turns the body by 0.3-0.9 rad
COARSE_GAIT = GaitEllipse(
    sigma=0.6982090874995195, xc=2.5306626580087217, yc=2.3265284672162814,
    theta=0.17953936059562067, a=13.262084647248928, xi=0.8920442003407526,
)


def reference_shapes(timesteps=24, edges=8, body_length=0.92, closed=True):
    cycle = gait_to_shape_sequence(REFERENCE_GAIT, timesteps, edges, body_length)
    return cycle + [cycle[0]] if closed else cycle


def relaid(shape, layout):
    """The same shape built from its arrays in another memory layout."""
    def lay(points):
        if layout == "fortran":
            return np.asfortranarray(points)
        big = np.zeros((len(points), 4))
        big[:, ::2] = points
        return big[:, ::2]
    return PositionedShape(lay(shape.vertices), lay(shape.tangents))


def angle_equation(prev, nxt, params):
    """The angle equation of one step pair (or stacked pairs) at the ratio of `params`."""
    from snakesim.dynamics import _AngleEquation, _StepPairs

    return _AngleEquation(_StepPairs(prev, nxt, params.weights), params.epsilon)


def registration_angle(prev, nxt, params):
    from snakesim.dynamics import _StepPairs

    return _StepPairs(prev, nxt, params.weights).registration_angle()


def integer_frames(rng, count=6, num_vertices=7):
    """Integer-valued (N, 2) polylines, each a small integer perturbation of the last."""
    frame = np.column_stack([10 * np.arange(num_vertices), rng.integers(-3, 4, size=num_vertices)])
    frames = [frame]
    for _ in range(count - 1):
        frames.append(frames[-1] + rng.integers(-1, 2, size=frame.shape))
    return frames


def segment(length=1.0, origin=(0.0, 0.0), angle=0.0):
    direction = np.array([np.cos(angle), np.sin(angle)])
    start = np.array(origin, dtype=float)
    verts = np.stack([start, start + length * direction])
    return PositionedShape(verts, np.stack([direction, direction]))


class TestLocalTensor:
    def test_axis_aligned(self):
        d = local_tensor([1.0, 0.0], w=1.0, epsilon=0.5)
        assert np.allclose(d, np.diag([0.5, 1.0]))

    def test_isotropic_limit(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            t = rng.normal(size=2)
            t /= np.linalg.norm(t)
            assert np.allclose(local_tensor(t, 1.7, 1.0), 1.7 * np.eye(2))

    def test_diagonal_tangent_eigenvalues(self):
        t = np.array([1.0, 1.0]) / np.sqrt(2)
        d = local_tensor(t, w=2.0, epsilon=0.25)
        assert np.allclose(d, 2.0 * (np.eye(2) - 0.75 * np.outer(t, t)))
        assert np.allclose(np.sort(np.linalg.eigvalsh(d)), [0.5, 2.0])

    def test_spd_floor(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            t = rng.normal(size=2)
            t /= np.linalg.norm(t)
            w, eps = rng.uniform(0.1, 5.0), rng.uniform(0.05, 1.0)
            eigs = np.linalg.eigvalsh(local_tensor(t, w, eps))
            assert eigs.min() >= w * eps - 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(InvalidAnisotropy):
            local_tensor([1, 0], 1.0, 0.0)
        with pytest.raises(InvalidAnisotropy):
            local_tensor([1, 0], 1.0, 1.5)
        with pytest.raises(NonPositiveWeight):
            local_tensor([1, 0], -1.0, 0.5)
        for bad in (np.nan, np.inf):
            with pytest.raises(NonPositiveWeight):
                local_tensor([1, 0], bad, 0.5)
            with pytest.raises(InvalidAnisotropy):
                local_tensor([1, 0], 1.0, bad)


class TestDissipationParams:
    def test_ratio_is_stored_as_a_float(self):
        # a numpy scalar ratio kept as given would make the one-pair step equation numpy arithmetic, with other last bits
        from snakesim.optimize import SimConfig, random_gait, simulate_gait

        given = DissipationParams.uniform(1.38, 12, np.float64(0.1865))
        assert type(given.epsilon) is float
        for seed in range(9):
            expected = simulate_gait(random_gait(seed), SimConfig(), DissipationParams.uniform(1.38, 12, 0.1865))
            found = simulate_gait(random_gait(seed), SimConfig(), given)
            assert found.vertices.tobytes() == expected.vertices.tobytes()
            assert found.step_energies.tobytes() == expected.step_energies.tobytes()

    def test_non_finite_weights_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(NonPositiveWeight):
                DissipationParams([bad, 1.0], 0.3)

    def test_uniform_needs_a_vertex_and_a_positive_mass(self):
        assert np.array_equal(DissipationParams.uniform(1.5, 3, 0.5).weights, [0.5, 0.5, 0.5])
        for count in (0, -2):
            with pytest.raises(InvalidParameter):
                DissipationParams.uniform(1.0, count, 0.5)
        for mass in (0.0, -1.0, np.nan):
            with pytest.raises(NonPositiveWeight):
                DissipationParams.uniform(mass, 3, 0.5)
        with pytest.raises(NonPositiveWeight):
            DissipationParams([], 0.5)


class TestStepEnergy:
    def test_no_motion_no_energy(self):
        shape = segment()
        params = DissipationParams([1.0, 1.0], 0.4)
        assert step_energy(shape, shape, params) == 0.0

    def test_normal_displacement(self):
        # vertex 1 moves by d orthogonally to both tangents: energy = w d^2 / 2
        d = 0.3
        prev = segment()
        moved = PositionedShape(prev.vertices + [0.0, 0.0], prev.tangents)
        verts = prev.vertices.copy()
        verts[1, 1] += d
        moved = PositionedShape(verts, prev.tangents)
        params = DissipationParams([2.0, 1.5], 0.25)
        assert step_energy(prev, moved, params) == pytest.approx(0.5 * 1.5 * d**2)

    def test_tangential_displacement(self):
        d = 0.2
        prev = segment()
        verts = prev.vertices.copy()
        verts[1, 0] += d
        moved = PositionedShape(verts, prev.tangents)
        params = DissipationParams([2.0, 1.5], 0.25)
        assert step_energy(prev, moved, params) == pytest.approx(0.5 * 1.5 * 0.25 * d**2)

    def test_shape_mismatch(self):
        params = DissipationParams([1.0, 1.0], 0.5)
        three = PositionedShape.from_vertices(np.array([[0.0, 0], [1, 0], [2, 0]]))
        with pytest.raises(ShapeMismatch):
            step_energy(segment(), three, params)


class TestTotalEnergy:
    def test_constant_sequence(self):
        shapes = [segment()] * 4
        params = DissipationParams([1.0, 1.0], 0.5)
        traj = integrate_motion_trajectory(shapes, params)
        assert total_energy(traj) == 0.0
        assert np.all(traj.step_energies == 0.0)

    def test_two_step_equals_single_pair(self):
        shapes = reference_shapes(timesteps=8, edges=6, closed=False)[:2]
        params = DissipationParams.uniform(1.38, 7, 0.3)
        traj = integrate_motion_trajectory(shapes, params)
        assert total_energy(traj) == pytest.approx(
            step_energy(traj.shapes[0], traj.shapes[1], params)
        )

    def test_additive_over_concatenation(self):
        shapes = reference_shapes(timesteps=10, edges=6, closed=False)
        params = DissipationParams.uniform(1.38, 7, 0.3)
        traj = integrate_motion_trajectory(shapes, params)
        halves = np.sum(traj.step_energies[:4]) + np.sum(traj.step_energies[4:])
        assert total_energy(traj) == pytest.approx(halves, rel=1e-15)


class TestGeometricMomentum:
    def test_zero_for_equal_shapes(self):
        shape = reference_shapes()[3]
        params = DissipationParams.uniform(1.0, shape.num_vertices, 0.5)
        assert np.all(geometric_momentum(shape, shape, params) == 0.0)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(22)
        shapes = reference_shapes(timesteps=12, edges=7)
        params = DissipationParams.uniform(1.38, 8, 0.3)
        mu = geometric_momentum(shapes[4], shapes[5], params)
        for _ in range(10):
            g = RigidMotion(rng.uniform(-np.pi, np.pi))
            rotated = geometric_momentum(
                PositionedShape(*g.move(shapes[4].vertices, shapes[4].tangents)),
                PositionedShape(*g.move(shapes[5].vertices, shapes[5].tangents)),
                params,
            )
            c, s = np.cos(g.angle), np.sin(g.angle)
            expected = np.concatenate([mu[:1], np.array([[c, -s], [s, c]]) @ mu[1:]])
            assert np.allclose(rotated, expected, atol=1e-12)

    @pytest.mark.parametrize("epsilon", [0.05, 0.1865, 1.0])
    def test_matches_per_vertex_local_tensor_sums(self, epsilon):
        # the README definition, vertex by vertex, with |t| = 1 +- 1e-9 (the
        # shape's bound): the reference residual must not assume |t| = 1
        rng = np.random.default_rng(int(epsilon * 1e4))
        for _ in range(20):
            n = int(rng.integers(3, 13))
            p = np.cumsum(rng.normal(size=(n, 2)), axis=0)
            q = p + rng.normal(scale=0.1, size=(n, 2))
            stretch = [1.0 + rng.choice([-1e-9, 1e-9], size=(n, 1)) for _ in range(2)]
            prev = PositionedShape(p, tangents_from_vertices(p) * stretch[0])
            nxt = PositionedShape(q, tangents_from_vertices(q) * stretch[1])
            w = rng.uniform(0.1, 2.0, size=n)
            params = DissipationParams(w, epsilon)
            cross = lambda a, b: a[0] * b[1] - a[1] * b[0]
            mu, energy = np.zeros(3), 0.0
            for k in range(n):
                d = q[k] - p[k]
                f_prev = local_tensor(prev.tangents[k], w[k], epsilon) @ d
                f_next = local_tensor(nxt.tangents[k], w[k], epsilon) @ d
                mu[0] -= 0.5 * (cross(q[k], f_prev) + cross(p[k], f_next))
                mu[1:] -= 0.25 * (f_prev + f_next)
                energy += 0.25 * d @ (f_prev + f_next)
            scale = w.sum() * nxt.polyline_length
            assert np.max(np.abs(geometric_momentum(prev, nxt, params) - mu)) <= 1e-14 * scale
            assert abs(step_energy(prev, nxt, params) - energy) <= 1e-13 * energy


def independent_residual_grid(prev, nxt, weights, eps, phis, bxs, bys):
    """Planar momentum residual norms on a parameter grid, derived from scratch.

    Plain per-vertex arithmetic (no calls into the solver's internals) so the
    grid search is an independent oracle for the Newton root.
    """
    w = np.asarray(weights, dtype=float)
    p, s = prev.vertices, prev.tangents
    norms = np.empty((len(phis), len(bxs), len(bys)))
    bx = np.asarray(bxs)[:, None]
    by = np.asarray(bys)[None, :]
    for i, phi in enumerate(phis):
        c, sn = np.cos(phi), np.sin(phi)
        mu_rot = 0.0
        mu_x = 0.0
        mu_y = 0.0
        for k in range(len(w)):
            qx = c * nxt.vertices[k, 0] - sn * nxt.vertices[k, 1] + bx
            qy = sn * nxt.vertices[k, 0] + c * nxt.vertices[k, 1] + by
            ux = c * nxt.tangents[k, 0] - sn * nxt.tangents[k, 1]
            uy = sn * nxt.tangents[k, 0] + c * nxt.tangents[k, 1]
            dx, dy = qx - p[k, 0], qy - p[k, 1]
            s_dot = s[k, 0] * dx + s[k, 1] * dy
            fpx = w[k] * (dx + (eps - 1) * s_dot * s[k, 0])
            fpy = w[k] * (dy + (eps - 1) * s_dot * s[k, 1])
            u_dot = ux * dx + uy * dy
            fnx = w[k] * (dx + (eps - 1) * u_dot * ux)
            fny = w[k] * (dy + (eps - 1) * u_dot * uy)
            mu_rot = mu_rot - 0.5 * (qx * fpy - qy * fpx + p[k, 0] * fny - p[k, 1] * fnx)
            mu_x = mu_x - 0.25 * (fpx + fnx)
            mu_y = mu_y - 0.25 * (fpy + fny)
        norms[i] = np.sqrt(mu_rot**2 + mu_x**2 + mu_y**2)
    return norms


def refined_grid_search(prev, nxt, weights, eps, center=(0.0, 0.0, 0.0), half_width=0.5, levels=9):
    """Exhaustive search over (angle, bx, by), shrinking the grid around the argmin."""
    center = np.asarray(center, dtype=float)
    step = half_width / 10
    for _ in range(levels):
        phis = center[0] + np.linspace(-10, 10, 21) * step
        bxs = center[1] + np.linspace(-10, 10, 21) * step
        bys = center[2] + np.linspace(-10, 10, 21) * step
        norms = independent_residual_grid(prev, nxt, weights, eps, phis, bxs, bys)
        i, j, k = np.unravel_index(np.argmin(norms), norms.shape)
        center = np.array([phis[i], bxs[j], bys[k]])
        step /= 5
    return center, step * 5


class TestPositionStep:
    def test_congruent_shape_lands_exactly(self):
        canonical = reference_shapes()[5]
        h = RigidMotion(0.7, np.array([0.4, -0.2]))
        prev = PositionedShape(*h.move(canonical.vertices, canonical.tangents))
        params = DissipationParams.uniform(1.38, canonical.num_vertices, 0.3)
        sol = position_step(prev, canonical, params)
        assert np.max(np.abs(sol.positioned.vertices - prev.vertices)) < 1e-12
        assert np.linalg.norm(sol.residual) < 1e-12

    def test_isotropic_step_freezes_center_of_mass(self):
        shapes = reference_shapes(timesteps=16, edges=9)
        params = DissipationParams.uniform(1.38, 10, 1.0)
        body_length = 0.92
        prev = shapes[0]
        for nxt in shapes[1:]:
            sol = position_step(prev, nxt, params)
            drift = np.linalg.norm(
                center_of_mass(sol.positioned, params.weights)
                - center_of_mass(prev, params.weights)
            )
            assert drift < 1e-10 * body_length
            prev = sol.positioned

    def test_two_vertex_root_matches_grid_search(self):
        prev = segment(length=1.0, origin=(0.2, -0.1), angle=0.3)
        nxt = segment(length=0.8)
        weights = np.array([0.7, 1.5])
        eps = 0.3
        params = DissipationParams(weights, eps)
        sol = position_step(prev, nxt, params)
        newton_x = np.array([sol.motion.angle, sol.motion.translation[0], sol.motion.translation[1]])
        grid_x, final_step = refined_grid_search(prev, nxt, weights, eps)
        assert final_step < 5e-7
        assert np.max(np.abs(newton_x - grid_x)) <= 1e-6

    def test_residual_within_tolerance_scale(self):
        shapes = reference_shapes(timesteps=20, edges=11, body_length=0.92)
        params = DissipationParams.uniform(1.38, 12, 0.1865)
        scale = params.weights.sum() * 0.92
        prev = shapes[0]
        for nxt in shapes[1:]:
            sol = position_step(prev, nxt, params)
            assert np.linalg.norm(sol.residual) <= 1e-10 * scale
            # residual and energy come from one pass over the placed pair
            assert np.array_equal(sol.residual, geometric_momentum(prev, sol.positioned, params))
            assert sol.energy == step_energy(prev, sol.positioned, params)
            prev = sol.positioned

    def test_no_convergence_reports_residual_and_iterations(self, monkeypatch):
        shapes = reference_shapes(timesteps=8, edges=6)
        params = DissipationParams.uniform(1.38, 7, 0.2)
        monkeypatch.setattr(dyn, "_MAX_ITERATIONS", 1)  # the budget is read at each call
        with pytest.raises(NoConvergence) as info:
            position_step(shapes[0], shapes[3], params, guess=RigidMotion(2.5, np.array([50.0, 50.0])))
        assert info.value.residual is not None
        assert info.value.iterations == 1

    def test_non_finite_residual_is_not_converged(self):
        shapes = reference_shapes(timesteps=8, edges=6)
        params = DissipationParams.uniform(1.38, 7, 0.2)
        with pytest.raises(NoConvergence):
            position_step(shapes[0], shapes[1], params, guess=RigidMotion(np.nan, np.zeros(2)))

    def test_infinite_guess_angle_is_not_converged(self):
        shapes = reference_shapes(timesteps=8, edges=6)
        params = DissipationParams.uniform(1.38, 7, 0.2)
        with pytest.raises(NoConvergence):
            position_step(shapes[0], shapes[1], params, guess=RigidMotion(np.inf, np.zeros(2)))

    def test_angle_equation_matches_reference_residual(self):
        rng = np.random.default_rng(29)
        for _ in range(8):
            edges = int(rng.integers(2, 12))
            length = rng.uniform(0.2, 2.0)
            shapes = []
            for _ in range(2):
                motion = RigidMotion(rng.uniform(-np.pi, np.pi), rng.normal(size=2))
                curve = curve_from_curvature(rng.normal(scale=4.0, size=edges), length)
                shapes.append(PositionedShape(*motion.move(curve.vertices, curve.tangents)))
            weights = rng.uniform(0.1, 2.0, size=edges + 1)
            for eps in (0.05, 0.1865, 1.0):
                params = DissipationParams(weights, eps)
                equation = angle_equation(shapes[0], shapes[1], params)
                for _ in range(5):
                    theta = rng.normal(scale=[2.0, 1.0, 1.0])[0]
                    g, _, b = equation(theta)
                    moved = PositionedShape(*RigidMotion(theta, np.array([b.real, b.imag])).move(shapes[1].vertices, shapes[1].tangents))
                    reference = geometric_momentum(shapes[0], moved, params)
                    # g is the rotational row; b(theta) zeroes the translational rows
                    reduced = np.array([g, 0.0, 0.0])
                    assert np.max(np.abs(reduced - reference)) <= 1e-14 * weights.sum() * length

    def test_angle_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        h = 1e-6
        for _ in range(10):
            edges = int(rng.integers(2, 12))
            length = rng.uniform(0.2, 2.0)
            shapes = []
            for _ in range(2):
                motion = RigidMotion(rng.uniform(-np.pi, np.pi), rng.normal(size=2))
                curve = curve_from_curvature(rng.normal(scale=4.0, size=edges), length)
                shapes.append(PositionedShape(*motion.move(curve.vertices, curve.tangents)))
            weights = rng.uniform(0.1, 2.0, size=edges + 1)
            for eps in (0.05, 0.1865, 1.0):
                equation = angle_equation(shapes[0], shapes[1], DissipationParams(weights, eps))
                for theta in rng.uniform(-np.pi, np.pi, size=5):
                    fd = (equation(theta + h)[0] - equation(theta - h)[0]) / (2 * h)
                    assert abs(equation(theta)[1] - fd) <= 1e-7 * weights.sum() * length**2

    def test_coarse_gait_step_that_newton_misses(self):
        # 3D damped Newton and its trust-region rescue stalled at timestep 1 of
        # this out-of-bounds gait with |momentum| 4.4e-4 after 136 iterations
        from snakesim.optimize import SimConfig, simulate_gait

        params = DissipationParams.uniform(1.38, 12, 0.1865)
        traj = simulate_gait(COARSE_GAIT, SimConfig(timesteps=4), params)
        for prev, nxt in zip(traj.shapes, traj.shapes[1:]):
            mu = geometric_momentum(prev, nxt, params)
            assert np.linalg.norm(mu) <= 1e-10 * params.weights.sum() * nxt.polyline_length

    def test_translation_is_evaluated_at_the_returned_angle(self):
        # seeds and budgets that end in Newton, the scan, the bracketed refinement,
        # and a budget that runs out before the refinement evaluates its next angle
        from snakesim.dynamics import _solve_angle

        prev, nxt = gait_to_shape_sequence(COARSE_GAIT, 4, 11, 0.92)[:2]
        params = DissipationParams.uniform(1.38, 12, 0.1865)
        equation = angle_equation(prev, nxt, params)
        accept_tol = 1e-10 * params.weights.sum() * nxt.polyline_length
        for seed in np.linspace(-np.pi, np.pi, 24, endpoint=False):
            for budget in (1, 4, 8, 12, 20, 100):
                theta, iterations, b = _solve_angle(equation, seed, accept_tol, 1e-4 * accept_tol, budget)
                assert iterations <= budget
                assert b == equation(theta)[2]

    def test_scan_without_a_sign_change_returns_the_seed(self):
        # g never vanishes, and Newton cannot start on a flat g: the scan spends one evaluation per interval
        from snakesim.dynamics import _SCAN_INTERVALS, _solve_angle

        theta, iterations, b = _solve_angle(lambda angle: (1.0, 0.0, complex(angle)), 0.5, 1e-12, 1e-16, 100)
        assert (theta, iterations, b) == (0.5, _SCAN_INTERVALS, 0.5)

    def test_bisection_stops_when_the_bracket_is_two_adjacent_floats(self):
        # a g that jumps from -1 to 1 at 0.1, flat on either side: the refinement bisects until no float lies
        # strictly inside the bracket, well inside the budget
        from snakesim.dynamics import _solve_angle

        def step(angle):
            return (1.0 if angle >= 0.1 else -1.0), 0.0, complex(angle)

        theta, iterations, b = _solve_angle(step, 0.0, 0.0, 0.0, 100)
        assert abs(theta - 0.1) <= math.ulp(0.1) and b == theta
        assert iterations < 100

    def test_input_layout_does_not_change_the_step(self):
        # Fortran-ordered, strided and integer arrays are stored C-contiguous float64
        rng = np.random.default_rng(31)
        shapes = reference_shapes(timesteps=12, edges=8)
        params = DissipationParams.uniform(1.38, 9, 0.2)
        ints = integer_frames(rng, count=2, num_vertices=9)
        cases = [((shapes[2], shapes[3]), (relaid(shapes[2], layout), relaid(shapes[3], layout)))
                 for layout in ("fortran", "strided")]
        cases.append((
            tuple(PositionedShape.from_vertices(f.astype(float)) for f in ints),
            tuple(PositionedShape(f, tangents_from_vertices(f)) for f in ints),
        ))
        for reference, other in cases:
            expected, found = position_step(*reference, params), position_step(*other, params)
            assert found.motion.angle == expected.motion.angle
            assert np.array_equal(found.motion.translation, expected.motion.translation)
            assert np.array_equal(found.positioned.vertices, expected.positioned.vertices)
            assert np.array_equal(found.positioned.tangents, expected.positioned.tangents)
            assert np.array_equal(found.residual, expected.residual)
            assert (found.energy, found.iterations) == (expected.energy, expected.iterations)

    def test_root_nearest_the_seed_angle(self):
        # g changes sign twice on this step; from any seed angle the step lands
        # on the root nearest it, whether Newton reaches it or the scan does
        prev, nxt = gait_to_shape_sequence(COARSE_GAIT, 4, 11, 0.92)[:2]
        params = DissipationParams.uniform(1.38, 12, 0.1865)
        equation = angle_equation(prev, nxt, params)
        grid = np.linspace(0.0, 2 * np.pi, 4097)
        g = np.array([equation(theta)[0] for theta in grid])
        crossing = np.nonzero(np.sign(g[:-1]) != np.sign(g[1:]))[0]
        roots = grid[crossing] - g[crossing] * (grid[1] - grid[0]) / (g[crossing + 1] - g[crossing])
        assert len(roots) == 2

        def distance(a, b):
            return np.abs((np.asarray(a) - b + np.pi) % (2 * np.pi) - np.pi)

        for seed in np.linspace(-np.pi, np.pi, 48, endpoint=False):
            to_roots = distance(roots, seed)
            if abs(to_roots[0] - to_roots[1]) < 0.2:
                continue  # about equally far from both roots
            sol = position_step(prev, nxt, params, guess=RigidMotion(seed, np.array([9.0, -9.0])))
            assert distance(sol.motion.angle, roots[np.argmin(to_roots)]) < 1e-3


class TestSeedAngle:
    """Without a guess, a step starts from the angle of the weighted rigid registration of the arriving
    shape onto the previous one, which the angle equation sums from its own centred points."""

    def test_equation_gives_the_registration_angle_the_phase_of_p1(self):
        from snakesim.optimize import random_gait

        def gap(a, b):
            return abs(math.remainder(a - b, 2 * math.pi))

        rng = np.random.default_rng(5)
        worst = 0.0
        for seed in range(12):
            shapes = gait_to_shape_sequence(random_gait(seed), 16, 11, 0.92)
            # the previous shapes moved anywhere, so the angles cover the whole turn
            moved = [PositionedShape(*RigidMotion(rng.uniform(-np.pi, np.pi), rng.normal(size=2)).move(s.vertices, s.tangents)) for s in shapes]
            for eps in (0.05, 0.1865, 0.5, 1.0):
                params = DissipationParams(rng.uniform(0.05, 0.3, 12), eps)
                for prev, nxt in zip(moved, shapes[1:]):
                    expected = rigid_registration(nxt.vertices, prev.vertices, params.weights).angle
                    equation = angle_equation(prev, nxt, params)
                    found = registration_angle(prev, nxt, params)
                    worst = max(worst, gap(found, expected), gap(math.atan2(equation.p1.imag, equation.p1.real), expected))
                # a stack answers for its first step
                stack = registration_angle(*(SimpleNamespace(vertices=np.array([s.vertices for s in part]),
                                                             tangents=np.array([s.tangents for s in part]))
                                             for part in (moved[:-1], shapes[1:])), params)
                worst = max(worst, gap(stack, registration_angle(moved[0], shapes[1], params)))
        assert worst <= 1e-15

    def test_equal_shapes_and_zero_sums_give_angle_zero(self):
        shape = reference_shapes()[3]
        params = DissipationParams(np.linspace(0.05, 0.3, shape.num_vertices), 0.3)
        assert registration_angle(shape, shape, params) == 0.0
        # centred points whose weighted sum of conj(V) P vanishes: 1 - 0 - 1 = 0, and all on one line
        line = np.array([1.0, 0.0])
        prev = SimpleNamespace(vertices=np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), tangents=np.array([line] * 3))
        nxt = SimpleNamespace(vertices=np.array([[-1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]]), tangents=np.array([line] * 3))
        params = DissipationParams(np.ones(3), 0.3)
        assert rigid_registration(nxt.vertices, prev.vertices, params.weights).angle == 0.0
        assert registration_angle(prev, nxt, params) == 0.0


class TestIntegrateMotionTrajectory:
    def test_stationary_for_constant_shapes(self):
        shape = reference_shapes()[0]
        params = DissipationParams.uniform(1.38, shape.num_vertices, 0.3)
        traj = integrate_motion_trajectory([shape] * 5, params)
        for positioned in traj.shapes:
            assert np.max(np.abs(positioned.vertices - shape.vertices)) < 1e-12
        assert np.all(traj.step_energies == 0.0)

    def test_isotropic_gait_has_no_net_displacement(self):
        shapes = reference_shapes(timesteps=30, edges=11, body_length=0.92)
        params = DissipationParams.uniform(1.38, 12, 1.0)
        traj = integrate_motion_trajectory(shapes, params)
        assert traj.net_displacement < 1e-9 * 0.92

    def test_displacement_strictly_decreasing_in_epsilon(self):
        shapes = reference_shapes(timesteps=30, edges=11, body_length=0.92)
        displacements = []
        for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
            params = DissipationParams.uniform(1.38, 12, eps)
            displacements.append(integrate_motion_trajectory(shapes, params).net_displacement)
        assert all(a > b for a, b in zip(displacements, displacements[1:]))

    def test_step_energies_are_those_of_consecutive_frames(self):
        for eps in (0.05, 0.1865, 1.0):
            params = DissipationParams.uniform(1.38, 9, eps)
            traj = integrate_motion_trajectory(reference_shapes(timesteps=12, edges=8), params)
            direct = [step_energy(p, q, params) for p, q in zip(traj.shapes, traj.shapes[1:])]
            assert np.array_equal(traj.step_energies, direct)

    def test_first_shape_kept_verbatim(self):
        shapes = reference_shapes(timesteps=8, edges=6)
        start = PositionedShape(*RigidMotion(1.0, np.array([2.0, 3.0])).move(shapes[0].vertices, shapes[0].tangents))
        params = DissipationParams.uniform(1.38, 7, 0.3)
        traj = integrate_motion_trajectory([start] + shapes[1:], params)
        assert np.array_equal(traj.vertices[0], start.vertices)
        assert np.array_equal(traj.tangents[0], start.tangents)

    def test_stacks_are_the_placed_shapes(self):
        shapes = reference_shapes(timesteps=8, edges=6)
        params = DissipationParams.uniform(1.38, 7, 0.3)
        traj = integrate_motion_trajectory(shapes, params)
        assert traj.vertices.shape == traj.tangents.shape == (9, 7, 2)
        assert traj.vertices.flags.c_contiguous and traj.tangents.flags.c_contiguous
        assert len(traj.shapes) == 9 and traj.shapes is traj.shapes
        for t, shape in enumerate(traj.shapes):
            assert np.shares_memory(shape.vertices, traj.vertices)
            assert np.array_equal(shape.vertices, traj.vertices[t])
            assert np.array_equal(shape.tangents, traj.tangents[t])

    def test_equivariance_of_whole_trajectory(self):
        rng = np.random.default_rng(24)
        shapes = reference_shapes(timesteps=16, edges=9, body_length=0.92)
        params = DissipationParams.uniform(1.38, 10, 0.25)
        base = integrate_motion_trajectory(shapes, params)
        for _ in range(5):
            h = RigidMotion(rng.uniform(-np.pi, np.pi), rng.normal(scale=2.0, size=2))
            moved = integrate_motion_trajectory(
                [PositionedShape(*h.move(shapes[0].vertices, shapes[0].tangents))] + shapes[1:], params
            )
            for ours, theirs in zip(base.shapes, moved.shapes):
                assert np.max(np.abs(theirs.vertices - h.apply_points(ours.vertices))) < 1e-8 * 0.92

    def test_input_layout_does_not_change_the_trajectory(self):
        rng = np.random.default_rng(32)
        shapes = reference_shapes(timesteps=12, edges=8)
        ints = integer_frames(rng)
        cases = [(shapes, [relaid(s, layout) for s in shapes]) for layout in ("fortran", "strided")]
        cases.append((
            [PositionedShape.from_vertices(f.astype(float)) for f in ints],
            [PositionedShape(f, tangents_from_vertices(f)) for f in ints],
        ))
        for reference, other in cases:
            params = DissipationParams.uniform(1.38, reference[0].num_vertices, 0.2)
            expected = integrate_motion_trajectory(reference, params)
            found = integrate_motion_trajectory(other, params)
            for lhs, rhs in zip(expected.shapes, found.shapes):
                assert np.array_equal(lhs.vertices, rhs.vertices)
                assert np.array_equal(lhs.tangents, rhs.tangents)
            assert np.array_equal(expected.step_energies, found.step_energies)

    def test_determinism_bitwise(self):
        shapes = reference_shapes(timesteps=12, edges=8)
        params = DissipationParams.uniform(1.38, 9, 0.2)
        a = integrate_motion_trajectory(shapes, params)
        b = integrate_motion_trajectory(shapes, params)
        for lhs, rhs in zip(a.shapes, b.shapes):
            assert np.array_equal(lhs.vertices, rhs.vertices)
        assert np.array_equal(a.step_energies, b.step_energies)

    def test_weight_rescaling_leaves_motion_unchanged(self):
        shapes = reference_shapes(timesteps=12, edges=8, body_length=0.92)
        base = integrate_motion_trajectory(
            shapes, DissipationParams.uniform(1.38, 9, 0.3)
        )
        for lam in (0.1, 10.0):
            scaled = integrate_motion_trajectory(
                shapes, DissipationParams.uniform(1.38 * lam, 9, 0.3)
            )
            for lhs, rhs in zip(base.shapes, scaled.shapes):
                assert np.max(np.abs(lhs.vertices - rhs.vertices)) < 1e-10 * 0.92

    def test_failure_names_the_timestep(self, monkeypatch):
        import snakesim.dynamics as dyn

        def always_fails(*args, **kwargs):
            raise NoConvergence("synthetic failure", residual=np.ones(3), iterations=100)

        monkeypatch.setattr(dyn, "position_step", always_fails)
        shapes = reference_shapes(timesteps=8, edges=6)
        params = DissipationParams.uniform(1.38, 7, 0.3)
        with pytest.raises(NoConvergence, match="timestep 1"):
            dyn.integrate_motion_trajectory(shapes, params)

    def test_failure_keeps_residual_and_iterations(self, monkeypatch):
        import snakesim.dynamics as dyn

        residual = np.array([1e-3, -2e-4, 5e-5])

        def always_fails(*args, **kwargs):
            raise NoConvergence("synthetic failure", residual=residual, iterations=7)

        monkeypatch.setattr(dyn, "position_step", always_fails)
        shapes = reference_shapes(timesteps=8, edges=6)
        params = DissipationParams.uniform(1.38, 7, 0.3)
        with pytest.raises(NoConvergence) as info:
            dyn.integrate_motion_trajectory(shapes, params)
        assert info.value.iterations == 7
        assert np.array_equal(info.value.residual, residual)


class TestIntegrateShapeSequence:
    """The lockstep integrator against the step-by-step one, which stays the reference."""

    def test_agrees_with_step_by_step_integration(self):
        from snakesim.optimize import random_gait

        for seed in range(40):
            cycle = gait_to_shape_sequence(random_gait(seed), 50, 11, 0.92)
            for eps in (0.05, 0.1865, 0.5, 1.0):
                params = DissipationParams.uniform(1.38, 12, eps)
                expected = integrate_motion_trajectory(cycle + [cycle[0]], params)
                found = integrate_shape_sequence(cycle + [cycle[0]], params)
                assert np.max(np.abs(found.vertices - expected.vertices)) <= 1e-13
                assert np.max(np.abs(found.tangents - expected.tangents)) <= 1e-13
                gap = np.abs(found.step_energies - expected.step_energies)
                assert np.all(gap <= 1e-12 * np.abs(expected.step_energies))

    def test_coarse_gaits_take_the_same_root(self, monkeypatch):
        # outside DEFAULT_BOUNDS and played in few timesteps: steps of up to a
        # turn, where Newton often stops and the scan picks among several roots
        import snakesim.dynamics as dyn

        handed_over = []
        original = dyn.position_step

        def counted(*args, **kwargs):
            handed_over.append(args)
            return original(*args, **kwargs)

        rng = np.random.default_rng(2024)
        steps = 0
        for k in range(400):
            timesteps = int(rng.integers(3, 11))
            gait = GaitEllipse(sigma=rng.uniform(0.0, 1.0), xc=rng.uniform(-5.0, 5.0), yc=rng.uniform(-5.0, 5.0),
                               theta=rng.uniform(0.0, np.pi), a=rng.uniform(0.0, 16.0), xi=rng.uniform(0.5, 1.5))
            cycle = gait_to_shape_sequence(gait, timesteps, 11, 0.92)
            params = DissipationParams.uniform(1.38, 12, (0.05, 0.1865, 0.5, 0.9)[k % 4])
            expected = integrate_motion_trajectory(cycle + [cycle[0]], params)
            with monkeypatch.context() as patch:
                patch.setattr(dyn, "position_step", counted)
                found = integrate_shape_sequence(cycle + [cycle[0]], params)
            assert np.max(np.abs(found.vertices - expected.vertices)) <= 1e-12, (k, gait)
            steps += timesteps
        assert 0 < len(handed_over) < steps  # both paths ran

    def test_unaccepted_steps_go_to_position_step(self, monkeypatch):
        import snakesim.dynamics as dyn

        guesses = []
        original = dyn.position_step

        def counted(prev, nxt, params, guess=None):
            guesses.append(guess)
            return original(prev, nxt, params, guess=guess)

        monkeypatch.setattr(dyn, "position_step", counted)
        cycle = gait_to_shape_sequence(COARSE_GAIT, 4, 11, 0.92)
        params = DissipationParams.uniform(1.38, 12, 0.1865)
        found = integrate_shape_sequence(cycle + [cycle[0]], params)
        # step 1 from the registration angle, the later steps from the angle of their predecessor
        assert guesses[0] is None and len(guesses) >= 2
        assert all(guess.angle == 0.0 and not guess.translation.any() for guess in guesses[1:])
        expected = integrate_motion_trajectory(cycle + [cycle[0]], params)
        assert np.max(np.abs(found.vertices - expected.vertices)) <= 1e-13

    def test_failure_names_the_timestep_and_keeps_the_solver_record(self, monkeypatch):
        import snakesim.dynamics as dyn

        residual = np.array([1e-3, -2e-4, 5e-5])

        def always_fails(*args, **kwargs):
            raise NoConvergence("synthetic failure", residual=residual, iterations=7)

        monkeypatch.setattr(dyn, "position_step", always_fails)
        cycle = gait_to_shape_sequence(COARSE_GAIT, 4, 11, 0.92)
        with pytest.raises(NoConvergence, match="timestep 1: synthetic failure") as info:
            dyn.integrate_shape_sequence(cycle + [cycle[0]], DissipationParams.uniform(1.38, 12, 0.1865))
        assert info.value.iterations == 7
        assert np.array_equal(info.value.residual, residual)

    def test_accepted_steps_need_no_step_solve(self, monkeypatch):
        import snakesim.dynamics as dyn

        def never(*args, **kwargs):
            raise AssertionError("position_step called")

        monkeypatch.setattr(dyn, "position_step", never)
        traj = dyn.integrate_shape_sequence(reference_shapes(), DissipationParams.uniform(1.38, 9, 0.3))
        assert len(traj.step_energies) == 24

    def test_one_shape_is_a_zero_step_trajectory(self):
        shape = reference_shapes()[3]
        traj = integrate_shape_sequence([shape], DissipationParams.uniform(1.38, 9, 0.3))
        assert np.array_equal(traj.vertices, shape.vertices[None]) and traj.step_energies.shape == (0,)

    def test_rejects_empty_and_mismatched_sequences(self):
        shapes = reference_shapes(edges=8)
        with pytest.raises(ShapeMismatch):
            integrate_shape_sequence([], DissipationParams.uniform(1.38, 9, 0.3))
        with pytest.raises(ShapeMismatch):
            integrate_shape_sequence(shapes, DissipationParams.uniform(1.38, 8, 0.3))
        with pytest.raises(ShapeMismatch):
            integrate_shape_sequence(shapes[:2] + reference_shapes(edges=6)[:2], DissipationParams.uniform(1.38, 9, 0.3))


def ramped_recording(rng, frames=61, edges=11):
    """(T+1, N, 2) frames and tangents like the benchmark's marker recordings: a travelling gait whose
    amplitude ramps over the recording, integrated at a random ratio and moved rigidly."""
    from dataclasses import replace

    from snakesim.shapespace import sample_gait, serpenoid_curvature

    gait = GaitEllipse(sigma=rng.uniform(0.5, 1.0), xc=0.0, yc=0.0, theta=rng.uniform(0.0, np.pi),
                       a=rng.uniform(2.0, 4.0), xi=rng.uniform(0.8, 1.2))
    stations = np.arange(edges) / edges
    shapes = []
    for j in range(frames):
        point = sample_gait(replace(gait, a=gait.a * (0.75 + 0.5 * j / (frames - 1))), j / 50)
        shapes.append(curve_from_curvature(serpenoid_curvature(point, gait.xi, stations), 0.92))
    traj = integrate_shape_sequence(shapes, DissipationParams.uniform(1.38, edges + 1, rng.uniform(0.05, 0.9)))
    moved = RigidMotion(rng.uniform(-np.pi, np.pi), rng.normal(size=2)).move(traj.vertices, traj.tangents)
    return moved[0], tangents_from_vertices(moved[0])


class TestRatioAxis:
    """`_integrate_stacks` on (1, T+1, N, 2) stacks at B ratios against a loop of one-ratio solves, the reference kept here."""

    GRID = np.geomspace(0.01, 1.0, 6)  # the grid of `fit_anisotropy`

    @staticmethod
    def one_ratio_solves(verts, tangs, weights, epsilons):
        return [dyn._integrate_stacks(verts[None], tangs[None], [DissipationParams(weights, eps)])[0] for eps in epsilons]

    def assert_bitwise(self, verts, tangs, weights, epsilons):
        expected = self.one_ratio_solves(verts, tangs, weights, epsilons)
        params = [DissipationParams(weights, eps) for eps in epsilons]
        stacks = verts[None], tangs[None]
        kept = dyn._integrate_stacks(*stacks, params, dyn._stack_pairs(*stacks, weights))
        found = dyn._integrate_stacks(*stacks, params)
        assert len(kept) == len(found) == len(epsilons)
        for p, one, *many in zip(params, expected, kept, found):
            for traj in many:
                assert traj.params is p
                for name in ("vertices", "tangents", "step_energies"):
                    assert getattr(traj, name).tobytes() == getattr(one, name).tobytes(), (p.epsilon, name)

    def test_bitwise_one_ratio_solves_on_gait_cycles(self):
        from snakesim.optimize import random_gait
        from snakesim.shapespace import _cycle_stacks

        weights = DissipationParams.uniform(1.38, 12, 0.5).weights
        for seed in range(40):
            self.assert_bitwise(*_cycle_stacks(random_gait(seed), 50, 11, 0.92), weights, self.GRID)

    def test_bitwise_one_ratio_solves_on_ramped_recordings(self):
        rng = np.random.default_rng(18)
        for _ in range(4):
            verts, tangs = ramped_recording(rng)
            self.assert_bitwise(verts, tangs, rng.uniform(0.05, 0.2, 12), self.GRID)

    def test_each_fallback_runs_at_its_own_ratio(self, monkeypatch):
        # COARSE_GAIT in 4 timesteps: step 4 is accepted in lockstep at the two largest grid ratios
        # and goes to position_step at the four others
        from snakesim.shapespace import _cycle_stacks

        handed_over = []
        original = dyn.position_step

        def counted(prev, nxt, params, guess=None):
            handed_over.append((params.epsilon, prev.vertices.tobytes()))
            return original(prev, nxt, params, guess=guess)

        monkeypatch.setattr(dyn, "position_step", counted)
        weights = DissipationParams.uniform(1.38, 12, 0.5).weights
        verts, tangs = _cycle_stacks(COARSE_GAIT, 4, 11, 0.92)
        self.one_ratio_solves(verts, tangs, weights, self.GRID)
        expected, handed_over[:] = sorted(handed_over), []
        self.assert_bitwise(verts, tangs, weights, self.GRID)
        # the one-ratio solves, then the batch with kept pairs and without: each hands over the same steps
        batched = handed_over[len(expected):]
        assert sorted(batched[:len(expected)]) == sorted(batched[len(expected):]) == expected
        batched = batched[:len(expected)]
        ratios_per_step = {}
        for eps, step in batched:
            ratios_per_step.setdefault(step, set()).add(eps)
        assert any(0 < len(ratios) < len(self.GRID) for ratios in ratios_per_step.values())



class TestSequenceAxis:
    """`_integrate_stacks` on (S, T+1, N, 2) stacks of S sequences at one ratio, against one-sequence solves."""

    WEIGHTS = DissipationParams.uniform(1.38, 12, 0.5).weights

    def assert_bitwise(self, gaits, timesteps, epsilon=0.1865):
        from snakesim.shapespace import _cycle_stacks

        params = DissipationParams(self.WEIGHTS, epsilon)
        expected = [dyn._integrate_stacks(*(s[None] for s in _cycle_stacks(gait, timesteps, 11, 0.92)), [params])[0] for gait in gaits]
        verts, tangs = _cycle_stacks(list(gaits), timesteps, 11, 0.92)
        kept = dyn._integrate_stacks(verts, tangs, [params], dyn._stack_pairs(verts, tangs, self.WEIGHTS))
        found = dyn._integrate_stacks(verts, tangs, [params])
        assert len(kept) == len(found) == len(gaits)
        for b, (one, *many) in enumerate(zip(expected, kept, found)):
            for traj in many:
                assert traj.params is params
                for name in ("vertices", "tangents", "step_energies"):
                    assert getattr(traj, name).tobytes() == getattr(one, name).tobytes(), (b, name)

    @pytest.mark.parametrize("timesteps", [4, 50])
    def test_bitwise_one_sequence_solves_in_batches_of_seven(self, timesteps):
        from snakesim.optimize import random_gait

        gaits = [random_gait(seed) for seed in range(40)]
        for start in range(0, len(gaits), 7):
            self.assert_bitwise(gaits[start:start + 7], timesteps)

    @pytest.mark.parametrize("timesteps", [4, 50])
    def test_fallback_steps_inside_a_block(self, timesteps, monkeypatch):
        # COARSE_GAIT mid-batch: in 4 timesteps some of its steps go to position_step, in 50 none do
        from snakesim.optimize import random_gait

        handed_over = []
        original = dyn.position_step

        def counted(prev, nxt, params, guess=None):
            handed_over.append((prev.vertices.tobytes(), nxt.vertices.tobytes(), guess))
            return original(prev, nxt, params, guess=guess)

        monkeypatch.setattr(dyn, "position_step", counted)
        gaits = [random_gait(0), random_gait(1), COARSE_GAIT, random_gait(2), random_gait(3)]
        self.assert_bitwise(gaits, timesteps)
        # one-sequence solves, then the batch with kept pairs and without: each hands over the same steps
        third = len(handed_over) // 3
        assert len(handed_over) == 3 * third
        assert sorted(map(repr, handed_over[third:2 * third])) == sorted(map(repr, handed_over[:third]))
        assert (third > 0) == (timesteps == 4)

    def test_batch_of_one(self):
        from snakesim.optimize import random_gait

        self.assert_bitwise([random_gait(7)], 50)
        self.assert_bitwise([COARSE_GAIT], 4)

    def test_no_steps(self):
        params = DissipationParams(self.WEIGHTS, 0.3)
        verts = np.zeros((3, 1, 12, 2))
        verts[..., 0] = np.linspace(0.0, 1.0, 12)
        tangs = np.zeros_like(verts)
        tangs[..., 0] = 1.0
        found = dyn._integrate_stacks(verts, tangs, [params])
        assert len(found) == 3 and all(traj.step_energies.shape == (0,) for traj in found)


def test_every_call_leaves_its_stacks_unchanged():
    # S sequences or B ratios, with kept pairs or without, with steps or none: the stacks given are only read,
    # and every trajectory holds new arrays
    from snakesim.optimize import random_gait
    from snakesim.shapespace import _cycle_stacks

    weights = np.full(12, 0.115)
    one, grid = [DissipationParams(weights, 0.3)], [DissipationParams(weights, eps) for eps in TestRatioAxis.GRID]
    sequences = _cycle_stacks([random_gait(3), COARSE_GAIT, random_gait(5)], 4, 11, 0.92)
    sequence = _cycle_stacks([random_gait(3)], 20, 11, 0.92)
    for (verts, tangs), params in [(sequences, one), (sequence, one), (sequence, grid), (tuple(s[:, :1] for s in sequences), one)]:
        for pairs in (None, dyn._stack_pairs(verts, tangs, weights)):
            before = verts.tobytes(), tangs.tobytes()
            found = dyn._integrate_stacks(verts, tangs, params, pairs)
            assert (verts.tobytes(), tangs.tobytes()) == before
            assert len(found) == max(len(verts), len(params))
            for traj in found:
                assert not np.shares_memory(traj.vertices, verts) and not np.shares_memory(traj.tangents, tangs)


class TestHoistedSums:
    """`_StepPairs` forms the tangent sums once and `_AngleEquation` scales them by gamma, against a per-ratio reference."""

    GRID = np.geomspace(0.01, 1.0, 6)  # the grid of `fit_anisotropy`
    # each sum of the equation: tangent set (0 prev, 1 next), row and column of the weighted column products
    SUMS = {"s2": (0, 0, 0), "s2v": (0, 0, 1), "s2p": (0, 0, 2), "s2vv": (0, 1, 1), "s2vp": (0, 1, 2),
            "u2": (1, 0, 0), "u2v": (1, 0, 1), "u2p": (1, 0, 2), "u2pv": (1, 2, 1), "u2pp": (1, 2, 2)}

    @staticmethod
    def reference_products(verts, tangs, weights, epsilon):
        """The (2, T, 3, 3) tangent products as formed for each ratio before the hoist, and their magnitudes'."""
        p, v = dyn.complex_view(verts[:-1]), dyn.complex_view(verts[1:])
        bars = np.array([p, v]) @ weights / weights.sum()
        cols = np.empty(p.shape + (3,), dtype=complex)
        cols[..., 0] = 1.0
        cols[..., 1] = np.conjugate(v - bars[1, ..., None])
        cols[..., 2] = np.conjugate(p - bars[0, ..., None])
        t2 = np.array([dyn.complex_view(tangs[:-1]), dyn.complex_view(tangs[1:])])
        t2 *= t2
        t2 *= 0.5 * (epsilon - 1.0) * weights
        sizes = (np.abs(t2)[..., None, :] * np.abs(cols).swapaxes(-1, -2)) @ np.abs(cols)
        return (t2[..., None, :] * cols.swapaxes(-1, -2)) @ cols, sizes

    def stacks(self):
        from snakesim.optimize import random_gait
        from snakesim.shapespace import _cycle_stacks

        yield _cycle_stacks(COARSE_GAIT, 4, 11, 0.92)
        yield _cycle_stacks(random_gait(7), 50, 11, 0.92)

    def test_reused_pairs_match_the_per_ratio_products(self):
        weights = np.random.default_rng(19).uniform(0.05, 0.2, 12)
        for verts, tangs in self.stacks():
            pairs = dyn._stack_pairs(verts[None], tangs[None], weights)
            for eps in self.GRID:
                equation = dyn._AngleEquation(pairs, eps)
                expected, sizes = self.reference_products(verts, tangs, weights, eps)
                for name, (half, row, col) in self.SUMS.items():
                    gap = np.abs(getattr(equation, name) - expected[half, :, row, col])
                    # a few units in the last place of the sum of the magnitudes of its terms
                    assert np.all(gap <= 8 * np.finfo(float).eps * sizes[half, :, row, col]), (eps, name)

    def test_one_pair_matches_the_per_ratio_products(self):
        weights = np.random.default_rng(20).uniform(0.05, 0.2, 12)
        for verts, tangs in self.stacks():
            prev, nxt = dyn._shape_views(verts[1:3], tangs[1:3])
            pairs = dyn._StepPairs(prev, nxt, weights)
            for eps in self.GRID:
                equation = dyn._AngleEquation(pairs, eps)
                expected, sizes = self.reference_products(verts[1:3], tangs[1:3], weights, eps)
                for name, (half, row, col) in self.SUMS.items():
                    assert isinstance(getattr(equation, name), complex)
                    assert abs(getattr(equation, name) - expected[half, 0, row, col]) <= 8 * np.finfo(float).eps * sizes[half, 0, row, col]

    def test_reused_pairs_give_bitwise_the_fresh_equation(self):
        weights = np.random.default_rng(21).uniform(0.05, 0.2, 12)
        for verts, tangs in self.stacks():
            pairs = dyn._stack_pairs(verts[None], tangs[None], weights)
            sums = pairs.sums.copy()
            theta = np.linspace(-0.5, 0.5, len(verts) - 1)
            for eps in self.GRID:
                reused = dyn._AngleEquation(pairs, eps)
                fresh = dyn._AngleEquation(dyn._stack_pairs(verts[None], tangs[None], weights), eps)
                for name in (*self.SUMS, "p1", "p_bar", "v_bar", "two_b"):
                    assert np.asarray(getattr(reused, name)).tobytes() == np.asarray(getattr(fresh, name)).tobytes(), (eps, name)
                for found, expected in zip(reused(theta), fresh(theta)):
                    assert found.tobytes() == expected.tobytes()
            assert pairs.sums.tobytes() == sums.tobytes()  # no ratio wrote into the shared sums


class TestTrajectoryStacks:
    def stacks(self, frames=4, num_vertices=5):
        rng = np.random.default_rng(frames)
        verts = np.cumsum(rng.normal(size=(frames, num_vertices, 2)), axis=1)
        return verts, tangents_from_vertices(verts)

    def test_accepts_any_input_layout(self):
        verts, tangs = self.stacks()
        params = DissipationParams.uniform(1.38, 5, 0.3)
        traj = Trajectory(np.asfortranarray(verts), tangs.tolist(), [1.0, 2.0, 3.0], params)
        assert traj.vertices.flags.c_contiguous and traj.tangents.dtype == np.float64
        assert np.array_equal(traj.vertices, verts) and np.array_equal(traj.tangents, tangs)

    def test_rejects_bad_stacks(self):
        verts, tangs = self.stacks()
        params = DissipationParams.uniform(1.38, 5, 0.3)
        energies = np.zeros(3)
        non_finite = verts.copy()
        non_finite[2, 3, 1] = np.nan
        stretched = tangs.copy()
        stretched[1, 2] *= 1.0 + 1.01e-9
        cases = [
            (verts[0], tangs[0], energies),  # one frame, not a stack
            (verts[None], tangs[None], energies),  # 4-D
            (verts, tangs[:, :4], energies),  # tangents of another shape
            (verts[:, :, :1], tangs[:, :, :1], energies),
            (verts[:0], tangs[:0], np.zeros(0)),
            (non_finite, tangs, energies),
            (verts, stretched, energies),
            (verts, tangs, np.zeros(4)),  # one energy per step
            (verts[:, :4], tangs[:, :4], energies),  # 4 vertices, 5 weights
        ]
        for v, t, e in cases:
            with pytest.raises(ShapeMismatch):
                Trajectory(v, t, e, params)

    def test_unit_tangent_bound_is_one_in_a_billion(self):
        # |t| = 1 +- 1e-9 exactly passes on every vertex, |t| = 1 +- 1.01e-9 fails on any
        rng = np.random.default_rng(7)
        verts, tangs = self.stacks(frames=200, num_vertices=12)
        params = DissipationParams.uniform(1.38, 12, 0.3)
        scale = 1.0 + rng.choice([-1e-9, 1e-9], size=(200, 12, 1))
        Trajectory(verts, tangs * scale, np.zeros(199), params)
        for t in range(200):
            PositionedShape(verts[t], tangs[t] * scale[t])
        for bad in (1.0 - 1.01e-9, 1.0 + 1.01e-9):
            stretched = tangs.copy()
            stretched[rng.integers(200), rng.integers(12)] *= bad
            with pytest.raises(ShapeMismatch):
                Trajectory(verts, stretched, np.zeros(199), params)


class TestTrajectoryFiles:
    def test_round_trip(self, tmp_path):
        shapes = reference_shapes(timesteps=6, edges=5)
        params = DissipationParams.uniform(1.38, 6, 0.3)
        traj = integrate_motion_trajectory(shapes, params)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        back = read_trajectory_csv(path)
        assert len(back) == len(traj.shapes)
        for lhs, rhs in zip(traj.shapes, back):
            assert np.array_equal(lhs.vertices[:, :2], rhs.vertices[:, :2])

    def test_bytes_match_csv_writer(self, tmp_path):
        from snakesim.optimize import SimConfig, simulate_gait

        sim = SimConfig(timesteps=12, edges=6, cycles=4)
        params = DissipationParams.uniform(1.38, sim.num_vertices, 0.1865)
        traj = simulate_gait(REFERENCE_GAIT, sim, params)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        reference = io.StringIO(newline="")
        writer = csv.writer(reference)
        writer.writerow(["t", "k", "x", "y"])
        for t, shape in enumerate(traj.shapes):
            for k, vertex in enumerate(shape.vertices):
                writer.writerow([t, k, repr(float(vertex[0])), repr(float(vertex[1]))])
        assert path.read_bytes() == reference.getvalue().encode()

    def test_same_bytes_from_trajectory_and_from_its_shapes(self, tmp_path):
        from snakesim.optimize import SimConfig, simulate_gait

        sim = SimConfig(timesteps=10, edges=5, cycles=3)
        traj = simulate_gait(REFERENCE_GAIT, sim, DissipationParams.uniform(1.38, sim.num_vertices, 0.3))
        write_trajectory_csv(tmp_path / "stacks.csv", traj)
        write_trajectory_csv(tmp_path / "objects.csv", list(traj.shapes))
        assert (tmp_path / "stacks.csv").read_bytes() == (tmp_path / "objects.csv").read_bytes()

    def test_energy_bytes_match_csv_writer(self, tmp_path):
        rng = np.random.default_rng(11)
        energies = np.concatenate([
            rng.exponential(size=50), 10.0 ** rng.uniform(-320, 300, size=50),
            [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e22, 1e16, 0.1],
        ])
        rng.shuffle(energies)
        path = tmp_path / "energies.csv"
        write_step_energies_csv(path, energies)
        reference = io.StringIO(newline="")
        writer = csv.writer(reference)
        writer.writerow(["t", "energy"])
        for t, value in enumerate(energies, start=1):
            writer.writerow([t, repr(float(value))])
        assert path.read_bytes() == reference.getvalue().encode()
        assert np.array_equal(read_step_energies_csv(path), energies)
        with pytest.raises(ShapeMismatch):
            write_step_energies_csv(tmp_path / "table.csv", np.zeros((2, 3)))

    def test_header_is_mandatory(self, tmp_path):
        path = tmp_path / "noheader.csv"
        path.write_text("0,0,0.0,0.0\n")
        with pytest.raises(FileFormatError):
            read_trajectory_csv(path)

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t,k,x,y\r\n")
        with pytest.raises(FileFormatError, match="no frames"):
            read_trajectory_csv(path)

    def test_vertex_gap_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("t,k,x,y\n0,0,0.0,0.0\n0,2,1.0,0.0\n")
        with pytest.raises(FileFormatError):
            read_trajectory_csv(path)

    def test_frame_gap_rejected(self, tmp_path):
        path = tmp_path / "skip.csv"
        path.write_text("t,k,x,y\n0,0,0.0,0.0\n0,1,1.0,0.0\n5,0,0.0,0.0\n5,1,1.0,0.0\n")
        with pytest.raises(FileFormatError, match="without gaps"):
            read_trajectory_csv(path)

    def test_duplicate_row_rejected(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("t,k,x,y\n0,0,0.0,0.0\n0,1,1.0,0.0\n0,1,2.0,0.0\n")
        with pytest.raises(FileFormatError, match="second row"):
            read_trajectory_csv(path)

    def test_frames_must_agree_on_vertex_count(self, tmp_path):
        path = tmp_path / "ragged.csv"
        rows = ["0,0,0.0,0.0", "0,1,1.0,0.0", "1,0,0.0,0.0", "1,1,1.0,0.0", "1,2,2.0,0.0"]
        path.write_text("t,k,x,y\n" + "\n".join(rows) + "\n")
        with pytest.raises(FileFormatError):
            read_trajectory_csv(path)

    def test_energies_file(self, tmp_path):
        path = tmp_path / "energies.csv"
        write_step_energies_csv(path, [0.5, 0.25])
        text = path.read_text().splitlines()
        assert text[0] == "t,energy"
        assert text[1] == "1,0.5"
