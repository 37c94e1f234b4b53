import csv
import io

import numpy as np
import pytest

from snakesim.dynamics import (
    DissipationParams,
    Trajectory,
    geometric_momentum,
    integrate_motion_trajectory,
    local_tensor,
    position_step,
    read_trajectory_csv,
    step_energy,
    total_energy,
    write_step_energies_csv,
    write_trajectory_csv,
)
from snakesim.errors import (
    FileFormatError,
    InvalidAnisotropy,
    InvalidWeight,
    NoConvergence,
    ShapeMismatch,
)
from snakesim.geometry import (
    PositionedShape,
    RigidMotion,
    apply_rigid_motion,
    center_of_mass,
    curve_from_curvature,
)
from snakesim.shapespace import GaitEllipse, gait_to_shape_sequence

# circle of radius 3 in the coefficient plane: the plain traveling-wave gait
REFERENCE_GAIT = GaitEllipse(sigma=1.0, xc=0.0, yc=0.0, theta=0.0, a=3.0, xi=1.0)


def reference_shapes(timesteps=24, edges=8, body_length=0.92, closed=True):
    cycle = gait_to_shape_sequence(REFERENCE_GAIT, timesteps, edges, body_length)
    return cycle + [cycle[0]] if closed else cycle


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
        with pytest.raises(InvalidWeight):
            local_tensor([1, 0], -1.0, 0.5)


class TestDissipationParams:
    def test_non_finite_weights_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidWeight):
                DissipationParams([bad, 1.0], 0.3)


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
                apply_rigid_motion(g, shapes[4]), apply_rigid_motion(g, shapes[5]), params
            )
            expected = np.concatenate([mu[:1], g.matrix @ mu[1:]])
            assert np.allclose(rotated, expected, atol=1e-12)


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
        prev = apply_rigid_motion(h, canonical)
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
            prev = sol.positioned

    def test_no_convergence_reports_residual_and_iterations(self):
        shapes = reference_shapes(timesteps=8, edges=6)
        params = DissipationParams.uniform(1.38, 7, 0.2)
        with pytest.raises(NoConvergence) as info:
            position_step(shapes[0], shapes[3], params, guess=RigidMotion(2.5, np.array([50.0, 50.0])), max_iterations=1)
        assert info.value.residual is not None
        assert info.value.iterations == 1

    def test_non_finite_residual_is_not_converged(self):
        shapes = reference_shapes(timesteps=8, edges=6)
        params = DissipationParams.uniform(1.38, 7, 0.2)
        with pytest.raises(NoConvergence):
            position_step(shapes[0], shapes[1], params, guess=RigidMotion(np.nan, np.zeros(2)))

    def test_planar_kernel_matches_reference_residual(self):
        from snakesim.dynamics import _StepProblem

        rng = np.random.default_rng(29)
        for _ in range(8):
            edges = int(rng.integers(2, 12))
            length = rng.uniform(0.2, 2.0)
            shapes = [
                apply_rigid_motion(
                    RigidMotion(rng.uniform(-np.pi, np.pi), rng.normal(size=2)),
                    curve_from_curvature(rng.normal(scale=4.0, size=edges), length),
                )
                for _ in range(2)
            ]
            weights = rng.uniform(0.1, 2.0, size=edges + 1)
            for eps in (0.05, 0.1865, 1.0):
                problem = _StepProblem(shapes[0], shapes[1], DissipationParams(weights, eps))
                for _ in range(5):
                    x = rng.normal(scale=[2.0, 1.0, 1.0])
                    kernel = problem.residual_and_jacobian(x)[0]
                    reference = problem.residual(x)
                    assert np.max(np.abs(kernel - reference)) <= 1e-14 * weights.sum() * length

    def test_jacobian_matches_finite_differences(self):
        from snakesim.dynamics import _StepProblem

        rng = np.random.default_rng(23)
        shapes = reference_shapes(timesteps=10, edges=7)
        params = DissipationParams.uniform(1.38, 8, 0.25)
        problem = _StepProblem(shapes[0], shapes[1], params)
        h = 1e-7 * 0.92  # finite-difference step tied to the body length
        for _ in range(10):
            x = rng.normal(scale=0.5, size=3)
            _, jac = problem.residual_and_jacobian(x)
            fd = np.empty((3, 3))
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd[:, j] = (problem.residual(x + e) - problem.residual(x - e)) / (2 * h)
            assert np.max(np.abs(jac - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))


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

    def test_first_shape_kept_verbatim(self):
        shapes = reference_shapes(timesteps=8, edges=6)
        start = apply_rigid_motion(RigidMotion(1.0, np.array([2.0, 3.0])), shapes[0])
        params = DissipationParams.uniform(1.38, 7, 0.3)
        traj = integrate_motion_trajectory([start] + shapes[1:], params)
        assert traj.shapes[0] is start

    def test_equivariance_of_whole_trajectory(self):
        rng = np.random.default_rng(24)
        shapes = reference_shapes(timesteps=16, edges=9, body_length=0.92)
        params = DissipationParams.uniform(1.38, 10, 0.25)
        base = integrate_motion_trajectory(shapes, params)
        for _ in range(5):
            h = RigidMotion(rng.uniform(-np.pi, np.pi), rng.normal(scale=2.0, size=2))
            moved = integrate_motion_trajectory(
                [apply_rigid_motion(h, shapes[0])] + shapes[1:], params
            )
            for ours, theirs in zip(base.shapes, moved.shapes):
                expected = apply_rigid_motion(h, ours)
                assert np.max(np.abs(theirs.vertices - expected.vertices)) < 1e-8 * 0.92

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

    def test_header_is_mandatory(self, tmp_path):
        path = tmp_path / "noheader.csv"
        path.write_text("0,0,0.0,0.0\n")
        with pytest.raises(FileFormatError):
            read_trajectory_csv(path)

    def test_vertex_gap_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("t,k,x,y\n0,0,0.0,0.0\n0,2,1.0,0.0\n")
        with pytest.raises(FileFormatError):
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
