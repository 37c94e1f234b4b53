"""Dissipation metric, geometric momentum, and trajectory integration.

Each vertex dissipates energy through an anisotropic local tensor
D_k = w_k (I + (eps - 1) T_k T_k^T), cheap to move along the tangent and
expensive across it.  A body at rest moves so that the geometric momentum of
every step vanishes; positioning the next shape therefore reduces to a
three-variable root-finding problem (rotation angle plus planar translation),
solved here by a damped Newton iteration with an analytic Jacobian and a
trust-region fallback for the rare steps where Newton stalls.

Shapes are (N, 2) vertex and tangent arrays, the tensors are 2x2, and the
momentum is the 3-vector (rotational, x, y), with the scalar cross product
a_x b_y - a_y b_x for the rotational part.  The residual-and-Jacobian kernel
evaluates the three Jacobian columns (angle, bx, by) in one pass.  A
non-finite residual never counts as converged.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import root as scipy_root

from .errors import (
    DegenerateJacobian,
    FileFormatError,
    InvalidAnisotropy,
    InvalidWeight,
    NoConvergence,
    ShapeMismatch,
)
from .geometry import PositionedShape, RigidMotion, apply_rigid_motion, center_of_mass, rotation_matrix

__all__ = [
    "DissipationParams",
    "StepSolution",
    "Trajectory",
    "local_tensor",
    "step_energy",
    "total_energy",
    "geometric_momentum",
    "position_step",
    "integrate_motion_trajectory",
    "read_trajectory_csv",
    "write_trajectory_csv",
    "write_step_energies_csv",
    "read_step_energies_csv",
]

RESIDUAL_RTOL = 1e-10
_POLISH_FACTOR = 1e-4
_MAX_HALVINGS = 40


@dataclass(frozen=True)
class DissipationParams:
    """Per-vertex weights and the tangential/normal anisotropy ratio."""

    weights: np.ndarray
    epsilon: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        if len(w) == 0 or not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise InvalidWeight("weights must be a nonempty finite strictly positive vector")
        if not 0.0 < self.epsilon <= 1.0:
            raise InvalidAnisotropy(f"epsilon must lie in (0, 1], got {self.epsilon}")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, total_mass: float, num_vertices: int, epsilon: float) -> "DissipationParams":
        if total_mass <= 0:
            raise InvalidWeight(f"total mass must be positive, got {total_mass}")
        return cls(np.full(num_vertices, total_mass / num_vertices), epsilon)


@dataclass(frozen=True)
class StepSolution:
    """Result of positioning one shape: the motion, the moved shape, and solver info."""

    motion: RigidMotion
    positioned: PositionedShape
    residual: np.ndarray
    iterations: int


@dataclass(frozen=True)
class Trajectory:
    """Positioned shapes over time plus the energy dissipated by each step."""

    shapes: list[PositionedShape]
    step_energies: np.ndarray
    params: DissipationParams

    def com_path(self, weights=None) -> np.ndarray:
        """(T+1, 2) weighted center-of-mass positions; defaults to the dissipation weights."""
        w = self.params.weights if weights is None else weights
        return center_of_mass(np.stack([s.vertices for s in self.shapes]), w)

    @property
    def net_displacement(self) -> float:
        path = self.com_path()
        return float(np.linalg.norm(path[-1] - path[0]))


def local_tensor(tangent, w: float, epsilon: float) -> np.ndarray:
    """Symmetric positive definite 2x2 dissipation tensor for one vertex."""
    if w <= 0:
        raise InvalidWeight(f"weight must be positive, got {w}")
    if not 0.0 < epsilon <= 1.0:
        raise InvalidAnisotropy(f"epsilon must lie in (0, 1], got {epsilon}")
    t = np.asarray(tangent, dtype=float)
    return w * (np.eye(2) + (epsilon - 1.0) * np.outer(t, t))


def _check_pair(prev: PositionedShape, nxt: PositionedShape, params: DissipationParams):
    if prev.num_vertices != nxt.num_vertices:
        raise ShapeMismatch(
            f"shapes have {prev.num_vertices} and {nxt.num_vertices} vertices"
        )
    if len(params.weights) != prev.num_vertices:
        raise ShapeMismatch(
            f"{len(params.weights)} weights for {prev.num_vertices} vertices"
        )


def _apply_tensors(weights, epsilon, tangents, vectors):
    """Rows (D_k v_k) for the dissipation tensors defined by `tangents`."""
    along = np.sum(tangents * vectors, axis=1, keepdims=True)
    return weights[:, None] * (vectors + (epsilon - 1.0) * along * tangents)


def step_energy(prev: PositionedShape, nxt: PositionedShape, params: DissipationParams) -> float:
    """Energy dissipated by moving the vertices of `prev` to those of `nxt`."""
    _check_pair(prev, nxt, params)
    delta = nxt.vertices - prev.vertices
    avg = 0.5 * (
        _apply_tensors(params.weights, params.epsilon, prev.tangents, delta)
        + _apply_tensors(params.weights, params.epsilon, nxt.tangents, delta)
    )
    return 0.5 * float(np.sum(avg * delta))


def total_energy(traj: Trajectory) -> float:
    """Total dissipation accumulated along a trajectory."""
    return float(np.sum(traj.step_energies))


def _cross(a, b):
    """Planar cross product a_x b_y - a_y b_x over the last axis."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _momentum(weights, epsilon, p_prev, t_prev, p_next, t_next):
    """Momentum 3-vector (rotational, x, y), with the -1/2 prefactor."""
    delta = p_next - p_prev
    d_prev = _apply_tensors(weights, epsilon, t_prev, delta)
    d_next = _apply_tensors(weights, epsilon, t_next, delta)
    mu = np.empty(3)
    mu[0] = -0.5 * np.sum(_cross(p_next, d_prev) + _cross(p_prev, d_next))
    mu[1:] = -0.25 * np.sum(d_prev + d_next, axis=0)
    return mu


def geometric_momentum(prev: PositionedShape, nxt: PositionedShape, params: DissipationParams) -> np.ndarray:
    """3-vector (rotational, x, y) of the step momentum."""
    _check_pair(prev, nxt, params)
    return _momentum(
        params.weights, params.epsilon, prev.vertices, prev.tangents, nxt.vertices, nxt.tangents
    )


def _alignment_seed(prev: PositionedShape, nxt: PositionedShape, weights) -> np.ndarray:
    """Weighted planar least-squares registration of `nxt` onto `prev`.

    Used as the default Newton seed: it is equivariant under rigid motions of
    `prev`, which keeps the solver in the basin of the physical root no matter
    where the previous shape sits in the world.
    """
    w = weights / weights.sum()
    p_bar = w @ prev.vertices
    q_bar = w @ nxt.vertices
    pc = prev.vertices - p_bar
    qc = nxt.vertices - q_bar
    sin_sum = float(np.sum(weights * (qc[:, 0] * pc[:, 1] - qc[:, 1] * pc[:, 0])))
    cos_sum = float(np.sum(weights * (qc[:, 0] * pc[:, 0] + qc[:, 1] * pc[:, 1])))
    angle = 0.0 if sin_sum == 0.0 and cos_sum == 0.0 else float(np.arctan2(sin_sum, cos_sum))
    b = p_bar - rotation_matrix(angle) @ q_bar
    return np.array([angle, b[0], b[1]])


# (x, y) -> (-y, x) is the counter-clockwise quarter turn, written as a reversal and a sign flip
_QUARTER_TURN = np.array([-1.0, 1.0])


class _StepProblem:
    """Momentum residual and its Jacobian as functions of (angle, bx, by).

    `residual` moves the next shape and evaluates `_momentum`, the reference
    the one-pass kernel `residual_and_jacobian` is checked against.
    """

    def __init__(self, prev: PositionedShape, nxt: PositionedShape, params: DissipationParams):
        self.nxt = nxt
        self.w = params.weights
        self.eps = params.epsilon
        n = prev.num_vertices
        self.p = prev.vertices
        self.s = prev.tangents
        # next-shape vertices and tangents stacked, so one product rotates both
        self.q_u_hat = np.concatenate([nxt.vertices, nxt.tangents])
        self.wk = self.w * (self.eps - 1.0)
        # rows: delta, then d(delta) along angle, bx, by; the bx and by rows are
        # the unit translations and, like D_prev applied to them, independent of x
        self.rows = np.zeros((4, n, 2))
        self.rows[2:] = np.eye(2)[:, None, :]
        self.dp_rows = np.zeros((4, n, 2))
        self.dp_rows[2:] = (
            self.w[:, None] * self.rows[2:] + (self.wk * self.s.T)[:, :, None] * self.s
        )

    def residual(self, x):
        moved = apply_rigid_motion(RigidMotion(x[0], x[1:]), self.nxt)
        return _momentum(self.w, self.eps, self.p, self.s, moved.vertices, moved.tangents)

    def residual_and_jacobian(self, x):
        w, wk, p, s = self.w[:, None], self.wk, self.p, self.s
        n = len(p)
        c, sn = math.cos(x[0]), math.sin(x[0])
        v_u = self.q_u_hat @ np.array([[c, sn], [-sn, c]])
        v, u = v_u[:n], v_u[n:]
        q = v + x[1:]

        d = self.rows.copy()
        d[0] = q - p
        d[1] = v[:, ::-1] * _QUARTER_TURN
        # D_prev and D_next applied to every row; D_next also turns with the angle
        dp = self.dp_rows.copy()
        dp[:2] = w * d[:2] + (wk * (s * d[:2]).sum(axis=2))[..., None] * s
        u_d = (u * d).sum(axis=2)
        e = w * d + (wk * u_d)[..., None] * u
        du = u[:, ::-1] * _QUARTER_TURN
        e[1] += wk[:, None] * ((du * d[0]).sum(axis=1)[:, None] * u + u_d[0][:, None] * du)

        # row 0 is the momentum (angle, x, y), rows 1-3 its derivatives
        rot = _cross(q, dp) + _cross(p, e)
        rot[1:] += _cross(d[1:], dp[0])
        m = np.empty((4, 3))
        m[:, 0] = -0.5 * rot.sum(axis=1)
        m[:, 1:] = -0.25 * (dp + e).sum(axis=1)
        return m[0], m[1:].T


def position_step(
    prev: PositionedShape,
    next_shape: PositionedShape,
    params: DissipationParams,
    guess: RigidMotion | None = None,
    tol: float = RESIDUAL_RTOL,
    max_iterations: int = 100,
) -> StepSolution:
    """Rigidly place `next_shape` so the step momentum from `prev` vanishes.

    The residual is driven below tol * (sum of weights) * body length; once
    there, extra Newton steps polish it toward machine precision while they
    keep paying off.  Without an explicit guess the iteration starts from the
    weighted rigid registration of `next_shape` onto `prev`.
    """
    _check_pair(prev, next_shape, params)
    problem = _StepProblem(prev, next_shape, params)
    scale = float(params.weights.sum()) * max(next_shape.polyline_length, 1e-300)
    accept_tol = tol * scale
    polish_tol = _POLISH_FACTOR * accept_tol

    if guess is None:
        x = _alignment_seed(prev, next_shape, params.weights)
    else:
        x = np.array([guess.angle, guess.translation[0], guess.translation[1]])

    x, residual, norm, iterations, reason = _damped_newton(
        problem, x, accept_tol, polish_tol, max_iterations
    )
    if reason not in ("budget", "nonfinite") and norm > accept_tol:
        # Newton stalled in a local minimum of the residual norm (it happens
        # for violent shape changes, e.g. tightly coiled gaits).  A trust
        # region search escapes those reliably; seeds are tried in a fixed
        # order so the solve stays deterministic even when the momentum
        # equation has several roots.
        rescue_seeds = [x, _alignment_seed(prev, next_shape, params.weights), np.zeros(3)]
        for x0 in rescue_seeds:
            found = scipy_root(
                problem.residual_and_jacobian,
                x0,
                jac=True,
                method="hybr",
                options={"xtol": 1e-12, "maxfev": 500},
            )
            iterations += int(found.nfev)
            rx, rres, rnorm, extra, _ = _damped_newton(
                problem, np.asarray(found.x, dtype=float), accept_tol, polish_tol, 10
            )
            iterations += extra
            if rnorm < norm:
                x, residual, norm = rx, rres, rnorm
            if norm <= accept_tol:
                break
    if not norm <= accept_tol:  # true for a NaN norm as well
        if reason == "degenerate":
            raise DegenerateJacobian(
                f"singular momentum Jacobian (|residual| = {norm:.3e}) "
                f"after {iterations} iterations"
            )
        raise NoConvergence(
            f"|momentum| = {norm:.3e} above tolerance {accept_tol:.3e} "
            f"after {iterations} iterations",
            residual=residual,
            iterations=iterations,
        )
    motion = RigidMotion(x[0], x[1:])
    return StepSolution(motion, apply_rigid_motion(motion, next_shape), residual, iterations)


def _damped_newton(problem, x, accept_tol, polish_tol, max_iterations):
    """Backtracking Newton on the momentum residual.

    Returns (x, residual, |residual|, iterations, reason) with reason one of
    "converged" (below the polish target), "budget" (max_iterations spent),
    "stalled" (no decreasing step found), "degenerate" (unusable step),
    "nonfinite" (the starting residual is NaN or infinite).  Steps only ever
    accept a smaller norm, so a finite start stays finite.
    """
    residual, jac = problem.residual_and_jacobian(x)
    norm = float(np.linalg.norm(residual))
    iterations = 0
    if not np.isfinite(norm):
        return x, residual, norm, iterations, "nonfinite"
    reason = "converged"
    while norm > polish_tol:
        if iterations >= max_iterations:
            reason = "budget"
            break
        iterations += 1
        try:
            step = np.linalg.solve(jac, -residual)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -residual, rcond=None)[0]
        if not np.all(np.isfinite(step)) or not np.any(step):
            reason = "degenerate"
            break
        # backtracking: halve the step until the residual actually decreases
        factor = 1.0
        for _ in range(_MAX_HALVINGS):
            candidate = x + factor * step
            cand_res, cand_jac = problem.residual_and_jacobian(candidate)
            cand_norm = float(np.linalg.norm(cand_res))
            if cand_norm < norm:
                x, residual, jac, norm = candidate, cand_res, cand_jac, cand_norm
                break
            factor *= 0.5
        else:
            reason = "stalled"
            break
    return x, residual, norm, iterations, reason


def integrate_motion_trajectory(shapes: list[PositionedShape], params: DissipationParams) -> Trajectory:
    """Position a whole shape sequence by solving the momentum root at every step.

    The first shape is kept verbatim; each later solve is seeded with the
    previous step's motion.
    """
    if not shapes:
        raise ShapeMismatch("need at least one shape to integrate")
    if len(params.weights) != shapes[0].num_vertices:
        raise ShapeMismatch(
            f"{len(params.weights)} weights for {shapes[0].num_vertices} vertices"
        )
    positioned = [shapes[0]]
    energies = np.zeros(len(shapes) - 1)
    guess = None
    for t in range(1, len(shapes)):
        try:
            solution = position_step(positioned[-1], shapes[t], params, guess=guess)
        except (NoConvergence, DegenerateJacobian) as exc:
            raise type(exc)(f"timestep {t}: {exc}") from exc
        positioned.append(solution.positioned)
        energies[t - 1] = step_energy(positioned[-2], positioned[-1], params)
        guess = solution.motion
    return Trajectory(positioned, energies, params)


# -- file formats -------------------------------------------------------------


def write_trajectory_csv(path, shapes: list[PositionedShape] | Trajectory):
    """Rows (t, k, x, y), one per vertex per timestep, meters."""
    if isinstance(shapes, Trajectory):
        shapes = shapes.shapes
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "k", "x", "y"])
        for t, shape in enumerate(shapes):
            for k, vertex in enumerate(shape.vertices):
                writer.writerow([t, k, repr(float(vertex[0])), repr(float(vertex[1]))])


def read_trajectory_csv(path) -> list[PositionedShape]:
    """Rebuild positioned shapes (tangents recomputed from the vertices)."""
    frames: dict[int, dict[int, tuple[float, float]]] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [cell.strip() for cell in header[:4]] != ["t", "k", "x", "y"]:
            raise FileFormatError(f"{path}: expected header 't,k,x,y'")
        for row in reader:
            if not row:
                continue
            try:
                t, k = int(row[0]), int(row[1])
                x, y = float(row[2]), float(row[3])
            except (ValueError, IndexError) as exc:
                raise FileFormatError(f"{path}: bad trajectory row {row!r}") from exc
            frames.setdefault(t, {})[k] = (x, y)
    shapes = []
    for t in sorted(frames):
        frame = frames[t]
        if sorted(frame) != list(range(len(frame))):
            raise FileFormatError(f"{path}: frame {t} skips a vertex index")
        if shapes and len(frame) != shapes[0].num_vertices:
            raise FileFormatError(
                f"{path}: frame {t} has {len(frame)} vertices, not {shapes[0].num_vertices}"
            )
        shapes.append(PositionedShape.from_vertices([frame[k] for k in range(len(frame))]))
    return shapes


def write_step_energies_csv(path, energies):
    """Rows (t, energy) where t indexes the arriving shape (1-based)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "energy"])
        for t, value in enumerate(np.asarray(energies, dtype=float), start=1):
            writer.writerow([t, repr(float(value))])


def read_step_energies_csv(path) -> np.ndarray:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["t", "energy"]:
            raise FileFormatError(f"{path}: expected header 't,energy'")
        energies = []
        for row in reader:
            if not row:
                continue
            try:
                t, value = int(row[0]), float(row[1])
            except (ValueError, IndexError) as exc:
                raise FileFormatError(f"{path}: bad energy row {row!r}") from exc
            if t != len(energies) + 1:
                raise FileFormatError(f"{path}: expected timestep {len(energies) + 1}, got {t}")
            energies.append(value)
    return np.array(energies)
