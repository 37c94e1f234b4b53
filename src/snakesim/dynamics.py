"""Dissipation metric, geometric momentum, and trajectory integration.

Each vertex dissipates energy through an anisotropic local tensor
D_k = w_k (I + (eps - 1) T_k T_k^T), cheap to move along the tangent and
expensive across it.  A body at rest moves so that the geometric momentum of
every step vanishes.  Its translational rows are linear in the translation
for a fixed rotation angle, with an invertible 2x2 matrix, so positioning the
next shape reduces to one periodic scalar root in the angle: Newton with an
analytic derivative, and a scan for a sign change plus a bracketed refinement
for the rare steps where Newton stalls.

The step path reads the stored (N, 2) vertex and tangent arrays as x + iy
(`geometry.complex_view`): a x b is Im(conj(a) b), a rotation is a product
with e^{i theta}, and the momentum is the 3-vector (rotational, x, y).  The
reference residual that accepts every step and the step's energy come from
one pass, `_momentum_and_energy`.  A non-finite residual never counts as converged.
It and `_AngleEquation` also take stacks of step pairs, whose roots are independent under rigid motions.
The lockstep core, `_integrate_stacks`, takes one layout: (S, T+1, N, 2) frame stacks of S sequences and B
ratios, with S = 1 or B = 1, all of whose steps it solves in one vector Newton.  What no ratio enters
(`_StepPairs`, the tangent sums among it) is prepared once and may be kept.  B ratios enter as a (B, 1) column
that scales those sums by (eps - 1) / 2, and no pair is copied per ratio.  Calibration
(`integrate_shape_sequence`, `resimulate`, and `fit_anisotropy`'s whole ratio grid in one call) and the gait
search's objective (`optimize.evaluate_gaits`, on the frame stacks of a list of gait cycles directly, the search's
starting simplex in one call) solve this way, while `simulate_gait` still makes one `position_step` per step,
because the benchmark's `sweep` check counts those calls.
A `Trajectory` holds its frames as (T+1, N, 2) vertex and tangent stacks, checked
once, and derives `PositionedShape` objects only for callers that ask for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .errors import FileFormatError, InvalidAnisotropy, NoConvergence, NonPositiveWeight, ShapeMismatch
from .errors import _check_count, _check_positive, _check_real
from .geometry import PositionedShape, RigidMotion, _check_frames, _shape_views, _turn, _weights
from .geometry import center_of_mass, complex_view, shapes_from_vertices
from .tables import read_csv, write_csv

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
    "integrate_shape_sequence",
    "read_trajectory_csv",
    "write_trajectory_csv",
    "write_step_energies_csv",
    "read_step_energies_csv",
]

RESIDUAL_RTOL = 1e-10
_POLISH_FACTOR = 1e-4
_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class DissipationParams:
    """Per-vertex weights and the tangential/normal anisotropy ratio."""

    weights: np.ndarray
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "weights", _weights(self.weights))
        _check_real("epsilon", self.epsilon, InvalidAnisotropy)
        if not 0.0 < self.epsilon <= 1.0:
            raise InvalidAnisotropy(f"epsilon must lie in (0, 1], got {self.epsilon}")
        # a numpy scalar would carry into the one-pair step equation and make each evaluation numpy arithmetic
        object.__setattr__(self, "epsilon", float(self.epsilon))

    @classmethod
    def uniform(cls, total_mass: float, num_vertices: int, epsilon: float) -> "DissipationParams":
        """`num_vertices` equal weights that sum to `total_mass`."""
        _check_count("num_vertices", num_vertices, 1)
        _check_positive("total mass", total_mass, NonPositiveWeight)  # reported as the mass, not as the weights made from it
        return cls(np.full(num_vertices, total_mass / num_vertices), epsilon)


@dataclass(frozen=True)
class StepSolution:
    """Result of positioning one shape: the motion, the moved shape, its energy, and solver info."""

    motion: RigidMotion
    positioned: PositionedShape
    residual: np.ndarray
    iterations: int
    energy: float


@dataclass(frozen=True)
class Trajectory:
    """Frames 0..T as (T+1, N, 2) vertex and unit-tangent stacks, checked once, plus each step's energy."""

    vertices: np.ndarray
    tangents: np.ndarray
    step_energies: np.ndarray
    params: DissipationParams

    def __post_init__(self):
        verts, tangs = _check_frames(self.vertices, self.tangents, stacked=True)
        energies = np.asarray(self.step_energies, dtype=float)
        if verts.shape[1] != len(self.params.weights) or energies.shape != (len(verts) - 1,):
            raise ShapeMismatch(f"frames {verts.shape}, step energies {energies.shape}, {len(self.params.weights)} weights")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "tangents", tangs)
        object.__setattr__(self, "step_energies", energies)

    @cached_property
    def shapes(self) -> tuple[PositionedShape, ...]:
        """The frames as `PositionedShape` objects sharing memory with the stacks, built on first use."""
        return tuple(_shape_views(self.vertices, self.tangents))

    def com_path(self, weights=None) -> np.ndarray:
        """(T+1, 2) weighted center-of-mass positions; defaults to the dissipation weights."""
        return center_of_mass(self.vertices, self.params.weights if weights is None else weights)

    @property
    def net_displacement(self) -> float:
        path = self.com_path()
        return float(np.linalg.norm(path[-1] - path[0]))


def local_tensor(tangent, w: float, epsilon: float) -> np.ndarray:
    """Symmetric positive definite 2x2 dissipation tensor for one vertex."""
    DissipationParams([w], epsilon)  # checks the weight and the ratio
    t = np.asarray(tangent, dtype=float)
    return w * (np.eye(2) + (epsilon - 1.0) * np.outer(t, t))


def _check_pair(prev: PositionedShape, nxt: PositionedShape, params: DissipationParams):
    if not prev.num_vertices == nxt.num_vertices == len(params.weights):
        raise ShapeMismatch(f"shapes of {prev.num_vertices} and {nxt.num_vertices} vertices, {len(params.weights)} weights")


def step_energy(prev: PositionedShape, nxt: PositionedShape, params: DissipationParams) -> float:
    """Energy dissipated by moving the vertices of `prev` to those of `nxt`."""
    _check_pair(prev, nxt, params)
    return float(_momentum_and_energy(prev, nxt, params)[1])


def total_energy(traj: Trajectory) -> float:
    """Total dissipation accumulated along a trajectory."""
    return float(np.sum(traj.step_energies))


def _momentum_and_energy(prev, nxt, params: DissipationParams):
    """Momentum 3-vector (rotational, x, y), with the -1/2 prefactor, and the step energy.

    On the vertices p, q as x + iy, d = q - p and D d = w (d + (eps - 1) (t . d) t) for either
    shape's tangents t, unit or not: rot = -1/2 Im(vdot(q, D_prev d) + vdot(p, D_next d)),
    xy = -1/4 sum((D_prev + D_next) d) and energy = 1/4 Re vdot((D_prev + D_next) d, d).
    Sums run over the last axis, so (..., N, 2) stacks of step pairs give a (3, ...) momentum and (...) energies;
    their ratio may be one float or an array that broadcasts against them, such as a (B, 1, 1) column of B ratios.
    """
    w, eps = params.weights, params.epsilon
    p, q = complex_view(prev.vertices), complex_view(nxt.vertices)
    d = q - p
    s, u = complex_view(prev.tangents), complex_view(nxt.tangents)
    wd, a = w * d, (eps - 1.0) * w
    d_prev = wd + a * (s.conjugate() * d).real * s
    d_next = wd + a * (u.conjugate() * d).real * u
    d_sum = d_prev + d_next
    xy = -0.25 * d_sum.sum(axis=-1)
    rot = -0.5 * (q.conjugate() * d_prev + p.conjugate() * d_next).sum(axis=-1).imag
    return np.array([rot, xy.real, xy.imag]), 0.25 * (d_sum.conjugate() * d).sum(axis=-1).real


def geometric_momentum(prev: PositionedShape, nxt: PositionedShape, params: DissipationParams) -> np.ndarray:
    """3-vector (rotational, x, y) of the step momentum."""
    _check_pair(prev, nxt, params)
    return _momentum_and_energy(prev, nxt, params)[0]


class _StepPairs:
    """Step pairs under per-vertex weights, with the parts of their angle equations that no ratio enters.

    `prev` and `nxt` are one pair of (N, 2) shapes, or (T, N, 2) stacks holding the T pairs (prev[t], nxt[t]).
    Made once, they serve `_AngleEquation` at any ratio, or at a column of ratios: the centroids, the tangent
    sums without their factor (eps - 1) / 2, the sum behind P1, each step's acceptance bound and the
    registration angle.  The sums of T pairs are (18, 1, T), so that a (B, 1) column of ratios scales them into
    (18, B, T) values without copying a pair.
    """

    def __init__(self, prev, nxt, weights: np.ndarray):
        self.prev, self.nxt, self.weights = prev, nxt, weights
        self.total = total = float(weights.sum())
        p, v = complex_view(prev.vertices), complex_view(nxt.vertices)
        self.bars = np.array([p, v]) @ weights / total
        # the pairwise products of the columns 1, conj(V), conj(P), weighted by w s^2 (prev tangents) and w u^2
        # (next tangents): every tangent sum but its factor (eps - 1) / 2, row by row, (18,) or (18, 1, T) one column a pair
        self.cols = cols = np.empty(p.shape + (3,), dtype=complex)
        cols[..., 0] = 1.0
        np.conjugate(v - self.bars[1, ..., None], out=cols[..., 1])
        np.conjugate(p - self.bars[0, ..., None], out=cols[..., 2])
        t2 = np.array([complex_view(prev.tangents), complex_view(nxt.tangents)])
        t2 *= t2
        sums = (t2[..., None, :] * weights * cols.swapaxes(-1, -2)) @ cols
        self.sums = sums.reshape(18) if p.ndim == 1 else sums.transpose(0, 2, 3, 1).reshape(18, 1, -1)
        self.p1_sum = (cols[..., 2].conjugate() * weights * cols[..., 1]).sum(axis=-1)  # sum(w conj(V) P)
        self.accept_tol = _acceptance_bound(nxt.vertices, total)

    def registration_angle(self, pair: int = 0) -> float:
        """The angle of the weighted rigid registration of one pair's arriving shape onto `prev`; 0 where its sums vanish.

        That angle (`geometry.rigid_registration`) is arg sum(w conj(V) P), so the phase of P1.  It is summed
        here from real products, as the registration sums it: a complex product may be fused, and P1 of two
        equal shapes then has a round-off imaginary part, which would turn a motionless step.  `pair` indexes
        stacked pairs.
        """
        first = self.cols if self.cols.ndim == 2 else self.cols[pair]
        v, p = first[:, 1], first[:, 2]  # conj(V) and conj(P)
        cross = float(self.weights @ (v.imag * p.real - v.real * p.imag))
        dot = float(self.weights @ (v.real * p.real + v.imag * p.imag))
        return math.atan2(cross, dot) if cross or dot else 0.0


class _AngleEquation:
    """The step momentum as one equation g(angle) = 0.

    Complex notation: the point (x, y) is x + iy, the cross product a x b is
    Im(conj(a) b), and D_k d = beta_k d + gamma_k t_k^2 conj(d) with
    beta = w (1 + eps) / 2 and gamma = w (eps - 1) / 2.  Points are taken
    about the weighted centroids of `prev` (P) and of `nxt` in its own frame
    (V), so the beta-weighted sums of P and V vanish; at the angle theta,
    r = e^{i theta}, the moved vertices are r V + b and the tangents r u.
    The translational rows 2 B b + H conj(b) + K = 0 are linear in b, and
    |H| <= sum(w) (1 - eps) < 2 B = sum(w) (1 + eps), so b(theta) is unique.
    With b = b(theta) they vanish and the rotational row no longer depends
    on the origin: g(theta) is the momentum's rotational component.  Ten tangent
    sums from the `_StepPairs`, scaled here by (eps - 1) / 2, with P1 and 2 B,
    make each evaluation a few dozen scalar operations, on Python numbers for
    one pair and on (T,) arrays for T stacked pairs at one float ratio.  For
    stacked pairs the ratio may also be a (B, 1) column of B ratios, which
    scales the sums and P1 into (B, T) values without copying a pair; every
    value is then read flat, (B T,) ratio-major, at (B T,) angles.  Every element
    goes through the operations a float ratio would take it through, so a pair's
    values are bitwise the same either way.
    """

    def __init__(self, pairs: _StepPairs, epsilon):
        sums = 0.5 * (epsilon - 1.0) * pairs.sums  # (eps - 1) / 2: one float, or a (B, 1) column of B ratios
        p1 = 0.5 * (1.0 + epsilon) * pairs.p1_sum
        if sums.ndim == 1:
            sums, (self.p_bar, self.v_bar), self.p1 = sums.tolist(), pairs.bars.tolist(), complex(p1)
        else:  # the scaled (18, 1, T) sums, read flat: at a (B, 1) column of B ratios every value is (B, T), ratio-major
            sums, (self.p_bar, self.v_bar), self.p1 = sums.reshape(18, -1), pairs.bars, p1.reshape(-1)
            if p1.ndim > 1:
                (self.p_bar, self.v_bar), epsilon = np.concatenate([pairs.bars] * len(p1), axis=1), np.repeat(epsilon, p1.shape[1])
        (self.s2, self.s2v, self.s2p, _, self.s2vv, self.s2vp, _, _, _,
         self.u2, self.u2v, self.u2p, _, _, _, _, self.u2pv, self.u2pp) = sums
        self.two_b = pairs.total * (1.0 + epsilon)

    def __call__(self, theta):
        """g(theta), g'(theta) taken along b(theta), and the world translation, for a float or a (T,) array."""
        r = np.exp(1j * theta) if isinstance(theta, np.ndarray) else complex(math.cos(theta), math.sin(theta))
        rc, r2, two_b = r.conjugate(), r * r, self.two_b
        h = self.s2 + r2 * self.u2
        det = two_b * two_b - (h.real * h.real + h.imag * h.imag)
        k = rc * self.s2v - self.s2p + r * self.u2v - r2 * self.u2p
        bc = ((h * k.conjugate() - two_b * k) / det).conjugate()
        # rotational row g = Im(conj(r) P1) - Im(x) / 2, P1 = sum(beta conj(V) P), x its gamma terms
        x = (
            rc * (rc * self.s2vv + 2.0 * bc * self.s2v - self.s2vp)
            + bc * (bc * self.s2 - self.s2p)
            + r * self.u2pv
            + r2 * (bc * self.u2p - self.u2pp)
        )
        # b'(theta) solves the same 2x2 system with right-hand side -(H' conj(b) + K')
        c = -2j * r2 * self.u2 * bc - 1j * (r * self.u2v - rc * self.s2v - 2.0 * r2 * self.u2p)
        dbc = ((two_b * c - h * c.conjugate()) / det).conjugate()
        dx = (
            rc * (-2j * rc * self.s2vv + 2.0 * (dbc - 1j * bc) * self.s2v + 1j * self.s2vp)
            + dbc * (2.0 * bc * self.s2 - self.s2p)
            + 1j * r * self.u2pv
            + r2 * ((2j * bc + dbc) * self.u2p - 2j * self.u2pp)
        )
        rp1 = rc * self.p1
        return rp1.imag - 0.5 * x.imag, -rp1.real - 0.5 * dx.imag, bc.conjugate() + self.p_bar - r * self.v_bar


# Newton is trusted for steps up to an eighth of a turn; the scan takes over beyond
_MAX_NEWTON_STEP = math.pi / 8
_SCAN_INTERVALS = 32


def _solve_angle(equation: _AngleEquation, seed: float, accept_tol, polish_tol, max_iterations: int):
    """Root of g near `seed`; returns (angle, iterations, the world translation there).

    Newton runs from `seed` while each step is at most `_MAX_NEWTON_STEP` and
    shrinks |g|, down to `polish_tol`.  If it stops above `accept_tol`, g is
    sampled alternately on either side of `seed` in steps of one of
    `_SCAN_INTERVALS` equal intervals of the full turn.  The first interval
    where g changes sign, the one nearest `seed` (the positive side first),
    is refined by Newton kept inside the shrinking bracket; the midpoint
    replaces a step that leaves it or follows one that did not halve |g|.
    Every evaluation of g after the one at `seed` counts against
    `max_iterations`; an angle that the limit left unevaluated is evaluated
    once more, uncounted, for its translation.
    """
    theta, iterations = seed, 0
    g, dg, b = equation(seed)
    g_seed = g
    # the loop in `_integrate_stacks` copies these Newton rules for all steps at once and must match them
    while not abs(g) <= polish_tol and iterations < max_iterations:
        step = -g / dg if dg else math.inf
        if not abs(step) <= _MAX_NEWTON_STEP:
            break
        iterations += 1
        g_new, dg_new, b_new = equation(theta + step)
        if not abs(g_new) < abs(g):
            break
        theta, g, dg, b = theta + step, g_new, dg_new, b_new
    if abs(g) <= accept_tol:
        return theta, iterations, b

    width = 2.0 * math.pi / _SCAN_INTERVALS
    ends = {1.0: (seed, g_seed), -1.0: (seed, g_seed)}
    for j in range(2, _SCAN_INTERVALS + 2):
        if iterations >= max_iterations:
            return theta, iterations, b
        side = 1.0 if j % 2 == 0 else -1.0
        near, g_near = ends[side]
        far = seed + side * (j // 2) * width
        g_far = equation(far)[0]
        iterations += 1
        if g_near * g_far <= 0.0:
            break
        ends[side] = (far, g_far)
    else:
        return theta, iterations, b

    (lo, g_lo), (hi, _) = sorted([(near, g_near), (far, g_far)])
    last = math.inf
    theta, b = (far if g_far == 0.0 else 0.5 * (lo + hi)), None
    while iterations < max_iterations:
        g, dg, b = equation(theta)
        iterations += 1
        if abs(g) <= polish_tol:
            break
        if (g < 0.0) == (g_lo < 0.0):
            lo = theta
        else:
            hi = theta
        nxt = theta - g / dg if dg else lo
        if not lo < nxt < hi or abs(g) > 0.5 * abs(last):
            nxt = 0.5 * (lo + hi)
        if nxt in (lo, hi):
            break
        theta, last, b = nxt, g, None
    return theta, iterations, equation(theta)[2] if b is None else b


def _acceptance_bound(vertices, total: float):
    """RESIDUAL_RTOL * (sum of weights) * polyline length of the arriving (..., N, 2) vertices: a step's largest accepted |momentum|."""
    z = complex_view(vertices)
    return RESIDUAL_RTOL * total * np.maximum(np.abs(z[..., 1:] - z[..., :-1]).sum(axis=-1), 1e-300)


def position_step(
    prev: PositionedShape,
    next_shape: PositionedShape,
    params: DissipationParams,
    guess: RigidMotion | None = None,
) -> StepSolution:
    """Rigidly place `next_shape` so the step momentum from `prev` vanishes.

    For a fixed rotation angle the translation follows in closed form (see
    `_AngleEquation`), so the step is a scalar root in the angle.  The solve
    starts from the angle of `guess`; its translation is not used.  Without
    a guess it starts from the angle of the weighted rigid registration of
    `next_shape` onto `prev`, which is equivariant under rigid motions of
    `prev` and lies in the basin of the physical root.  The root taken is
    the one Newton reaches from that angle, or else the one in the
    sign-change interval of g nearest it (`_solve_angle`), within the
    `_MAX_ITERATIONS` budget of `_integrate_stacks`.  The placed shape
    is accepted when its full momentum 3-vector is at most
    `RESIDUAL_RTOL` * (sum of weights) * body length.
    """
    _check_pair(prev, next_shape, params)
    pairs = _StepPairs(prev, next_shape, params.weights)
    equation, accept_tol = _AngleEquation(pairs, params.epsilon), float(pairs.accept_tol)
    if guess is None:
        seed = pairs.registration_angle()
    else:
        seed = float(guess.angle)
    if not math.isfinite(seed):
        raise NoConvergence(f"seed angle {seed} is not finite", residual=np.full(3, np.nan), iterations=0)

    theta, iterations, b = _solve_angle(equation, seed, accept_tol, _POLISH_FACTOR * accept_tol, _MAX_ITERATIONS)
    motion = RigidMotion(theta, np.array([b.real, b.imag]))
    positioned = _shape_views(*motion.move(next_shape.vertices[None], next_shape.tangents[None]))[0]  # unchecked: a NaN fails below
    residual, energy = _momentum_and_energy(prev, positioned, params)
    norm = math.hypot(*residual)
    if not norm <= accept_tol:  # true for a NaN norm as well
        raise NoConvergence(
            f"|momentum| = {norm:.3e} above tolerance {accept_tol:.3e} after {iterations} iterations",
            residual=residual, iterations=iterations,
        )
    return StepSolution(motion, positioned, residual, iterations, float(energy))


def integrate_motion_trajectory(shapes: list[PositionedShape], params: DissipationParams) -> Trajectory:
    """Position a whole shape sequence by solving the momentum root at every step.

    The first shape is kept as it is; each later solve is seeded with the
    previous step's motion.  The placed shapes and the energies of the solves
    fill the trajectory's stacks.
    """
    if not shapes:
        raise ShapeMismatch("need at least one shape to integrate")
    positioned, guess = [shapes[0]], None
    energies = np.empty(len(shapes) - 1)
    for t in range(1, len(shapes)):
        try:
            solution = position_step(positioned[-1], shapes[t], params, guess=guess)
        except NoConvergence as exc:
            exc.args = (f"timestep {t}: {exc}",)  # keeps residual and iterations
            raise
        positioned.append(solution.positioned)
        energies[t - 1], guess = solution.energy, solution.motion
    # stacked after the loop: stacks allocated before it, amid its short-lived arrays, raised peak memory
    vertices = np.array([shape.vertices for shape in positioned])
    tangents = np.array([shape.tangents for shape in positioned])
    return Trajectory(vertices, tangents, energies, params)


def integrate_shape_sequence(shapes: list[PositionedShape], params: DissipationParams) -> Trajectory:
    """Position a whole shape sequence, solving the momentum roots of all its steps at once.

    The metric is invariant under rigid motions, so each step's relative motion depends on its two shapes
    alone: Newton on the (T,) angles solves every pair in its own input frame, seeded and stopped per step as
    in `integrate_motion_trajectory`, and a step that misses its bound goes to `position_step` itself.
    """
    if not shapes or any(shape.num_vertices != len(params.weights) for shape in shapes):
        raise ShapeMismatch(f"need one or more shapes of {len(params.weights)} vertices, one per weight")
    verts = np.array([shape.vertices for shape in shapes])
    tangs = np.array([shape.tangents for shape in shapes])
    return _integrate_stacks(verts[None], tangs[None], [params])[0]


def _stack_pairs(verts: np.ndarray, tangs: np.ndarray, weights: np.ndarray) -> _StepPairs:
    """The S T steps, frame t to frame t + 1, of (S, T+1, N, 2) vertex and tangent stacks as one `_StepPairs`,
    sequence by sequence, with each sequence's step-1 seed: the registration angle of its first pair."""
    shape, steps = (-1,) + verts.shape[2:], verts.shape[1] - 1
    prev = SimpleNamespace(vertices=verts[:, :-1].reshape(shape), tangents=tangs[:, :-1].reshape(shape))
    nxt = SimpleNamespace(vertices=verts[:, 1:].reshape(shape), tangents=tangs[:, 1:].reshape(shape))
    pairs = _StepPairs(prev, nxt, weights)
    pairs.seeds = [pairs.registration_angle(t) for t in range(0, len(pairs.accept_tol), steps or 1)]
    return pairs


def _integrate_stacks(verts: np.ndarray, tangs: np.ndarray, params: list[DissipationParams], pairs: _StepPairs | None = None) -> list[Trajectory]:
    """`integrate_shape_sequence` in blocks: S sequences at one ratio, or one sequence at each of B `params`.

    The stacks passed `_check_frames` and are (S, T+1, N, 2), with S = 1 or B = 1; the B parameter sets share one
    weights vector, N weights.  Block k is sequence k at the one ratio, or the one sequence at ratio k.  All steps
    go to one vector Newton on flat angles: each pair keeps its own active mask and stopping rule, each block's
    first step its own registration seed, and a pair that misses its bound goes to `position_step` with its
    block's shapes and ratio, so each trajectory is bitwise the one a one-block call gives.  `pairs`, the
    `_stack_pairs` of these stacks and weights, may be kept from an earlier call to skip the work no ratio enters.
    The stacks are only read: the max(S, B) trajectories get new arrays.
    """
    count, steps = max(len(verts), len(params)), verts.shape[1] - 1
    blocks = params * (count // len(params))
    frames = np.empty((2, count) + verts.shape[1:])  # each block's vertices and tangents, frame 0 as given
    frames[0, :, 0], frames[1, :, 0] = verts[:, 0], tangs[:, 0]
    if not steps:
        return [Trajectory(v, t, np.empty(0), p) for v, t, p in zip(*frames, blocks)]
    weights = params[0].weights
    pairs = _stack_pairs(verts, tangs, weights) if pairs is None else pairs
    # one float ratio, with the S T pairs placed as (S T, N) points; or B ratios as a (B, 1) column, the T pairs
    # placed as (B, T, N) points and solved ratio-major, each bound repeated per ratio
    if len(params) == 1:
        eps, column, accept_tol = params[0].epsilon, (-1, 1), pairs.accept_tol
    else:
        eps, column, accept_tol = np.array([p.epsilon for p in params])[:, None], (count, -1, 1), np.concatenate([pairs.accept_tol] * count)
    equation, polish_tol = _AngleEquation(pairs, eps), _POLISH_FACTOR * accept_tol
    theta = np.zeros(count * steps)
    theta[::steps] = pairs.seeds * (count // len(verts))
    g, dg, b = equation(theta)
    active = np.ones(len(theta), dtype=bool)
    # per step, the Newton rules of `_solve_angle`, which this loop must match
    for _ in range(_MAX_ITERATIONS):
        step = np.divide(-g, dg, out=np.full_like(g, np.inf), where=dg != 0)
        active &= ~(np.abs(g) <= polish_tol) & (np.abs(step) <= _MAX_NEWTON_STEP)
        if not active.any():
            break
        trial = np.where(active, theta + step, theta)
        g_new, dg_new, b_new = equation(trial)
        active &= np.abs(g_new) < np.abs(g)
        theta, g, dg, b = (np.where(active, new, old) for new, old in ((trial, theta), (g_new, g), (dg_new, dg), (b_new, b)))
    r = np.exp(1j * theta).reshape(column)
    placed = SimpleNamespace(vertices=_turn(r, pairs.nxt.vertices, b.reshape(column)), tangents=_turn(r, pairs.nxt.tangents))
    ratios = SimpleNamespace(weights=weights, epsilon=eps if len(params) == 1 else eps[..., None])
    residual, energies = _momentum_and_energy(pairs.prev, placed, ratios)
    accepted = (np.abs(g) <= accept_tol) & (np.linalg.norm(residual, axis=0).reshape(-1) <= accept_tol)
    for s in np.flatnonzero(~accepted).tolist():
        k, t = divmod(s, steps)  # block k, step t + 1
        pair = _shape_views(verts[k % len(verts), t:t + 2], tangs[k % len(verts), t:t + 2])
        try:
            solution = position_step(*pair, blocks[k], guess=RigidMotion() if t else None)
        except NoConvergence as exc:
            exc.args = (f"timestep {t + 1}: {exc}",)  # keeps residual and iterations
            raise
        theta[s], b[s], energies.flat[s] = solution.motion.angle, complex(*solution.motion.translation), solution.energy
    # per block, frame t turns by e^{i (theta_1 + ... + theta_t)} and shifts by the b_k, k <= t, each turned as frame k - 1
    rotors, shifts = np.exp(1j * np.cumsum(theta.reshape(count, steps), axis=-1)), b.reshape(count, steps)
    shifts[:, 1:] *= rotors[:, :-1]
    rotors, shifts = rotors.reshape(column), np.cumsum(shifts, axis=-1).reshape(column)
    for out, rest in zip(frames, (_turn(rotors, pairs.nxt.vertices, shifts), _turn(rotors, pairs.nxt.tangents))):
        out[:, 1:] = rest.reshape(out[:, 1:].shape)
    return [Trajectory(v, t, e, p) for v, t, e, p in zip(*frames, energies.reshape(count, steps), blocks)]


# -- file formats -------------------------------------------------------------


_TRAJECTORY_HEADER = ("t", "k", "x", "y")
_ENERGIES_HEADER = ("t", "energy")


def write_trajectory_csv(path, shapes: list[PositionedShape] | Trajectory):
    """Rows (t, k, x, y), one per vertex per timestep, meters."""
    frames = shapes.vertices if isinstance(shapes, Trajectory) else [s.vertices for s in shapes]
    # f-strings give the bytes of tables.write_csv (repr floats, no quoting, \r\n ends) in 23 ms per
    # 601-frame file against its 33 ms, which made 12-cycle simulate runs 25 % longer (2-vCPU host);
    # converting frame by frame and skipping the join halves peak memory on a 601-frame stack
    rows = [",".join(_TRAJECTORY_HEADER) + "\r\n"]
    for t, frame in enumerate(frames):
        rows += [f"{t},{k},{x!r},{y!r}\r\n" for k, (x, y) in enumerate(frame.tolist())]
    with open(path, "w", newline="") as handle:
        handle.writelines(rows)


def read_trajectory_csv(path) -> list[PositionedShape]:
    """Rebuild positioned shapes (tangents recomputed from the vertices)."""
    _, rows = read_csv(path, _TRAJECTORY_HEADER, lambda c: (int(c[0]), int(c[1]), float(c[2]), float(c[3])))
    frames: dict[int, dict[int, tuple[float, float]]] = {}
    for t, k, x, y in rows:
        frame = frames.setdefault(t, {})
        if k in frame:
            raise FileFormatError(f"{path}: second row for frame {t}, vertex {k}")
        frame[k] = (x, y)
    if not frames:
        raise FileFormatError(f"{path}: no frames")
    if sorted(frames) != list(range(len(frames))):
        raise FileFormatError(f"{path}: frame indices must run 0, 1, 2, ... without gaps")
    width = len(frames[0])
    for t, frame in frames.items():
        if sorted(frame) != list(range(width)):
            raise FileFormatError(f"{path}: frame {t} does not hold vertices 0 to {width - 1} once each")
    return shapes_from_vertices([[frames[t][k] for k in range(width)] for t in range(len(frames))])


def write_step_energies_csv(path, energies):
    """Rows (t, energy) where t indexes the arriving shape (1-based)."""
    values = np.asarray(energies, dtype=float)
    if values.ndim != 1:
        raise ShapeMismatch(f"expected a vector of step energies, got shape {values.shape}")
    write_csv(path, _ENERGIES_HEADER, enumerate(values.tolist(), start=1), "\r\n")


def read_step_energies_csv(path) -> np.ndarray:
    _, rows = read_csv(path, _ENERGIES_HEADER, lambda c: (int(c[0]), float(c[1])))
    if [t for t, _ in rows] != list(range(1, len(rows) + 1)):
        raise FileFormatError(f"{path}: timesteps must run 1, 2, 3, ... in order")
    return np.array([energy for _, energy in rows])
