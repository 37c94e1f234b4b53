"""Random gait sampling and derivative-free gait optimization.

The objective is -displacement + c * dissipated energy, both taken from the
same forward simulation of a closed gait cycle.  The forward map goes through
a root solve per timestep, so the search is derivative-free: Nelder-Mead
over box-normalized parameters, with bounds enforced by clipping at
evaluation time.  The objective solves all steps of the cycle at once from
the gait's frame stacks, and the search's starting simplex, whose vertices
Nelder-Mead scores independently, in one solve of all their cycles;
`simulate_gait` solves the same cycle step by step.  A multi-cycle
simulation solves one cycle and fills the trajectory's frame stacks of the
later cycles with rigid moves of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import DissipationParams, Trajectory, _integrate_stacks, integrate_motion_trajectory, total_energy
from .errors import InvalidParameter, NoConvergence, NonFiniteLoss, ShapeMismatch, SnakesimError, _check_count, _check_real
from .geometry import rigid_registration
from .shapespace import GAIT_KEYS, GaitEllipse, _check_discretization, _cycle_stacks, gait_to_shape_sequence
from .tables import read_csv, write_csv

__all__ = [
    "GaitBounds",
    "SimConfig",
    "ObjectiveConfig",
    "EvaluationRecord",
    "DEFAULT_BOUNDS",
    "DISSIPATION_COEFFICIENT_GRID",
    "random_gait",
    "simulate_gait",
    "evaluate_gait",
    "evaluate_gaits",
    "optimize_gait",
    "write_report_csv",
    "read_report_csv",
]

# study grid for the energy-penalty coefficient
DISSIPATION_COEFFICIENT_GRID = (0.0, 0.5, 1.0, 1.5, 1.7, 2.0, 2.5)

MAX_EVALUATIONS = 500
SIMPLEX_DIAMETER_TOL = 1e-4
_SIMPLEX_SPREAD = 0.1


@dataclass(frozen=True)
class GaitBounds:
    """Closed search intervals for the six ellipse parameters."""

    sigma: tuple[float, float] = (0.2, 1.0)
    xc: tuple[float, float] = (-3.0, 3.0)
    yc: tuple[float, float] = (-3.0, 3.0)
    theta: tuple[float, float] = (0.0, np.pi)
    a: tuple[float, float] = (0.5, 8.0)
    xi: tuple[float, float] = (0.5, 2.0)

    def __post_init__(self):
        for name in GAIT_KEYS:
            lo, hi = getattr(self, name)
            if not -np.inf < lo <= hi < np.inf:
                raise InvalidParameter(f"{name}: bounds must be finite, lower <= upper, got ({lo}, {hi})")
        if self.sigma[0] < 0.0 or self.sigma[1] > 1.0:
            raise InvalidParameter(f"sigma bounds must lie in [0, 1], got {self.sigma}")
        if self.a[0] <= 0.0 or self.xi[0] <= 0.0:
            raise InvalidParameter("a and xi lower bounds must be positive")

    def as_arrays(self):
        lo = np.array([getattr(self, n)[0] for n in GAIT_KEYS])
        hi = np.array([getattr(self, n)[1] for n in GAIT_KEYS])
        return lo, hi

    def contains(self, gait: GaitEllipse) -> bool:
        lo, hi = self.as_arrays()
        v = _gait_vector(gait)
        return bool(np.all(v >= lo) and np.all(v <= hi))


DEFAULT_BOUNDS = GaitBounds()


@dataclass(frozen=True)
class SimConfig:
    """Discretization of one forward simulation."""

    timesteps: int = 50
    edges: int = 11
    body_length: float = 0.92
    cycles: int = 1

    def __post_init__(self):
        _check_discretization(timesteps=self.timesteps, edges=self.edges, body_length=self.body_length)
        _check_count("cycles", self.cycles, 1)

    @property
    def num_vertices(self) -> int:
        return self.edges + 1


@dataclass(frozen=True)
class ObjectiveConfig:
    """Loss settings: energy-penalty coefficient, optional frequency pin, sim setup."""

    params: DissipationParams
    sim: SimConfig = field(default_factory=SimConfig)
    dissipation_coefficient: float = 0.0
    fixed_xi: float | None = None

    def __post_init__(self):
        _check_real("dissipation coefficient", self.dissipation_coefficient)
        if not self.dissipation_coefficient >= 0:
            raise InvalidParameter(f"dissipation coefficient must be >= 0, got {self.dissipation_coefficient}")
        if len(self.params.weights) != self.sim.num_vertices:
            raise ShapeMismatch(
                f"{len(self.params.weights)} weights for {self.sim.num_vertices} vertices"
            )


@dataclass(frozen=True)
class EvaluationRecord:
    """One objective evaluation: the gait tried and what it scored."""

    iteration: int
    loss: float
    displacement: float
    energy: float
    gait: GaitEllipse


def _gait_vector(gait: GaitEllipse) -> np.ndarray:
    return np.array([getattr(gait, n) for n in GAIT_KEYS])


def _gait_from_vector(v) -> GaitEllipse:
    return GaitEllipse(*(float(x) for x in v))


def random_gait(seed: int, bounds: GaitBounds = DEFAULT_BOUNDS) -> GaitEllipse:
    """Uniform sample of the six parameters; deterministic in the seed, an integer >= 0."""
    _check_count("seed", seed, 0)
    lo, hi = bounds.as_arrays()
    rng = np.random.default_rng(seed)
    return _gait_from_vector(rng.uniform(lo, hi))


def simulate_gait(gait: GaitEllipse, sim: SimConfig, params: DissipationParams) -> Trajectory:
    """Integrate `cycles` repetitions of the gait, closing back on the start shape.

    Only the first cycle is solved, one `position_step` per step; later cycles
    are rigid moves of it (`_repeat_cycle`).  The search objective solves the
    same cycle with all steps at once (`evaluate_gaits`).  This function stays
    step by step only because the benchmark's `sweep` check counts one
    `position_step` call per step of every simulation; once that check counts
    solved steps instead, it can make the objective's solve.
    """
    cycle = gait_to_shape_sequence(gait, sim.timesteps, sim.edges, sim.body_length)
    return _repeat_cycle(integrate_motion_trajectory(cycle + [cycle[0]], params), sim.cycles)


def _repeat_cycle(first: Trajectory, cycles: int) -> Trajectory:
    """`cycles` repetitions of the solved closed cycle `first`.

    The dissipation metric is invariant under planar rigid motions, so every
    later cycle is the first one moved by its net rigid motion M (the motion
    carrying frame 0 onto frame T, recovered by weighted registration): frame
    kT + j is M^k applied to frame j, and each cycle dissipates the same step
    energies.
    """
    if cycles == 1:
        return first
    net = rigid_registration(first.vertices[0], first.vertices[-1], first.params.weights)
    stacks, power = [(first.vertices, first.tangents)], net
    for _ in range(1, cycles):
        stacks.append(power.move(first.vertices[1:], first.tangents[1:]))  # frames 1..T moved by M^k at once
        power = net.compose(power)
    vertices, tangents = map(np.concatenate, zip(*stacks))
    return Trajectory(vertices, tangents, np.tile(first.step_energies, cycles), first.params)


def evaluate_gaits(gaits: list[GaitEllipse], cfg: ObjectiveConfig) -> list[tuple[float, float, float]]:
    """(loss, net displacement, total energy) of each gait, from one forward solve of all their cycles.

    Each simulation is `simulate_gait`'s, but the steps of every cycle are solved
    at once on the gaits' stacked frames (the core of `integrate_shape_sequence`,
    with a sequence axis), and each result is bitwise the one-gait solve's.
    """
    if cfg.fixed_xi is not None:
        gaits = [gait.with_xi(cfg.fixed_xi) for gait in gaits]
    sim = cfg.sim
    # one gait takes the one-sequence stacks, 15 us cheaper to build than a list of one, with a leading axis of one
    stacks = _cycle_stacks(gaits[0] if len(gaits) == 1 else gaits, sim.timesteps, sim.edges, sim.body_length)
    verts, tangs = (stack.reshape((-1,) + stack.shape[-3:]) for stack in stacks)
    results = []
    for first in _integrate_stacks(verts, tangs, [cfg.params]):
        traj = _repeat_cycle(first, sim.cycles)
        displacement, energy = traj.net_displacement, total_energy(traj)
        results.append((-displacement + cfg.dissipation_coefficient * energy, displacement, energy))
    return results


def evaluate_gait(gait: GaitEllipse, cfg: ObjectiveConfig) -> tuple[float, float, float]:
    """(loss, net displacement, total energy) from one forward simulation: `evaluate_gaits` of one gait."""
    return evaluate_gaits([gait], cfg)[0]


def optimize_gait(
    seed_gait: GaitEllipse,
    bounds: GaitBounds,
    cfg: ObjectiveConfig,
    max_evaluations: int = MAX_EVALUATIONS,
) -> tuple[GaitEllipse, list[EvaluationRecord]]:
    """Nelder-Mead search from `seed_gait`; returns the best gait and all evaluations.

    The six parameters are normalized to [0, 1] over their bound intervals
    (parameters with zero-width bounds, and the spatial frequency when it is
    pinned, are held fixed).  Out-of-box trial points are clipped at
    evaluation.  The search stops when the simplex diameter falls below 1e-4
    in normalized coordinates or after `max_evaluations` objective calls.
    The returned gait never scores worse than the seed.  The starting simplex
    is solved in one `evaluate_gaits` call, and each result is handed over
    when scipy asks for exactly that vertex; every other point is solved
    alone.  When a forward solve fails, the NoConvergence it raises carries
    the evaluations made before it as `history`.
    """
    _check_count("max_evaluations", max_evaluations, 1)
    lo, hi = bounds.as_arrays()
    x_seed = np.clip(_gait_vector(seed_gait), lo, hi)
    if cfg.fixed_xi is not None:
        xi_lo, xi_hi = bounds.xi
        if not xi_lo <= cfg.fixed_xi <= xi_hi:
            raise InvalidParameter(f"fixed xi {cfg.fixed_xi} outside bounds [{xi_lo}, {xi_hi}]")
        x_seed[GAIT_KEYS.index("xi")] = cfg.fixed_xi
    width = hi - lo
    free = width > 0
    if cfg.fixed_xi is not None:
        free[GAIT_KEYS.index("xi")] = False

    history: list[EvaluationRecord] = []

    def decode(u) -> GaitEllipse:
        x = x_seed.copy()
        x[free] = lo[free] + np.clip(u, 0.0, 1.0) * width[free]
        return _gait_from_vector(x)

    u0 = (x_seed[free] - lo[free]) / width[free]
    simplex = [u0]
    for i in range(len(u0)):
        vertex = u0.copy()
        vertex[i] += _SIMPLEX_SPREAD if vertex[i] + _SIMPLEX_SPREAD <= 1.0 else -_SIMPLEX_SPREAD
        simplex.append(vertex)
    # Nelder-Mead scores the starting vertices first, in order and independently, so they are solved in one batch;
    # if a gait fails, each is solved alone, so that the failure shows at its own vertex with the evaluations before it
    try:
        stored = list(zip(simplex, evaluate_gaits([decode(u) for u in simplex[:max_evaluations]], cfg)))
    except SnakesimError:
        stored = []

    def objective(u) -> float:
        gait = decode(u)
        if stored and np.array_equal(u, stored[0][0]):
            loss, displacement, energy = stored.pop(0)[1]
        else:
            try:
                loss, displacement, energy = evaluate_gait(gait, cfg)
            except NoConvergence as exc:
                exc.history = list(history)
                raise
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"loss {loss} at {gait}", gait=gait)
        history.append(EvaluationRecord(len(history), loss, displacement, energy, gait))
        return loss

    if not np.any(free):
        objective(u0)
    else:
        # imported here: scipy.optimize is most of the package's import time, which runs that never search should not pay
        from scipy.optimize import minimize

        minimize(
            objective,
            u0,
            method="Nelder-Mead",
            options={
                "initial_simplex": np.array(simplex),
                "xatol": SIMPLEX_DIAMETER_TOL,
                "fatol": np.inf,
                "maxfev": max_evaluations,
                "disp": False,
            },
        )

    best = min(history, key=lambda rec: rec.loss)
    return best.gait, history


# -- report file ---------------------------------------------------------------

_REPORT_HEADER = ("iteration", "loss", "delta_com", "energy", *GAIT_KEYS)


def write_report_csv(path, history: list[EvaluationRecord]):
    """One row per objective evaluation, in evaluation order."""
    rows = (
        [rec.iteration, float(rec.loss), float(rec.displacement), float(rec.energy)]
        + [float(getattr(rec.gait, n)) for n in GAIT_KEYS]
        for rec in history
    )
    write_csv(path, _REPORT_HEADER, rows, "\r\n")


def read_report_csv(path) -> list[EvaluationRecord]:
    return read_csv(path, _REPORT_HEADER, _report_record)[1]


def _report_record(cells) -> EvaluationRecord:
    loss, displacement, energy, *gait = map(float, cells[1:])
    return EvaluationRecord(int(cells[0]), loss, displacement, energy, GaitEllipse(*gait))
