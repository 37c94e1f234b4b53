"""Fit the anisotropy ratio against recorded marker trajectories.

The pipeline: marker frames -> positioned shapes -> re-integrated trajectory
under candidate dissipation parameters -> center-of-mass curve -> RMS
distance to the measured curve.  The fitted ratio is the one whose CoM curve
has the least RMS distance to the measurement: a log-spaced grid of ratios
locates it, and secant Gauss-Newton steps on the CoM residual refine it.
The recording's frame stacks and the part of its step equations that no
ratio enters are prepared once per fit; the whole grid is then one lockstep
solve (`dynamics._integrate_stacks` with a ratio axis), and each
Gauss-Newton step another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .dynamics import DissipationParams, Trajectory, _integrate_stacks, _stack_pairs
from .dynamics import integrate_motion_trajectory  # noqa: F401 -- bench/workloads.py traces the step-by-step path here
from .errors import EmptyInput, FileFormatError, InvalidAnisotropy, ShapeMismatch, _check_count, _check_real
from .geometry import PositionedShape, _as_points, _check_frames, _shape_views, center_of_mass, tangents_from_vertices
from .tables import read_csv, read_numbers, write_csv, write_numbers

__all__ = [
    "MocapTrajectory",
    "ComCurve",
    "AnisotropyFit",
    "extract_shapes",
    "resimulate",
    "com_curve",
    "rms_error",
    "fit_anisotropy",
    "read_mocap_csv",
    "write_mocap_csv",
    "read_weights_file",
    "write_weights_file",
]

GRID_POINTS = 6
REFINE_TOL = 1e-4
MAX_REFINE_STEPS = 20
# two CoM curves closer than this, relative to their largest coordinate, differ by rounding alone
CURVE_RTOL = 1e-12


@dataclass(frozen=True)
class MocapTrajectory:
    """Time-stamped planar marker positions, one row of markers per frame."""

    times: np.ndarray
    frames: np.ndarray  # (T, N, 2) meters

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).ravel()
        frames = np.asarray(self.frames, dtype=float)
        if frames.ndim != 3 or frames.shape[2] != 2:
            raise ShapeMismatch(f"frames must be (T, N, 2), got shape {frames.shape}")
        if len(times) != frames.shape[0]:
            raise ShapeMismatch(f"{len(times)} timestamps for {frames.shape[0]} frames")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(frames))):
            raise FileFormatError("timestamps and marker positions must be finite")
        if len(times) and np.any(np.diff(times) <= 0):
            raise FileFormatError("timestamps must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "frames", frames)

    @property
    def num_markers(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class ComCurve:
    """Center-of-mass positions over time."""

    times: np.ndarray
    positions: np.ndarray  # (T, 2) meters

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).ravel()
        positions = _as_points(np.atleast_2d(self.positions))
        if len(times) != len(positions):
            raise ShapeMismatch(f"{len(times)} times for {len(positions)} positions")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", positions)

    @property
    def displacement_magnitudes(self) -> np.ndarray:
        """|CoM(t) - CoM(0)| per frame, meters."""
        return np.linalg.norm(self.positions - self.positions[0], axis=1)

    @property
    def final_displacement(self) -> float:
        return float(self.displacement_magnitudes[-1])


@dataclass(frozen=True)
class AnisotropyFit:
    """Best-RMS anisotropy ratio plus the full (epsilon, rms, displacement) history.

    `curves[i]` is the resimulated CoM curve behind `evaluations[i]`.
    """

    epsilon: float
    rms: float
    evaluations: list[tuple[float, float, float]]
    curves: list[ComCurve] = field(default_factory=list)


def extract_shapes(mocap: MocapTrajectory, target_steps: int | None = None) -> list[PositionedShape]:
    """Turn marker frames into positioned shapes (markers become vertices).

    With `target_steps` the frames are uniformly downsampled to that count:
    the first and last frame are kept when it is 2 or more, and the first
    frame alone when it is 1.
    """
    if target_steps is not None:
        _check_count("target_steps", target_steps, 1)
    frames = mocap.frames
    if target_steps is not None and target_steps < len(frames):
        idx = np.round(np.linspace(0, len(frames) - 1, target_steps)).astype(int)
        frames = frames[idx]
    return _shape_views(*_marker_stacks(frames))


def _marker_stacks(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checked (T, N, 2) vertex and tangent stacks of marker frames; the vertices are a copy, not a view of the recording."""
    if frames.shape[1] < 2:
        raise ShapeMismatch("need at least 2 markers per frame")
    verts = np.array(frames)
    return _check_frames(verts, tangents_from_vertices(verts), stacked=True)


def resimulate(mocap: MocapTrajectory, params: DissipationParams) -> Trajectory:
    """Re-integrate the executed shape sequence from the first measured pose."""
    if len(params.weights) != mocap.num_markers:
        raise ShapeMismatch(f"{len(params.weights)} weights for {mocap.num_markers} markers")
    verts, tangs = _marker_stacks(mocap.frames)
    return _integrate_stacks(verts[None], tangs[None], [params])[0]


def com_curve(source, weights, times=None) -> ComCurve:
    """Weighted center-of-mass curve of a Trajectory or a MocapTrajectory.

    Weights that are not finite and strictly positive raise NonPositiveWeight.
    """
    if isinstance(source, MocapTrajectory):
        return ComCurve(source.times, center_of_mass(source.frames, weights))
    path = source.com_path(weights)
    if times is None:
        times = np.arange(len(path), dtype=float)
    return ComCurve(times, path)


def rms_error(a: ComCurve, b: ComCurve) -> float:
    """Root-mean-square distance between two CoM curves, meters.

    Curves of different lengths are aligned by linearly resampling the longer
    one onto the shorter one's time grid.
    """
    if len(a.times) == 0 or len(b.times) == 0:
        raise EmptyInput("cannot compare empty curves")
    if len(a.times) != len(b.times):
        if len(a.times) > len(b.times):
            a, b = b, a
        resampled = np.column_stack(
            [np.interp(a.times, b.times, b.positions[:, d]) for d in range(2)]
        )
        b = ComCurve(a.times, resampled)
    return float(np.sqrt(np.mean(np.sum((a.positions - b.positions) ** 2, axis=1))))


def _evaluate(recording, epsilons):
    """((epsilon, rms, final displacement), resimulated CoM curve) for each ratio, all solved at once.

    `recording` holds the (1, T, N, 2) marker stacks, the weights, their `_stack_pairs` and the measured CoM curve.
    """
    params = [DissipationParams(recording.weights, epsilon) for epsilon in epsilons]
    trajectories = _integrate_stacks(recording.verts, recording.tangs, params, recording.pairs)
    evaluations = []
    for epsilon, traj in zip(epsilons, trajectories):
        curve = com_curve(traj, recording.weights, times=recording.curve.times)
        evaluations.append(((epsilon, rms_error(curve, recording.curve), curve.final_displacement), curve))
    return evaluations


def fit_anisotropy(
    exp_mocap: MocapTrajectory,
    weights,
    bounds: tuple[float, float] = (0.01, 1.0),
) -> AnisotropyFit:
    """Fit the anisotropy ratio to a measured trajectory.

    The marker frames are stacked and checked once, and so is the part of
    their step equations that no ratio enters.  The 6 ratios of a log-spaced
    grid over `bounds` are resimulated first, in one lockstep solve that
    gives each ratio bitwise its one-ratio trajectory.  Secant Gauss-Newton
    on the (T, 2) CoM residual r(epsilon) = simulated - measured then refines
    the best grid ratio between its two grid neighbours: the slope J is the
    difference of the two latest evaluated curves over their ratios (at
    first the best grid ratio and its better neighbour), and the next ratio
    is the latest one minus J.r / J.J, except that a step to or past a
    bracket end goes halfway to that end.  The steps stop after solving a
    ratio that moved by at most 1e-4 (`REFINE_TOL`), and stop without a
    further solve when the two latest curves differ by rounding alone (J.J
    zero: no ratio moves this recording's CoM), when a step lands on a ratio
    already evaluated (a ratio at a bracket end is a grid point), or after
    20 steps.  The residual is fitted rather than the squared RMS minimised
    by a scalar search: on noise-free data the residual vanishes at the
    truth and is smooth in the ratio there, so its secant steps converge
    superlinearly (4 to 6 steps after the grid), where a scalar search sees
    only a minimum to bracket (about 10 steps).  Both bounds are grid
    points, so a ratio at a bound is found.  The returned fit is the
    evaluated ratio with the least RMS distance to the measurement, never
    worse than the grid's best.
    """
    _check_real("lower bound", bounds[0], InvalidAnisotropy)
    _check_real("upper bound", bounds[1], InvalidAnisotropy)
    lo, hi = float(bounds[0]), float(bounds[1])
    if not 0.0 < lo < hi <= 1.0:
        raise InvalidAnisotropy(f"need 0 < lo < hi <= 1, got ({lo}, {hi})")
    w = np.asarray(weights, dtype=float).ravel()
    exp_curve = com_curve(exp_mocap, w)  # checks the weights
    verts, tangs = _marker_stacks(exp_mocap.frames)  # the same executed shapes for every ratio
    if len(verts) < 2:
        raise EmptyInput(f"need at least 2 frames to fit the anisotropy ratio, got {len(verts)}")
    verts, tangs = verts[None], tangs[None]
    recording = SimpleNamespace(verts=verts, tangs=tangs, weights=w, pairs=_stack_pairs(verts, tangs, w), curve=exp_curve)

    history, curves = [], []
    grid = np.geomspace(lo, hi, GRID_POINTS).tolist()
    for record, curve in _evaluate(recording, grid):
        history.append(record)
        curves.append(curve)
    k = min(range(GRID_POINTS), key=lambda i: history[i][1])
    lower, upper = grid[max(k - 1, 0)], grid[min(k + 1, GRID_POINTS - 1)]
    j = min((i for i in (k - 1, k + 1) if 0 <= i < GRID_POINTS), key=lambda i: history[i][1])
    (eps0, curve0), (eps1, curve1) = (grid[j], curves[j]), (grid[k], curves[k])
    for _ in range(MAX_REFINE_STEPS):
        change = curve1.positions - curve0.positions
        if not np.max(np.abs(change)) > CURVE_RTOL * np.max(np.abs(curve1.positions)):
            break  # J.J is zero up to rounding: no ratio moves this recording's CoM
        slope = change / (eps1 - eps0)
        epsilon = eps1 - float(np.sum(slope * (curve1.positions - exp_curve.positions)) / np.sum(slope * slope))
        if not lower < epsilon < upper:  # a step to or past a bracket end goes halfway to that end
            epsilon = (eps1 + (lower if epsilon <= lower else upper)) / 2
        if any(epsilon == record[0] for record in history):
            break
        [(record, curve)] = _evaluate(recording, [epsilon])
        history.append(record)
        curves.append(curve)
        (eps0, curve0), (eps1, curve1) = (eps1, curve1), (epsilon, curve)
        if abs(eps1 - eps0) <= REFINE_TOL:
            break

    best = min(history, key=lambda rec: rec[1])
    return AnisotropyFit(best[0], best[1], history, curves)


# -- file formats ---------------------------------------------------------------


def _mocap_header(num_markers):
    return ["time_s"] + [f"m{k}_{axis}" for k in range(num_markers) for axis in "xy"]


def write_mocap_csv(path, mocap: MocapTrajectory):
    """Header time_s, m0_x, m0_y, ... then one row per frame, meters."""
    flat = mocap.frames.reshape(len(mocap.times), 2 * mocap.num_markers).tolist()
    rows = ([t] + row for t, row in zip(mocap.times.tolist(), flat))
    write_csv(path, _mocap_header(mocap.num_markers), rows, "\r\n")


def read_mocap_csv(path) -> MocapTrajectory:
    # the header's width sets the marker count, which is at least one
    _, rows = read_csv(
        path,
        lambda cells: _mocap_header(max(len(cells) // 2, 1)),
        lambda cells: (float(cells[0]), [float(v) for v in cells[1:]]),
    )
    if not rows:
        raise FileFormatError(f"{path}: no data rows")
    times, frames = zip(*rows)
    return MocapTrajectory(np.array(times), np.reshape(frames, (len(times), -1, 2)))


# one weight (kg) per line
read_weights_file, write_weights_file = read_numbers, write_numbers
