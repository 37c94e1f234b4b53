"""Fit the anisotropy ratio against recorded marker trajectories.

The pipeline: marker frames -> positioned shapes -> re-integrated trajectory
under candidate dissipation parameters -> center-of-mass curve -> RMS
distance to the measured curve.  The fitted ratio is the one whose CoM curve
has the least RMS distance to the measurement: a log-spaced grid of ratios
locates it, and a bounded Brent search on the squared RMS refines it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import DissipationParams, Trajectory, integrate_motion_trajectory
from .errors import EmptyInput, FileFormatError, InvalidAnisotropy, ShapeMismatch
from .geometry import PositionedShape, _as_points, center_of_mass, shapes_from_vertices
from .geometry import tangents_from_vertices  # noqa: F401 -- bench/workloads.py traces the shape layer here
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

    def __iter__(self):
        # unpacks as the (epsilon, rms) pair
        return iter((self.epsilon, self.rms))


def extract_shapes(mocap: MocapTrajectory, target_steps: int | None = None) -> list[PositionedShape]:
    """Turn marker frames into positioned shapes (markers become vertices).

    With `target_steps` the frames are uniformly downsampled to that count,
    always keeping the first and last frame.
    """
    if mocap.num_markers < 2:
        raise ShapeMismatch("need at least 2 markers per frame")
    frames = mocap.frames
    if target_steps is not None and target_steps < len(frames):
        idx = np.round(np.linspace(0, len(frames) - 1, target_steps)).astype(int)
        frames = frames[idx]
    return shapes_from_vertices(frames)


def resimulate(mocap: MocapTrajectory, params: DissipationParams) -> Trajectory:
    """Re-integrate the executed shape sequence from the first measured pose."""
    return integrate_motion_trajectory(extract_shapes(mocap), params)


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


def _evaluate(shapes, weights, exp_curve, epsilon):
    """((epsilon, rms, final displacement), resimulated CoM curve) for one ratio."""
    traj = integrate_motion_trajectory(shapes, DissipationParams(weights, epsilon))
    curve = com_curve(traj, weights, times=exp_curve.times)
    return (epsilon, rms_error(curve, exp_curve), curve.final_displacement), curve


def fit_anisotropy(
    exp_mocap: MocapTrajectory,
    weights,
    bounds: tuple[float, float] = (0.01, 1.0),
) -> AnisotropyFit:
    """Fit the anisotropy ratio to a measured trajectory.

    The marker shapes, extracted once, are resimulated at the ratios of a
    6-point log-spaced grid over `bounds` first; bounded Brent then minimizes
    the squared RMS between the best grid ratio's two neighbours, to 1e-4 in
    the ratio.  The square is minimized because on noise-free data the RMS
    itself is V-shaped at the truth (proportional to |epsilon - truth|),
    which defeats Brent's parabolic steps; its square is smooth there.  Both
    bounds are grid points, so a ratio at a bound is found.  The returned fit
    is the evaluated ratio with the least RMS distance to the measurement.
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    if not 0.0 < lo < hi <= 1.0:
        raise InvalidAnisotropy(f"need 0 < lo < hi <= 1, got ({lo}, {hi})")
    w = np.asarray(weights, dtype=float).ravel()
    exp_curve = com_curve(exp_mocap, w)
    shapes = extract_shapes(exp_mocap)  # the same executed shapes for every ratio

    history, curves = [], []

    def squared_rms(epsilon):
        record, curve = _evaluate(shapes, w, exp_curve, float(epsilon))
        history.append(record)
        curves.append(curve)
        return record[1] ** 2

    grid = np.geomspace(lo, hi, GRID_POINTS)
    k = int(np.argmin([squared_rms(eps) for eps in grid]))
    bracket = (grid[max(k - 1, 0)], grid[min(k + 1, GRID_POINTS - 1)])
    # imported here: scipy.optimize is most of the package's import time, which runs that never fit should not pay
    from scipy.optimize import minimize_scalar

    minimize_scalar(squared_rms, bounds=bracket, method="bounded", options={"xatol": REFINE_TOL})

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
