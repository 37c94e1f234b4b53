"""Cross-class performance comparison and cost-of-transport accounting.

A "class" is one way of producing displacements for the same indexed set of
gaits (measured, simulated, or resimulated).  Pairwise displacement ratios
within a class cancel units; quotients of those ratio matrices across two
classes measure how consistently the classes rank the gaits, summarized by
the off-diagonal mean and spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, total_energy
from .errors import EmptyInput, FileFormatError, InvalidParameter, ShapeMismatch
from .tables import read_csv, read_numbers, write_csv, write_numbers

__all__ = [
    "CLASS_LABELS",
    "ClassDisplacements",
    "PowerLog",
    "performance_ratios",
    "ratio_quotients",
    "trial_stats",
    "cost_of_transport",
    "simulated_power_proxy",
    "read_displacements_file",
    "write_displacements_file",
    "read_power_csv",
    "write_power_csv",
    "read_matrix_csv",
    "write_matrix_csv",
]

CLASS_LABELS = ("Exp", "Sim", "Resim")


@dataclass(frozen=True)
class ClassDisplacements:
    """Per-gait displacements produced by one data class, indexed consistently."""

    class_label: str
    values: np.ndarray

    def __post_init__(self):
        if self.class_label not in CLASS_LABELS:
            raise InvalidParameter(f"class label must be one of {CLASS_LABELS}, got {self.class_label!r}")
        values = np.asarray(self.values, dtype=float).ravel()
        if values.size == 0:
            raise EmptyInput("displacement list is empty")
        if not np.all(np.isfinite(values)):
            raise InvalidParameter("displacements must be finite")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class PowerLog:
    """Logged electrical power over time: finite samples at strictly increasing finite times."""

    times: np.ndarray
    power: np.ndarray  # watts

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).ravel()
        power = np.asarray(self.power, dtype=float).ravel()
        if len(times) != len(power):
            raise ShapeMismatch(f"{len(times)} times for {len(power)} power samples")
        if len(times) == 0:
            raise EmptyInput("power log is empty")
        if not (np.isfinite(times).all() and np.isfinite(power).all()):
            raise FileFormatError("power log times and samples must be finite")
        if np.any(np.diff(times) <= 0):
            raise FileFormatError("power log times must be strictly increasing")
        if np.any(power < 0):
            raise InvalidParameter("power must be nonnegative")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "power", power)

    @property
    def mean_power(self) -> float:
        return float(np.mean(self.power))


def performance_ratios(cls: ClassDisplacements) -> np.ndarray:
    """Matrix of pairwise displacement ratios, entry (i, j) = v_i / v_j."""
    v = cls.values
    if np.any(v <= 0):
        raise InvalidParameter(f"{cls.class_label}: ratios need strictly positive displacements")
    return np.outer(v, 1.0 / v)


def ratio_quotients(d_x: np.ndarray, d_y: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Elementwise quotient of two ratio matrices, with off-diagonal mean and STD.

    The mean and the (population) standard deviation exclude the major
    diagonal, which is identically 1 by construction.
    """
    d_x = np.asarray(d_x, dtype=float)
    d_y = np.asarray(d_y, dtype=float)
    if d_x.shape != d_y.shape:
        raise ShapeMismatch(f"ratio matrices differ in shape: {d_x.shape} vs {d_y.shape}")
    quotients = d_x / d_y
    off = ~np.eye(len(quotients), dtype=bool)
    if np.any(off):
        mean = float(np.mean(quotients[off]))
        std = float(np.std(quotients[off]))
    else:
        mean, std = 1.0, 0.0
    return quotients, mean, std


def trial_stats(displacements, sample: bool = False) -> tuple[float, float]:
    """Mean and standard deviation of repeated trials (population STD by default)."""
    values = np.asarray(displacements, dtype=float).ravel()
    if values.size == 0:
        raise EmptyInput("no trials")
    ddof = 1 if sample and values.size > 1 else 0
    return float(np.mean(values)), float(np.std(values, ddof=ddof))


def cost_of_transport(power_mean: float, mass: float, gravity: float, velocity: float) -> float:
    """Dimensionless transport cost P / (m g v) of finite positive inputs."""
    for name, value in (("power", power_mean), ("mass", mass), ("gravity", gravity), ("velocity", velocity)):
        if not 0 < value < np.inf:
            raise InvalidParameter(f"{name} must be finite and positive, got {value}")
    return power_mean / (mass * gravity * velocity)


def simulated_power_proxy(traj: Trajectory, cycle_duration: float) -> float:
    """Stand-in for logged power when no hardware is present: energy / duration.

    Reported values based on this are proxies, not measurements, and are
    flagged as such wherever they appear.
    """
    if not cycle_duration > 0:
        raise InvalidParameter(f"duration must be positive, got {cycle_duration}")
    return total_energy(traj) / cycle_duration


# -- file formats --------------------------------------------------------------


# one displacement (meters) per line
read_displacements_file, write_displacements_file = read_numbers, write_numbers


_POWER_HEADER = ("time_s", "power_w")


def write_power_csv(path, log: PowerLog):
    write_csv(path, _POWER_HEADER, zip(log.times.tolist(), log.power.tolist()), "\r\n")


def read_power_csv(path) -> PowerLog:
    _, rows = read_csv(path, _POWER_HEADER, lambda cells: tuple(map(float, cells)))
    if not rows:
        raise FileFormatError(f"{path}: no data rows")
    times, power = zip(*rows)
    return PowerLog(np.array(times), np.array(power))


def write_matrix_csv(path, matrix, labels=None):
    """Square matrix with a shared header row/column of gait indices."""
    m = np.asarray(matrix, dtype=float)
    if labels is None:
        labels = [str(i) for i in range(m.shape[0] if m.ndim else 0)]
    if m.shape != (len(labels), len(labels)):  # else the rows come out ragged, or some are dropped
        raise ShapeMismatch(f"a matrix of shape {m.shape} for {len(labels)} labels: one row and column per label")
    write_csv(path, [""] + list(labels), ([label] + row for label, row in zip(labels, m.tolist())), "\r\n")


def read_matrix_csv(path) -> tuple[np.ndarray, list[str]]:
    header, rows = read_csv(
        path,
        lambda cells: [""] + (cells[1:] or [""]),  # a blank corner cell, then at least one label
        lambda cells: [float(v) for v in cells[1:]],
    )
    labels = header[1:]
    if len(rows) != len(labels):
        raise FileFormatError(f"{path}: {len(rows)} rows for {len(labels)} columns")
    return np.array(rows), labels
