"""Cross-class performance comparison and cost-of-transport accounting.

A "class" is one way of producing displacements for the same indexed set of
gaits (measured, simulated, or resimulated).  Pairwise displacement ratios
within a class cancel units; quotients of those ratio matrices across two
classes measure how consistently the classes rank the gaits, summarized by
the off-diagonal mean and spread.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, total_energy
from .errors import EmptyInput, FileFormatError, InvalidParameter, ShapeMismatch

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


def write_displacements_file(path, values):
    """One displacement (meters) per line."""
    with open(path, "w") as handle:
        for v in np.asarray(values, dtype=float).ravel():
            handle.write(f"{float(v)!r}\n")


def read_displacements_file(path) -> np.ndarray:
    values = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                values.append(float(text))
            except ValueError as exc:
                raise FileFormatError(f"{path}:{line_no}: not a displacement: {text!r}") from exc
    if not values:
        raise FileFormatError(f"{path}: no values found")
    return np.array(values)


def write_power_csv(path, log: PowerLog):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", "power_w"])
        for t, p in zip(log.times, log.power):
            writer.writerow([repr(float(t)), repr(float(p))])


def read_power_csv(path) -> PowerLog:
    times, power = [], []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:2]] != ["time_s", "power_w"]:
            raise FileFormatError(f"{path}: expected header 'time_s,power_w'")
        for row in reader:
            if not row:
                continue
            try:
                times.append(float(row[0]))
                power.append(float(row[1]))
            except (ValueError, IndexError) as exc:
                raise FileFormatError(f"{path}: bad power row {row!r}") from exc
    if not times:
        raise FileFormatError(f"{path}: no data rows")
    return PowerLog(np.array(times), np.array(power))


def write_matrix_csv(path, matrix, labels=None):
    """Square matrix with a shared header row/column of gait indices."""
    m = np.asarray(matrix, dtype=float)
    if labels is None:
        labels = [str(i) for i in range(m.shape[0])]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([""] + list(labels))
        for label, row in zip(labels, m):
            writer.writerow([label] + [repr(float(v)) for v in row])


def read_matrix_csv(path) -> tuple[np.ndarray, list[str]]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise FileFormatError(f"{path}: expected a header row of labels")
        labels = [c.strip() for c in header[1:]]
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(labels) + 1:
                raise FileFormatError(f"{path}: row length {len(row)} does not match header")
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise FileFormatError(f"{path}: non-numeric matrix entry in {row!r}") from exc
    if len(rows) != len(labels):
        raise FileFormatError(f"{path}: {len(rows)} rows for {len(labels)} columns")
    return np.array(rows), labels
