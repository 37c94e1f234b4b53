"""Every file format: its writer's output reads back equal, and malformed files raise FileFormatError."""

import numpy as np
import pytest

from snakesim import cli, tables
from snakesim.analysis import (
    PowerLog,
    read_displacements_file,
    read_matrix_csv,
    read_power_csv,
    write_displacements_file,
    write_matrix_csv,
    write_power_csv,
)
from snakesim.calibration import MocapTrajectory, read_mocap_csv, write_mocap_csv
from snakesim.dynamics import (
    DissipationParams,
    integrate_motion_trajectory,
    read_step_energies_csv,
    read_trajectory_csv,
    write_step_energies_csv,
    write_trajectory_csv,
)
from snakesim.errors import FileFormatError
from snakesim.optimize import EvaluationRecord, read_report_csv, write_report_csv
from snakesim.shapespace import GaitEllipse, gait_to_shape_sequence, read_gait_file, write_gait_file

RNG = np.random.default_rng(5)
GAIT = GaitEllipse(sigma=0.55, xc=1.25, yc=-2.0, theta=1.1, a=4.5, xi=0.75)
SHAPES = gait_to_shape_sequence(GAIT, timesteps=5, edges=4, body_length=0.92)
TRAJECTORY = integrate_motion_trajectory(SHAPES + [SHAPES[0]], DissipationParams.uniform(1.38, 5, 0.3))


def write_gait(path):
    write_gait_file(path, GAIT, 50, 11, 0.92)
    return GAIT, {"timesteps": 50, "edges": 11, "body_length": 0.92}


def write_trajectory(path):
    write_trajectory_csv(path, TRAJECTORY)
    return TRAJECTORY.vertices


def write_energies(path):
    write_step_energies_csv(path, TRAJECTORY.step_energies)
    return TRAJECTORY.step_energies


def write_mocap(path):
    mocap = MocapTrajectory(np.arange(6) / 7.0, TRAJECTORY.vertices)
    write_mocap_csv(path, mocap)
    return mocap.times, mocap.frames


def write_report(path):
    history = [EvaluationRecord(k, -0.1 * k, 0.1 * k, 1.0 / (k + 3), GAIT.with_xi(0.5 + k / 3)) for k in range(4)]
    write_report_csv(path, history)
    return history


def write_displacements(path):
    values = RNG.exponential(size=5)
    write_displacements_file(path, values)
    return values


def write_power(path):
    log = PowerLog(np.cumsum(RNG.exponential(size=6)), RNG.exponential(size=6))
    write_power_csv(path, log)
    return log.times, log.power


def write_matrix(path):
    matrix = RNG.normal(size=(3, 3))
    write_matrix_csv(path, matrix, labels=["g0", "g1", "g2"])
    return matrix, ["g0", "g1", "g2"]


def summary_writer(header, rows):
    """How the CLI writes c_sweep.csv, calibration.csv and cot.csv (their bytes: tests/test_cli.py)."""
    def write(path):
        tables.write_csv(path, header, rows, "\n")
        return rows
    return write


def trajectory_vertices(path):
    return np.array([shape.vertices for shape in read_trajectory_csv(path)])


def mocap_arrays(path):
    mocap = read_mocap_csv(path)
    return mocap.times, mocap.frames


def power_arrays(path):
    log = read_power_csv(path)
    return log.times, log.power


# name -> (writer returning what was written, reader); the first two are line formats, the rest headed CSV
FORMATS = {
    "gait file": (write_gait, read_gait_file),
    "displacement file": (write_displacements, read_displacements_file),
    "trajectory.csv": (write_trajectory, trajectory_vertices),
    "energies.csv": (write_energies, read_step_energies_csv),
    "mocap CSV": (write_mocap, mocap_arrays),
    "report.csv": (write_report, read_report_csv),
    "power CSV": (write_power, power_arrays),
    "matrix CSV": (write_matrix, read_matrix_csv),
    "c_sweep.csv": (summary_writer(cli._SWEEP_HEADER, [(0.0, 0.25, 1e-3), (2.5, 0.125, 3e-4)]), cli.read_sweep_csv),
    "calibration.csv": (
        summary_writer(cli._CALIBRATION_HEADER, [(0.1, 2e-3, 0.3), (0.2, 1e-4, 0.25)]),
        cli.read_calibration_csv,
    ),
    "cot.csv": (summary_writer(cli._COT_HEADER, [("Exp", 0.29, 0.145, 2.55), ("Sim", 0.3, 0.15, 2.5)]), cli.read_cot_csv),
}
CSV_FORMATS = list(FORMATS)[2:]


def same(lhs, rhs):
    if isinstance(lhs, (tuple, list)):
        return len(lhs) == len(rhs) and all(same(a, b) for a, b in zip(lhs, rhs))
    if isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray):
        return np.array_equal(lhs, rhs)
    return lhs == rhs


@pytest.mark.parametrize("name", FORMATS)
def test_written_file_reads_back_equal(tmp_path, name):
    write, read = FORMATS[name]
    path = tmp_path / "table"
    written = write(path)
    assert same(written, read(path))


def line_edited(index, edit):
    """Malforms a file's lines by editing one: 0 is the header, 1 the first row."""
    def malform(lines):
        lines[index] = edit(lines[index])
        return lines
    return malform


CSV_MALFORMED = {
    "short row": line_edited(1, lambda row: row.rsplit(",", 1)[0]),
    "long row": line_edited(1, lambda row: row + ",0.5"),
    "wrong header": line_edited(0, lambda header: "bogus," + header.split(",", 1)[1]),
    "extra header cell": line_edited(0, lambda header: header + ",z"),
    "non-numeric cell": line_edited(1, lambda row: row.rsplit(",", 1)[0] + ",spam"),
    "oversized cell": line_edited(1, lambda row: row.rsplit(",", 1)[0] + "," + "1" * 200_000),
}

# the line formats' counterparts of the CSV variants
LINE_MALFORMED = {
    "gait file": {
        "short row": lambda lines: lines[:-1] + ["body_length ="],
        "long row": lambda lines: lines[:-1] + ["body_length = 0.92 0.5"],
        "wrong header": lambda lines: lines + ["bogus = 1.0"],  # a key the format does not have
        "repeated key": lambda lines: lines + ["a = 5.0"],
        "non-numeric cell": lambda lines: lines[:-1] + ["body_length = spam"],
    },
    "displacement file": {
        "short row": lambda lines: ["# no values"],
        "long row": lambda lines: [lines[0] + ",0.5"] + lines[1:],
        "wrong header": lambda lines: ["displacement_m"] + lines,  # the format has no header
        "non-numeric cell": lambda lines: lines + ["spam"],
    },
}

MALFORMED_CASES = [(name, variant) for name in CSV_FORMATS for variant in CSV_MALFORMED] + [
    (name, variant) for name, variants in LINE_MALFORMED.items() for variant in variants
]


@pytest.mark.parametrize("name, variant", MALFORMED_CASES)
def test_malformed_file_raises_file_format_error(tmp_path, name, variant):
    write, read = FORMATS[name]
    path = tmp_path / "table"
    write(path)
    malform = CSV_MALFORMED[variant] if name in CSV_FORMATS else LINE_MALFORMED[name][variant]
    path.write_text("\n".join(malform(path.read_text().splitlines())) + "\n")
    with pytest.raises(FileFormatError, match="table"):
        read(path)


@pytest.mark.parametrize("name", FORMATS)
def test_undecodable_file_raises_file_format_error(tmp_path, name):
    write, read = FORMATS[name]
    path = tmp_path / "table"
    write(path)
    path.write_bytes(path.read_bytes() + b"\xff\n")
    with pytest.raises(FileFormatError, match="table"):
        read(path)


@pytest.mark.parametrize("name", CSV_FORMATS)
def test_blank_lines_are_skipped(tmp_path, name):
    write, read = FORMATS[name]
    path = tmp_path / "table"
    written = write(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:2] + ["", "   "] + lines[2:]) + "\n\n")
    assert same(written, read(path))
