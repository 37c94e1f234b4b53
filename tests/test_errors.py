import numpy as np
import pytest

import snakesim
from snakesim import errors
from snakesim.analysis import ClassDisplacements, PowerLog, cost_of_transport, performance_ratios, ratio_quotients
from snakesim.analysis import read_matrix_csv, read_power_csv, simulated_power_proxy
from snakesim.calibration import ComCurve, MocapTrajectory, rms_error
from snakesim.cli import _SETTINGS, RunConfig
from snakesim.dynamics import DissipationParams, integrate_motion_trajectory, position_step, read_step_energies_csv
from snakesim.geometry import PositionedShape, RigidMotion, curve_from_curvature, tangents_from_vertices, vertices_from_curvature
from snakesim.optimize import DEFAULT_BOUNDS, GaitBounds, ObjectiveConfig, SimConfig, optimize_gait, random_gait
from snakesim.shapespace import GaitEllipse
from snakesim.svgplot import plot_trajectory

SEGMENT = PositionedShape.from_vertices([[0.0, 0.0], [0.3, 0.0]])
PARAMS = DissipationParams.uniform(1.0, 2, 0.5)


def write(path, text):
    path.write_text(text)
    return path


# fault -> (the class raised, its message, a call that makes the fault in a temporary directory)
FAULTS = {
    "negative weight": (errors.NonPositiveWeight, "weight", lambda _: DissipationParams([1.0, -1.0], 0.5)),
    "timestamps for frames": (errors.ShapeMismatch, "2 timestamps for 3 frames", lambda _: MocapTrajectory([0.0, 1.0], np.zeros((3, 2, 2)))),
    "gait sigma above 1": (errors.InvalidParameter, "sigma", lambda _: GaitEllipse(1.5, 0.0, 0.0, 0.0, 3.0, 1.0)),
    "gait negative semi-axis": (errors.InvalidParameter, "semi-axis", lambda _: GaitEllipse(1.0, 0.0, 0.0, 0.0, -1.0, 1.0)),
    "gait zero spatial frequency": (errors.InvalidParameter, "xi", lambda _: GaitEllipse(1.0, 0.0, 0.0, 0.0, 3.0, 0.0)),
    "tangents of one vertex": (errors.ShapeMismatch, "two vertices", lambda _: tangents_from_vertices([[0.0, 0.0]])),
    "edges that reverse exactly": (
        errors.ZeroLengthEdge, "around vertex 1 reverse", lambda _: tangents_from_vertices([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]),
    ),
    "curvature without samples": (errors.InvalidParameter, "curvature sample", lambda _: vertices_from_curvature([], 0.92)),
    "no shapes to integrate": (errors.ShapeMismatch, "at least one shape", lambda _: integrate_motion_trajectory([], PARAMS)),
    "step energies out of order": (
        errors.FileFormatError, "in order", lambda path: read_step_energies_csv(write(path / "e.csv", "t,energy\r\n2,0.5\r\n1,0.5\r\n")),
    ),
    "empty power log": (errors.EmptyInput, "empty", lambda _: PowerLog([], [])),
    "power CSV without rows": (errors.FileFormatError, "no data rows", lambda path: read_power_csv(write(path / "p.csv", "time_s,power_w\r\n"))),
    "matrix CSV rows for labels": (
        errors.FileFormatError, "1 rows for 2 columns", lambda path: read_matrix_csv(write(path / "m.csv", ",a,b\r\na,1.0,2.0\r\n")),
    ),
    "ratio matrices of two shapes": (
        errors.ShapeMismatch, "differ in shape", lambda _: ratio_quotients(np.ones((2, 2)), np.ones((3, 3))),
    ),
    "empty curve compared": (
        errors.EmptyInput, "empty curves", lambda _: rms_error(ComCurve([], np.zeros((0, 2))), ComCurve([0.0], np.zeros((1, 2)))),
    ),
    "negative body length": (errors.InvalidParameter, "body length", lambda _: curve_from_curvature([0.0, 0.0], -1.0)),
    "zero velocity": (errors.InvalidParameter, "velocity", lambda _: cost_of_transport(1.0, 1.0, 9.81, 0.0)),
    "zero cycle duration": (
        errors.InvalidParameter, "duration", lambda _: simulated_power_proxy(integrate_motion_trajectory([SEGMENT] * 2, PARAMS), 0.0),
    ),
    "negative displacement": (
        errors.InvalidParameter, "positive displacements", lambda _: performance_ratios(ClassDisplacements("Exp", [0.2, -0.1])),
    ),
    "seed angle not finite": (
        errors.NoConvergence, "seed angle nan", lambda _: position_step(SEGMENT, SEGMENT, PARAMS, guess=RigidMotion(np.nan)),
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_raises_its_class(fault, tmp_path):
    cls, message, call = FAULTS[fault]
    assert getattr(snakesim, cls.__name__) is cls
    with pytest.raises(cls, match=message) as info:
        call(tmp_path)
    assert type(info.value) is cls


# an alias is the same class object as its target, so the ten-class count below cannot see a leftover one
REMOVED_ALIASES = [
    "DegenerateJacobian", "DimensionMismatch", "EmptyCurve", "InconsistentMarkerCount", "InvalidLength",
    "InvalidWeight", "NonPositiveDisplacement", "NonPositiveDuration", "NonPositiveInput",
]


@pytest.mark.parametrize("name", REMOVED_ALIASES)
def test_removed_alias_is_not_exported(name):
    assert not hasattr(errors, name) and not hasattr(snakesim, name)
    with pytest.raises(ImportError):
        exec(f"from snakesim.errors import {name}", {})


def test_ten_classes_all_snakesim_errors():
    classes = {value for value in vars(errors).values() if isinstance(value, type) and issubclass(value, Exception)}
    assert len(classes) == 10
    assert all(issubclass(cls, errors.SnakesimError) for cls in classes)
    # a bad scalar setting is still a ValueError to callers that catch that
    assert issubclass(errors.InvalidParameter, ValueError)


# every count input of the API: its name in the message, its minimum, and a call that passes it a value
FRAMES = np.zeros((3, 2, 2)) + [[0.0, 0.0], [0.3, 0.0]]
COUNTS = {
    "timesteps": (2, lambda n, _: SimConfig(timesteps=n)),
    "edges": (2, lambda n, _: SimConfig(edges=n)),
    "cycles": (1, lambda n, _: SimConfig(cycles=n)),
    "num_vertices": (1, lambda n, _: DissipationParams.uniform(1.38, n, 0.5)),
    "max_evaluations": (
        1,
        lambda n, _: optimize_gait(random_gait(0), DEFAULT_BOUNDS, ObjectiveConfig(DissipationParams.uniform(1.38, 12, 0.5)), n),
    ),
    "seed": (0, lambda n, _: random_gait(n)),
    "stride": (1, lambda n, path: plot_trajectory(path / "t.svg", FRAMES, stride=n)),
    "jobs": (1, lambda n, _: RunConfig(**{**{key: default for key, (_, default, _) in _SETTINGS.items()}, "jobs": n})),
}


@pytest.mark.parametrize("bad", [2.5, 2.0, np.nan, np.inf, "3", "below"])
@pytest.mark.parametrize("name", sorted(COUNTS))
def test_count_inputs_accept_only_integers_at_their_minimum(name, bad, tmp_path):
    minimum, call = COUNTS[name]
    value = minimum - 1 if bad == "below" else bad
    with pytest.raises(errors.InvalidParameter, match=name):
        call(value, tmp_path)
    call(np.int64(minimum), tmp_path)


@pytest.mark.parametrize("name", ["timesteps", "edges", "cycles"])
def test_simulation_counts_refuse_none(name):
    # None means "not given" to the discretization check of a gait file's extras, never to a SimConfig
    with pytest.raises(errors.InvalidParameter, match=name):
        SimConfig(**{name: None})


# every real-valued scalar input: a call that passes it a value, a valid value, the class it raises and its name in the message
REALS = {
    "SimConfig body_length": (lambda x: SimConfig(body_length=x), 0.92, errors.InvalidParameter, "body length"),
    "vertices_from_curvature body_length": (lambda x: vertices_from_curvature([0.0, 1.0], x), 0.92, errors.InvalidParameter, "body length"),
    "DissipationParams epsilon": (lambda x: DissipationParams([1.0, 1.0], x), 0.5, errors.InvalidAnisotropy, "epsilon"),
    "DissipationParams.uniform total_mass": (lambda x: DissipationParams.uniform(x, 3, 0.5), 1.38, errors.NonPositiveWeight, "total mass"),
    "ObjectiveConfig dissipation_coefficient": (
        lambda x: ObjectiveConfig(DissipationParams.uniform(1.38, 12, 0.5), dissipation_coefficient=x),
        1.0, errors.InvalidParameter, "dissipation coefficient",
    ),
    "cost_of_transport mass": (lambda x: cost_of_transport(1.0, x, 9.81, 0.1), 1.0, errors.InvalidParameter, "mass"),
    "GaitBounds lower end": (lambda x: GaitBounds(a=(x, 8.0)), 0.5, errors.InvalidParameter, "a bound"),
    "GaitBounds upper end": (lambda x: GaitBounds(xi=(0.5, x)), 2.0, errors.InvalidParameter, "xi bound"),
    "simulated_power_proxy duration": (
        lambda x: simulated_power_proxy(integrate_motion_trajectory([SEGMENT] * 2, PARAMS), x), 5.0, errors.InvalidParameter, "duration",
    ),
}


@pytest.mark.parametrize("bad", ["0.5", None, True, np.array(0.5)])
@pytest.mark.parametrize("name", sorted(REALS))
def test_real_inputs_reject_what_is_not_a_real_number(name, bad):
    call, valid, error, message = REALS[name]
    with pytest.raises(error, match=message) as info:
        call(bad)
    assert type(info.value) is error
    call(np.float64(valid))


@pytest.mark.parametrize("bad", ["1.2", True, np.array(1.2)])
def test_pinned_frequency_must_be_a_real_number(bad):
    # None means "not pinned", so it is the one value here that is not a real number and is accepted
    params = DissipationParams.uniform(1.38, 12, 0.5)
    with pytest.raises(errors.InvalidParameter, match="fixed xi") as info:
        ObjectiveConfig(params, fixed_xi=bad)
    assert type(info.value) is errors.InvalidParameter
    assert ObjectiveConfig(params, fixed_xi=None).fixed_xi is None
    assert ObjectiveConfig(params, fixed_xi=np.float64(1.2)).fixed_xi == 1.2


@pytest.mark.parametrize("bad", [(0.2,), (0.2, 0.5, 1.0), 0.2, None, "ab"])
def test_gait_bounds_must_be_pairs_of_real_numbers(bad):
    with pytest.raises(errors.InvalidParameter, match="sigma") as info:
        GaitBounds(sigma=bad)
    assert type(info.value) is errors.InvalidParameter
