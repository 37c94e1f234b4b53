import numpy as np
import pytest

import snakesim
from snakesim import errors
from snakesim.analysis import ClassDisplacements, cost_of_transport, performance_ratios, ratio_quotients
from snakesim.analysis import simulated_power_proxy
from snakesim.calibration import ComCurve, MocapTrajectory, extract_shapes, fit_anisotropy, rms_error
from snakesim.cli import _SETTINGS, RunConfig
from snakesim.dynamics import DissipationParams, integrate_motion_trajectory, position_step
from snakesim.geometry import PositionedShape, RigidMotion, curve_from_curvature, vertices_from_curvature
from snakesim.optimize import DEFAULT_BOUNDS, ObjectiveConfig, SimConfig, optimize_gait, random_gait
from snakesim.svgplot import plot_trajectory

SEGMENT = PositionedShape.from_vertices([[0.0, 0.0], [0.3, 0.0]])
PARAMS = DissipationParams.uniform(1.0, 2, 0.5)

# old name -> (the class it names now, a call that makes the fault the old name was raised for)
FAULTS = {
    "InvalidWeight": ("NonPositiveWeight", lambda: DissipationParams([1.0, -1.0], 0.5)),
    "DimensionMismatch": ("ShapeMismatch", lambda: ratio_quotients(np.ones((2, 2)), np.ones((3, 3)))),
    "InconsistentMarkerCount": ("ShapeMismatch", lambda: MocapTrajectory([0.0, 1.0], np.zeros((3, 2, 2)))),
    "EmptyCurve": ("EmptyInput", lambda: rms_error(ComCurve([], np.zeros((0, 2))), ComCurve([0.0], np.zeros((1, 2))))),
    "InvalidLength": ("InvalidParameter", lambda: curve_from_curvature([0.0, 0.0], -1.0)),
    "NonPositiveInput": ("InvalidParameter", lambda: cost_of_transport(1.0, 1.0, 9.81, 0.0)),
    "NonPositiveDuration": (
        "InvalidParameter",
        lambda: simulated_power_proxy(integrate_motion_trajectory([SEGMENT] * 2, PARAMS), 0.0),
    ),
    "NonPositiveDisplacement": ("InvalidParameter", lambda: performance_ratios(ClassDisplacements("Exp", [0.2, -0.1]))),
    "DegenerateJacobian": ("NoConvergence", lambda: position_step(SEGMENT, SEGMENT, PARAMS, guess=RigidMotion(np.nan))),
}


@pytest.mark.parametrize("old", sorted(FAULTS))
def test_old_name_imports_and_is_the_class_raised_for_its_fault(old):
    new, fault = FAULTS[old]
    cls = getattr(errors, new)
    assert getattr(errors, old) is cls and getattr(snakesim, old) is cls and getattr(snakesim, new) is cls
    with pytest.raises(cls) as info:
        fault()
    assert type(info.value) is cls


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
    "target_steps": (1, lambda n, _: extract_shapes(MocapTrajectory(np.arange(3.0), FRAMES), n)),
    "stride": (1, lambda n, path: plot_trajectory(path / "t.svg", FRAMES, stride=n)),
    "jobs": (1, lambda n, _: RunConfig(**{**{key: default for key, (_, default, _) in _SETTINGS.items()}, "jobs": n})),
    "max_iterations": (0, lambda n, _: position_step(SEGMENT, SEGMENT, PARAMS, max_iterations=n)),
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
MOCAP = MocapTrajectory(np.arange(3.0), FRAMES)
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
    "simulated_power_proxy duration": (
        lambda x: simulated_power_proxy(integrate_motion_trajectory([SEGMENT] * 2, PARAMS), x), 5.0, errors.InvalidParameter, "duration",
    ),
    "fit_anisotropy lower bound": (lambda x: fit_anisotropy(MOCAP, [1.0, 1.0], bounds=(x, 1.0)), 0.01, errors.InvalidAnisotropy, "lower bound"),
    "fit_anisotropy upper bound": (lambda x: fit_anisotropy(MOCAP, [1.0, 1.0], bounds=(0.01, x)), 1.0, errors.InvalidAnisotropy, "upper bound"),
}


@pytest.mark.parametrize("bad", ["0.5", None, True, np.array(0.5)])
@pytest.mark.parametrize("name", sorted(REALS))
def test_real_inputs_reject_what_is_not_a_real_number(name, bad):
    call, valid, error, message = REALS[name]
    with pytest.raises(error, match=message) as info:
        call(bad)
    assert type(info.value) is error
    call(np.float64(valid))
