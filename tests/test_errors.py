import numpy as np
import pytest

import snakesim
from snakesim import errors
from snakesim.analysis import ClassDisplacements, cost_of_transport, performance_ratios, ratio_quotients
from snakesim.analysis import simulated_power_proxy
from snakesim.calibration import ComCurve, MocapTrajectory, rms_error
from snakesim.dynamics import DissipationParams, integrate_motion_trajectory, position_step
from snakesim.geometry import PositionedShape, RigidMotion, curve_from_curvature

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
