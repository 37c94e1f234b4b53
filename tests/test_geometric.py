"""Oracles from the geometric mechanics of the discrete variational principle.

The other solver tests compare one solve path with another, or check symmetries of the solve.  These check
facts that follow from the step equation itself, so a momentum that is wrong but self-consistent (one that
reads only the leaving shape's dissipation tensor, say) passes those tests and fails these:

- time reversal: the step momentum is odd under swapping the two shapes, so a gait cycle played backwards
  moves the body by the inverse of the forward cycle's net rigid motion;
- second order in T: the step dissipation is the trapezoid (D_prev + D_next) / 2, so the net motion of one
  cycle converges as 1 / T^2 in the number of timesteps.
"""

import math

import numpy as np
import pytest

from snakesim.dynamics import DissipationParams, integrate_shape_sequence
from snakesim.geometry import PositionedShape, rigid_registration
from snakesim.optimize import random_gait
from snakesim.shapespace import _cycle_stacks

EDGES, BODY_LENGTH = 11, 0.92
PARAMS = DissipationParams.uniform(1.38, EDGES + 1, 0.1865)


def net_motion(verts, tangs):
    """The rigid motion that carries the first placed frame onto the last, from a solve of the frame sequence."""
    traj = integrate_shape_sequence([PositionedShape(v, t) for v, t in zip(verts, tangs)], PARAMS)
    return rigid_registration(traj.vertices[0], traj.vertices[-1], PARAMS.weights)


def as_vector(motion):
    """(angle, x, y) of a rigid motion, the angle wrapped to [-pi, pi]."""
    return np.array([math.remainder(motion.angle, 2.0 * math.pi), *motion.translation])


def test_reversed_cycle_undoes_the_forward_one():
    for seed in range(40):
        verts, tangs = _cycle_stacks(random_gait(seed), 50, EDGES, BODY_LENGTH)
        forward, backward = net_motion(verts, tangs), net_motion(verts[::-1], tangs[::-1])
        # the angle in rad and the translation in m; the solves leave about 1e-13
        assert np.abs(as_vector(forward.compose(backward))).max() <= 1e-12, seed


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_cycle_motion_converges_at_second_order_in_timesteps(seed):
    # successive differences of the net motion at T, 2T and 4T shrink by 4 under a C / T^2 error
    motions = [as_vector(net_motion(*_cycle_stacks(random_gait(seed), timesteps, EDGES, BODY_LENGTH))) for timesteps in (50, 100, 200)]
    coarse, fine = np.linalg.norm(motions[1] - motions[0]), np.linalg.norm(motions[2] - motions[1])
    assert 1.9 <= math.log2(coarse / fine) <= 2.1
