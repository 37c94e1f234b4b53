"""Property tests of the README invariants over random in-bounds gaits and drag ratios."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from snakesim.dynamics import DissipationParams, geometric_momentum, position_step
from snakesim.geometry import PositionedShape, RigidMotion
from snakesim.optimize import SimConfig, random_gait, simulate_gait
from snakesim.shapespace import gait_to_shape_sequence

SIM = SimConfig(timesteps=20)
BODY_LENGTH = SIM.body_length

gait_seeds = st.integers(min_value=0, max_value=2**32 - 1)
ratios = st.floats(min_value=0.05, max_value=1.0)
steps = st.integers(min_value=0, max_value=SIM.timesteps - 1)
bounded = settings(max_examples=25, deadline=None)


def step_pair(seed, step):
    cycle = gait_to_shape_sequence(random_gait(seed), SIM.timesteps, SIM.edges, BODY_LENGTH)
    return cycle[step], cycle[(step + 1) % SIM.timesteps]


def params_for(eps, mass=1.38):
    return DissipationParams.uniform(mass, SIM.num_vertices, eps)


@bounded
@given(
    seed=gait_seeds,
    eps=ratios,
    step=steps,
    angle=st.floats(min_value=-np.pi, max_value=np.pi),
    shift=st.tuples(*[st.floats(min_value=-10.0, max_value=10.0)] * 2),
)
def test_position_step_is_equivariant_under_rigid_motions(seed, eps, step, angle, shift):
    prev, nxt = step_pair(seed, step)
    params = params_for(eps)
    h = RigidMotion(angle, np.array(shift))
    base = position_step(prev, nxt, params).positioned
    moved = position_step(PositionedShape(*h.move(prev.vertices, prev.tangents)), nxt, params).positioned
    assert np.max(np.abs(moved.vertices - h.apply_points(base.vertices))) < 1e-8 * BODY_LENGTH


@bounded
@given(seed=gait_seeds, eps=ratios, step=steps, scale=st.floats(min_value=1e-3, max_value=1e3))
def test_position_step_ignores_weight_scale(seed, eps, step, scale):
    prev, nxt = step_pair(seed, step)
    base = position_step(prev, nxt, params_for(eps)).positioned
    scaled = position_step(prev, nxt, params_for(eps, mass=1.38 * scale)).positioned
    assert np.max(np.abs(scaled.vertices - base.vertices)) < 1e-10 * BODY_LENGTH


@bounded
@given(seed=gait_seeds)
def test_isotropic_drag_gives_no_displacement(seed):
    traj = simulate_gait(random_gait(seed), SIM, params_for(1.0))
    assert traj.net_displacement < 1e-9 * BODY_LENGTH


@bounded
@given(seed=gait_seeds, eps=ratios)
def test_every_step_meets_the_residual_tolerance(seed, eps):
    params = params_for(eps)
    traj = simulate_gait(random_gait(seed), SIM, params)
    for prev, nxt in zip(traj.shapes, traj.shapes[1:]):
        mu = geometric_momentum(prev, nxt, params)
        assert np.linalg.norm(mu) <= 1e-10 * params.weights.sum() * nxt.polyline_length
