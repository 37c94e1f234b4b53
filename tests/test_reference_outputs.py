"""The committed `first_simulation` demo outputs, recomputed in process.

The demo plays one cycle of the reference gait under the default SimConfig
with anisotropy ratio 0.1865; its trajectory and step energies are kept in
demo_output/ as reference files.  The test only reads them.
"""

from pathlib import Path

import numpy as np

from snakesim.dynamics import DissipationParams, read_step_energies_csv, read_trajectory_csv
from snakesim.optimize import SimConfig, simulate_gait
from snakesim.shapespace import GaitEllipse

REFERENCE = Path(__file__).resolve().parent.parent / "demo_output" / "first_simulation"


def test_first_simulation_matches_committed_outputs():
    sim = SimConfig()
    params = DissipationParams.uniform(1.38, sim.num_vertices, 0.1865)
    gait = GaitEllipse(sigma=1.0, xc=0.0, yc=0.0, theta=0.0, a=3.0, xi=1.0)
    traj = simulate_gait(gait, sim, params)

    shapes = read_trajectory_csv(REFERENCE / "trajectory.csv")
    assert len(shapes) == len(traj.shapes)
    gap = max(np.max(np.abs(ours.vertices - ref.vertices)) for ours, ref in zip(traj.shapes, shapes))
    assert gap <= 1e-12

    energies = read_step_energies_csv(REFERENCE / "energies.csv")
    assert energies.shape == traj.step_energies.shape
    assert np.max(np.abs(traj.step_energies - energies) / np.abs(energies)) <= 1e-12
