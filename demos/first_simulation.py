"""Simulate one gait cycle and write the trajectory, energies, and a figure.

The body starts at the origin, plays one cycle of the reference elliptical
gait against a frictional ground with anisotropy ratio 0.1865, and the
center of mass drifts roughly a quarter body length per cycle.
"""

import argparse
from pathlib import Path

import numpy as np

from snakesim.dynamics import DissipationParams, total_energy, write_step_energies_csv, write_trajectory_csv
from snakesim.optimize import SimConfig, simulate_gait
from snakesim.shapespace import GaitEllipse
from snakesim.svgplot import plot_trajectory


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="work/demos/first_simulation")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    gait = GaitEllipse(sigma=1.0, xc=0.0, yc=0.0, theta=0.0, a=3.0, xi=1.0)
    sim = SimConfig()  # 50 timesteps, 11 edges, 0.92 m body, one cycle
    params = DissipationParams.uniform(1.38, sim.num_vertices, 0.1865)

    traj = simulate_gait(gait, sim, params)

    print(f"simulated {len(traj.vertices)} frames ({sim.timesteps} steps)")
    print(f"net CoM displacement: {traj.net_displacement:.6f} m "
          f"({traj.net_displacement / sim.body_length:.4f} body lengths)")
    print(f"energy dissipated:    {total_energy(traj):.6e}")
    print(f"largest single-step energy: {np.max(traj.step_energies):.3e}")

    write_trajectory_csv(out / "trajectory.csv", traj)
    write_step_energies_csv(out / "energies.csv", traj.step_energies)
    plot_trajectory(out / "trajectory.svg", traj.vertices, com_path=traj.com_path(),
                    title="one gait cycle", stride=5)
    print(f"wrote {out}/trajectory.csv, energies.csv, trajectory.svg")


if __name__ == "__main__":
    main()
