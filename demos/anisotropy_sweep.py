"""How far one gait travels as ground friction goes from anisotropic to isotropic.

Tangential drag is epsilon times the normal drag.  Small epsilon means the
body slides easily along itself but resists sideways motion, which is what
undulation exploits; at epsilon = 1 the ground cannot tell directions apart
and the displacement collapses to zero.
"""

import argparse
from pathlib import Path

from snakesim.dynamics import DissipationParams, total_energy
from snakesim.optimize import SimConfig, simulate_gait
from snakesim.shapespace import GaitEllipse
from snakesim.svgplot import plot_curves


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epsilons", type=float, nargs="+",
                    default=[0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0])
    ap.add_argument("--out", default="work/demos/anisotropy_sweep")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    gait = GaitEllipse(sigma=1.0, xc=0.0, yc=0.0, theta=0.0, a=3.0, xi=1.0)
    sim = SimConfig()
    print(f"{'epsilon':>8} {'displacement [m]':>18} {'energy':>12}")
    displacements = []
    for eps in args.epsilons:
        params = DissipationParams.uniform(1.38, sim.num_vertices, eps)
        traj = simulate_gait(gait, sim, params)
        displacements.append(traj.net_displacement)
        print(f"{eps:8.3f} {traj.net_displacement:18.6f} {total_energy(traj):12.4e}")

    plot_curves(
        out / "sweep.svg",
        [{"x": args.epsilons, "y": displacements, "label": "net displacement", "color": "black", "width": 2.0}],
        xlabel="anisotropy ratio", ylabel="displacement [m]",
        title="displacement vs friction anisotropy",
    )
    print(f"wrote {out}/sweep.svg")


if __name__ == "__main__":
    main()
