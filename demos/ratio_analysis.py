"""Compare gait rankings between two friction conditions using ratio matrices.

Simulates the same five random gaits under two anisotropy ratios, treating
one condition as the measurement ("Exp") and the other as the model ("Sim").
The pairwise displacement-ratio matrices factor out units and absolute
scale; their elementwise quotient xi says how well the two conditions agree
on which gait beats which, independent of how far anything actually went.
A quotient entry near 1 means that pair of gaits keeps its relative
performance across conditions.
"""

import argparse
from pathlib import Path

import numpy as np

from snakesim.analysis import (
    ClassDisplacements,
    cost_of_transport,
    performance_ratios,
    ratio_quotients,
    simulated_power_proxy,
    trial_stats,
    write_matrix_csv,
)
from snakesim.dynamics import DissipationParams
from snakesim.optimize import SimConfig, random_gait, simulate_gait
from snakesim.svgplot import plot_heatmap

CYCLE_SECONDS = 5.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="work/demos/ratio_analysis")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    sim = SimConfig()
    gaits = [random_gait(seed) for seed in (3, 7, 11, 19, 23)]

    displacements = {}
    trajectories = {}
    for label, eps in (("Exp", 0.15), ("Sim", 0.25)):
        params = DissipationParams.uniform(1.38, sim.num_vertices, eps)
        trajs = [simulate_gait(g, sim, params) for g in gaits]
        trajectories[label] = trajs
        displacements[label] = ClassDisplacements(label, [t.net_displacement for t in trajs])
        mean, std = trial_stats(displacements[label].values)
        print(f"{label} (eps={eps}): mean displacement {mean:.4f} m, spread {std:.4f} m")

    d_exp = performance_ratios(displacements["Exp"])
    d_sim = performance_ratios(displacements["Sim"])
    xi, mean, std = ratio_quotients(d_exp, d_sim)
    print(f"ratio quotient: off-diagonal mean {mean:.4f}, std {std:.4f}")
    print(f"worst pairwise disagreement: {np.max(np.abs(xi - 1.0)):.4f}")

    labels = [f"g{k}" for k in range(len(gaits))]
    write_matrix_csv(out / "xi.csv", xi, labels)
    plot_heatmap(out / "xi.svg", xi, row_labels=labels, col_labels=labels,
                 title="cross-condition ratio quotients")

    # cost of transport from the simulated dissipation, one cycle per CYCLE_SECONDS
    print(f"\n{'gait':>6} {'CoT(Exp)':>10} {'CoT(Sim)':>10}")
    for k, gait in enumerate(gaits):
        cots = []
        for label in ("Exp", "Sim"):
            traj = trajectories[label][k]
            power = simulated_power_proxy(traj, CYCLE_SECONDS)
            velocity = traj.net_displacement / CYCLE_SECONDS
            cots.append(cost_of_transport(power, 1.38, 9.81, velocity))
        print(f"{labels[k]:>6} {cots[0]:10.4f} {cots[1]:10.4f}")

    print(f"\nwrote {out}/xi.csv, xi.svg")


if __name__ == "__main__":
    main()
