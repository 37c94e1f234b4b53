"""Search gait parameters for distance, with and without an energy penalty.

Runs the derivative-free optimizer twice from the same random seed gait:
once maximizing plain displacement (c = 0) and once with the dissipated
energy charged against the objective (c = 2.5).  The penalized run settles
on a slightly shorter stride that spends noticeably less energy.
"""

import argparse
from pathlib import Path

from snakesim.dynamics import DissipationParams
from snakesim.optimize import (
    DEFAULT_BOUNDS,
    ObjectiveConfig,
    SimConfig,
    optimize_gait,
    random_gait,
    write_report_csv,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--evals", type=int, default=300)
    ap.add_argument("--coefficients", type=float, nargs="+", default=[0.0, 2.5])
    ap.add_argument("--out", default="work/demos/gait_search")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    sim = SimConfig()
    params = DissipationParams.uniform(1.38, sim.num_vertices, 0.1865)
    seed_gait = random_gait(args.seed)
    print(f"seed gait: {seed_gait}")

    for c in args.coefficients:
        cfg = ObjectiveConfig(params=params, sim=sim, dissipation_coefficient=c)
        best, history = optimize_gait(seed_gait, DEFAULT_BOUNDS, cfg, max_evaluations=args.evals)
        record = min(history, key=lambda r: r.loss)
        print(f"c={c:g}: {len(history)} evaluations")
        print(f"  best gait:    {best}")
        print(f"  displacement: {record.displacement:.4f} m   energy: {record.energy:.4e}")
        report = out / f"report_c{c:g}.csv"
        write_report_csv(report, history)
        print(f"  wrote {report}")


if __name__ == "__main__":
    main()
