"""Write the inputs one benchmark run builds from its seed, for inspection.

    python3 bench/inputs.py --workload calibrate --seed 3 --out inputs-calibrate-3

Run from the root of a source checkout.  The calibrate and long-run
workloads already build their inputs as files (marker CSVs, gait files);
for sweep and search the in-memory seed gaits are written as gait files
gait<k>.txt, in the order the rounds use them, and for calibrate the ratio
each recording was made with goes to true_epsilon.csv.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads
from snakesim import shapespace


def main(argv=None):
    parser = argparse.ArgumentParser(description="write a benchmark run's inputs")
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, args.out)
    for k, gait in enumerate(getattr(workload, "gaits", [])):
        sim = workloads.SIM
        shapespace.write_gait_file(os.path.join(args.out, f"gait{k}.txt"), gait, sim.timesteps, sim.edges, sim.body_length)
    if hasattr(workload, "recordings"):
        with open(os.path.join(args.out, "true_epsilon.csv"), "w") as handle:
            handle.write("file,epsilon\n")
            for path, epsilon, _ in workload.recordings:
                handle.write(f"{os.path.basename(path)},{epsilon!r}\n")
    print(f"wrote the {args.workload} inputs for seed {args.seed} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
