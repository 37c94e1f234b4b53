"""Recover a hidden friction ratio from a (synthetic) motion-capture recording.

Generates marker data by simulating with a known anisotropy ratio, optionally
corrupts it with Gaussian marker noise, then fits the ratio back by matching
center-of-mass curves.  With clean data the error is well under 1e-3.
"""

import argparse
from pathlib import Path

import numpy as np

from snakesim.calibration import MocapTrajectory, com_curve, fit_anisotropy
from snakesim.dynamics import DissipationParams
from snakesim.optimize import SimConfig, simulate_gait
from snakesim.shapespace import GaitEllipse
from snakesim.svgplot import plot_curves


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epsilon", type=float, default=0.1865, help="ground-truth ratio")
    ap.add_argument("--noise", type=float, default=0.0, help="marker noise stdev [m]")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="work/demos/calibration_roundtrip")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    sim = SimConfig()
    params = DissipationParams.uniform(1.38, sim.num_vertices, args.epsilon)
    gait = GaitEllipse(sigma=1.0, xc=0.0, yc=0.0, theta=0.0, a=3.0, xi=1.0)
    traj = simulate_gait(gait, sim, params)
    mocap = MocapTrajectory(np.linspace(0.0, 1.0, len(traj.vertices)), traj.vertices)
    if args.noise > 0:
        rng = np.random.default_rng(args.seed)
        noisy = mocap.frames + rng.normal(scale=args.noise, size=mocap.frames.shape)
        mocap = MocapTrajectory(mocap.times, noisy)

    fit = fit_anisotropy(mocap, params.weights)
    print(f"true ratio:   {args.epsilon}")
    print(f"fitted ratio: {fit.epsilon:.6f}   (error {abs(fit.epsilon - args.epsilon):.2e})")
    print(f"CoM rms at the fit: {fit.rms:.3e} m over {len(fit.evaluations)} candidates")

    # fitting curve: rms error of every candidate the search touched
    evals = sorted(fit.evaluations)
    plot_curves(
        out / "fit.svg",
        [{"x": [e[0] for e in evals], "y": [e[1] for e in evals],
          "label": "CoM rms error", "color": "black", "width": 2.0}],
        xlabel="anisotropy ratio", ylabel="rms error [m]",
        title="calibration objective",
    )

    measured = com_curve(mocap, params.weights)
    print(f"final measured displacement: {measured.final_displacement:.4f} m")
    print(f"wrote {out}/fit.svg")


if __name__ == "__main__":
    main()
