"""Shows that each output check of the benchmark accepts a clean output and rejects corrupted ones.

    python3 bench/selftest.py

Run from the root of a source checkout.  The clean outputs come from short
simulations (10 steps per cycle); each corruption is the smallest change of
its kind that a faulty program could make.  Prints one line per case and
exits 1 if any check accepts a corrupted output or rejects a clean one.
"""

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import checks
from snakesim import dynamics, optimize, shapespace

SIM = optimize.SimConfig(timesteps=10)
L, EDGES = SIM.body_length, SIM.edges
W = np.full(SIM.num_vertices, 1.38 / SIM.num_vertices)
GAIT = shapespace.GaitEllipse(sigma=1.0, xc=0.0, yc=0.0, theta=0.0, a=3.0, xi=1.0)


def simulate(epsilon, cycles=1):
    sim = optimize.SimConfig(timesteps=SIM.timesteps, cycles=cycles)
    traj = optimize.simulate_gait(GAIT, sim, dynamics.DissipationParams(W, epsilon))
    verts = np.stack([s.vertices[:, :2] for s in traj.shapes])
    tangs = np.stack([s.tangents[:, :2] for s in traj.shapes])
    return traj, verts, tangs


def rotate_frame(frames, index, angle):
    """Rigidly turn one frame about its centre of mass (edge lengths are kept)."""
    out = frames.copy()
    centre = W @ out[index] / W.sum()
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    out[index] = (out[index] - centre) @ rot.T + centre
    return out


def nudge(frames, index, vertex, by):
    out = frames.copy()
    out[index, vertex, 0] += by
    return out


def main():
    traj, verts, tangs = simulate(0.3)
    energies = traj.step_energies
    _, iso, _ = simulate(1.0)
    lo, hi = optimize.DEFAULT_BOUNDS.as_arrays()
    inside = 0.5 * (lo + hi)
    table = np.array([[0.01, 0.3, 0.5], [0.2004, 1e-6, 0.2], [0.5, 0.2, 0.1], [1.0, 0.4, 0.0]])
    long_traj, long_frames, _ = simulate(0.3, cycles=3)
    tmp = Path(__file__).resolve().parent / "out" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    dynamics.write_trajectory_csv(tmp / "traj.csv", long_traj)
    lines = (tmp / "traj.csv").read_text().splitlines()
    n = SIM.num_vertices
    (tmp / "dropped.csv").write_text("\n".join(lines[: 1 + 5 * n] + lines[1 + 6 * n:]) + "\n")
    (tmp / "gap.csv").write_text("\n".join(lines[:2] + lines[3:]) + "\n")

    def steps(v=verts, t=tangs, e=energies):
        return lambda: checks.check_steps(v, t, e, W, 0.3, L)

    def long_run(frames):
        return lambda: checks.check_long_run(frames, W, L, EDGES, 3, SIM.timesteps)

    cases = [
        ("step residual", steps(), [
            ("one frame turned by 1e-7 rad", steps(v=rotate_frame(verts, 4, 1e-7))),
            ("one vertex nudged by 1e-8 m", steps(v=nudge(verts, 4, 3, 1e-8))),
        ]),
        ("step energy", steps(), [
            ("one energy scaled by 1 + 1e-7", steps(e=energies * np.r_[1 + 1e-7, np.ones(len(energies) - 1)])),
            ("one energy negated", steps(e=energies * np.r_[-1.0, np.ones(len(energies) - 1)])),
        ]),
        ("rigid placement", lambda: checks.check_edges(verts, L, L / EDGES), [
            ("one vertex nudged by 1e-9 m", lambda: checks.check_edges(nudge(verts, 7, 5, 1e-9), L, L / EDGES)),
        ]),
        ("isotropy", lambda: checks.check_isotropy(iso, W, L), [
            ("last frame shifted by 1e-8 m", lambda: checks.check_isotropy(nudge(iso, -1, slice(None), 1e-8), W, L)),
        ]),
        ("search", lambda: checks.check_search(-0.1, -0.3, -0.3, inside, lo, hi), [
            ("best loss above the seed loss", lambda: checks.check_search(-0.3, -0.1, -0.1, inside, lo, hi)),
            ("best gait outside the bounds", lambda: checks.check_search(-0.1, -0.3, -0.3, hi + 1e-9, lo, hi)),
            ("reported loss differs from the gait's", lambda: checks.check_search(-0.1, -0.3, -0.29, inside, lo, hi)),
        ]),
        ("calibration", lambda: checks.check_calibration(table, 0.2004, 0.2), [
            ("fit off by 1e-2", lambda: checks.check_calibration(table, 0.2004, 0.1904)),
            ("minimum-rms row is not the fit", lambda: checks.check_calibration(table[[0, 2, 3]], 0.2004, 0.2)),
        ]),
        ("resimulation", lambda: checks.check_resim(verts, verts.copy(), W, L), [
            ("CoM curve shifted by 1e-7 m", lambda: checks.check_resim(verts + 1e-7, verts, W, L)),
            ("one frame missing", lambda: checks.check_resim(verts[:-1], verts, W, L)),
        ]),
        ("long-run read-back", lambda: long_run(checks.read_trajectory(tmp / "traj.csv"))(), [
            ("a frame dropped from the CSV", lambda: long_run(checks.read_trajectory(tmp / "dropped.csv"))()),
            ("a vertex row missing from the CSV", lambda: long_run(checks.read_trajectory(tmp / "gap.csv"))()),
        ]),
        ("long-run composition", long_run(long_frames), [
            ("last frame turned by 1e-7 rad", long_run(rotate_frame(long_frames, -1, 1e-7))),
            ("cycle-2 frame turned by 1e-7 rad", long_run(rotate_frame(long_frames, 2 * SIM.timesteps, 1e-7))),
        ]),
    ]

    try:
        bad = sum(run_case(*case) for case in cases)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if bad else 0


def run_case(name, clean, corruptions):
    """Number of wrong verdicts among the clean output and its corruptions."""
    bad = 0
    try:
        clean()
        print(f"ok    {name}: clean output accepted")
    except checks.CheckFailed as exc:
        bad += 1
        print(f"WRONG {name}: clean output rejected ({exc})")
    for label, corrupted in corruptions:
        try:
            corrupted()
            bad += 1
            print(f"WRONG {name}: accepted {label}")
        except checks.CheckFailed as exc:
            print(f"ok    {name}: rejected {label} ({exc})")
    return bad


if __name__ == "__main__":
    sys.exit(main())
