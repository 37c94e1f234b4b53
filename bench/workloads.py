"""The benchmark's four workloads: inputs made from the seed, rounds of operations, checks.

Each workload builds its inputs in its constructor (this is the set-up that
`setup_s` times) and hands out rounds of operations.  An operation's `run`
is timed; its `check` is not, returns False when the operation failed and
raises checks.CheckFailed when it succeeded with a wrong output.  All calls go
through module attributes (`optimize.simulate_gait`, `cli.main`, ...), so the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import checks
from snakesim import calibration, cli, dynamics, geometry, optimize, shapespace, svgplot

SIM = optimize.SimConfig()  # 50 timesteps, 11 edges, 0.92 m: the CLI defaults
MASS = 1.38
WEIGHTS = np.full(SIM.num_vertices, MASS / SIM.num_vertices)


@dataclass
class Op:
    primary: bool  # counted in op_s and ops_per_s
    run: Callable[[], object]
    check: Callable[[object], bool]


def _params(epsilon):
    return dynamics.DissipationParams(WEIGHTS, epsilon)


def _arrays(traj):
    verts = np.stack([s.vertices[:, :2] for s in traj.shapes])
    tangs = np.stack([s.tangents[:, :2] for s in traj.shapes])
    return verts, tangs


def _gaits(rng, count):
    return [optimize.random_gait(int(seed)) for seed in rng.integers(0, 2**31, size=count)]


def _cli(argv):
    """snakesim.cli.main in process, its console output swallowed; returns the exit code."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    return code, sink.getvalue()


def _check_trajectory(traj, epsilon):
    verts, tangs = _arrays(traj)
    checks.check_steps(verts, tangs, traj.step_energies, WEIGHTS, epsilon, SIM.body_length)
    checks.check_edges(verts, SIM.body_length, SIM.body_length / SIM.edges)
    return verts


class _Workload:
    def cross_check(self, tracer, primary_ops):
        """What is wrong with the traced counts of the primary operations, or None."""
        return None


class Sweep(_Workload):
    """One-cycle forward simulations of random in-bounds gaits over a grid of drag ratios."""

    RATIOS = (0.05, 0.1865, 0.5, 1.0)
    POOL = 256

    def __init__(self, rng, workdir):
        self.gaits = _gaits(rng, self.POOL)

    def round(self, i):
        gait = self.gaits[i % self.POOL]
        return [Op(True, lambda e=eps: optimize.simulate_gait(gait, SIM, _params(e)),
                   lambda traj, e=eps: self._check(traj, e))
                for eps in self.RATIOS]

    @staticmethod
    def _check(traj, epsilon):
        verts = _check_trajectory(traj, epsilon)
        if epsilon == 1.0:
            checks.check_isotropy(verts, WEIGHTS, SIM.body_length)
        return True

    def cross_check(self, tracer, primary_ops):
        steps = tracer.self_times(primary_ops)["dynamics.position_step"][0]
        expected = len(primary_ops) * SIM.cycles * SIM.timesteps
        if steps != expected:
            return f"{steps} position_step calls, expected cycles x timesteps per simulation = {expected}"
        return None


class Search(_Workload):
    """optimize_gait from random seed gaits at a fixed evaluation budget, c = 0 and c = 2.5."""

    COEFFICIENTS = (0.0, 2.5)
    BUDGET = 20
    POOL = 64

    def __init__(self, rng, workdir):
        self.gaits = _gaits(rng, self.POOL)
        self.loss_drops: list[float] = []

    def round(self, i):
        ops = []
        for j, c in enumerate(self.COEFFICIENTS):
            gait = self.gaits[(len(self.COEFFICIENTS) * i + j) % self.POOL]
            cfg = optimize.ObjectiveConfig(_params(0.1865), SIM, c)
            ops.append(Op(True,
                          lambda g=gait, k=cfg: optimize.optimize_gait(g, optimize.DEFAULT_BOUNDS, k,
                                                                     max_evaluations=self.BUDGET),
                          lambda result, g=gait, c=c: self._check(g, c, result)))
        return ops

    def _own_loss(self, gait, c):
        traj = optimize.simulate_gait(gait, SIM, _params(0.1865))
        _check_trajectory(traj, 0.1865)
        verts, tangs = _arrays(traj)
        path = checks.com(verts, WEIGHTS)
        energy = sum(checks.step_energy(WEIGHTS, 0.1865, p, s, q, u)
                     for p, s, q, u in zip(verts, tangs, verts[1:], tangs[1:]))
        return -float(np.linalg.norm(path[-1] - path[0])) + c * energy

    def _check(self, seed_gait, c, result):
        best, history = result
        lo, hi = optimize.DEFAULT_BOUNDS.as_arrays()
        vector = np.array([getattr(best, name) for name in shapespace.GAIT_KEYS])
        seed_loss = self._own_loss(seed_gait, c)
        own_best = self._own_loss(best, c)
        best_loss = min(rec.loss for rec in history)
        checks.check_search(seed_loss, best_loss, own_best, vector, lo, hi)
        self.loss_drops.append(seed_loss - own_best)
        return True


class Calibrate(_Workload):
    """`snakesim calibrate`, then `snakesim resim`, on synthetic non-periodic marker recordings."""

    FRAMES = 61
    TIMESTEPS = 50  # frames per undulation period of the recorded motion
    POOL = 12

    def __init__(self, rng, workdir):
        self.workdir = workdir
        self.recordings = [self._record(rng, k) for k in range(self.POOL)]

    def _record(self, rng, k):
        """Integrate a gait whose amplitude ramps over the recording at a known ratio, then move it rigidly.

        The ellipse is centred (xc = yc = 0), so the body travels rather than
        turns: fit_anisotropy bisects on the final displacement, which is
        monotone in the ratio only for such gaits (CHANGES.md, FOUND line).
        """
        gait = shapespace.GaitEllipse(sigma=rng.uniform(0.5, 1.0), xc=0.0, yc=0.0,
                                      theta=rng.uniform(0.0, np.pi), a=rng.uniform(2.0, 4.0),
                                      xi=rng.uniform(0.8, 1.2))
        epsilon = float(rng.uniform(0.05, 0.9))
        stations = np.arange(SIM.edges) / SIM.edges
        shapes = []
        for j in range(self.FRAMES):
            ramped = replace(gait, a=gait.a * (0.75 + 0.5 * j / (self.FRAMES - 1)))
            point = shapespace.sample_gait(ramped, j / self.TIMESTEPS)
            kappa = shapespace.serpenoid_curvature(point, gait.xi, stations)
            shapes.append(geometry.curve_from_curvature(kappa, SIM.body_length))
        traj = dynamics.integrate_motion_trajectory(shapes, _params(epsilon))
        angle = rng.uniform(-np.pi, np.pi)
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        frames = _arrays(traj)[0] @ rot.T + rng.normal(scale=1.0, size=2)
        path = os.path.join(self.workdir, f"mocap{k}.csv")
        times = 0.02 * np.arange(self.FRAMES)
        calibration.write_mocap_csv(path, calibration.MocapTrajectory(times, frames))
        return path, epsilon, frames

    def round(self, i):
        path, epsilon, frames = self.recordings[i % self.POOL]
        out = os.path.join(self.workdir, f"out{i % self.POOL}")
        return [
            Op(True, lambda: _cli(["calibrate", path, "--out", out]),
               lambda result: self._check_calibrate(result, out, epsilon)),
            Op(False, lambda: _cli(["resim", path, "--epsilon", repr(epsilon), "--out", out]),
               lambda result: self._check_resim(result, out, frames)),
        ]

    @staticmethod
    def _check_calibrate(result, out, epsilon):
        code, text = result
        if code != 0:
            return False
        fitted = float(text.split("fitted epsilon = ", 1)[1].split()[0])
        rows = checks.read_table(os.path.join(out, "calibration.csv"), "epsilon,rms,final_displacement")
        checks.check_calibration(rows, fitted, epsilon)
        return True

    @staticmethod
    def _check_resim(result, out, frames):
        code, _ = result
        if code != 0:
            return False
        resim = checks.read_trajectory(os.path.join(out, "resim_trajectory.csv"))
        checks.check_resim(resim, frames, WEIGHTS, SIM.body_length)
        return True


class LongRun(_Workload):
    """`snakesim simulate` of one gait for many cycles, writing the trajectory, energies and SVG.

    Every round also simulates a gait file with xc = nan: the correct answer
    is exit code 2 (bad input), so each round holds one operation that fails
    for as long as the program accepts it and writes a NaN trajectory.
    """

    CYCLES = 12
    POOL = 32

    def __init__(self, rng, workdir):
        self.workdir = workdir
        self.gait_files = []
        for k, gait in enumerate(_gaits(rng, self.POOL)):
            path = os.path.join(workdir, f"gait{k}.txt")
            shapespace.write_gait_file(path, gait, SIM.timesteps, SIM.edges, SIM.body_length)
            self.gait_files.append(path)
        self.nan_file = os.path.join(workdir, "gait_nan.txt")
        with open(self.nan_file, "w") as handle:
            handle.write("sigma = 1.0\nxc = nan\nyc = 0.0\ntheta = 0.0\na = 3.0\nxi = 1.0\n")

    def round(self, i):
        out = os.path.join(self.workdir, f"out{i % self.POOL}")
        nan_out = os.path.join(self.workdir, "out_nan")
        return [
            Op(True, lambda: _cli(["simulate", self.gait_files[i % self.POOL],
                                   "--cycles", str(self.CYCLES), "--out", out]),
               lambda result: self._check(result, out)),
            Op(False, lambda: _cli(["simulate", self.nan_file, "--out", nan_out]),
               lambda result: result[0] == 2),
        ]

    def _check(self, result, out):
        if result[0] != 0:
            return False
        frames = checks.read_trajectory(os.path.join(out, "trajectory.csv"))
        checks.check_long_run(frames, WEIGHTS, SIM.body_length, SIM.edges, self.CYCLES, SIM.timesteps)
        energies = checks.read_table(os.path.join(out, "energies.csv"), "t,energy")
        if len(energies) != self.CYCLES * SIM.timesteps or not np.all(energies[:, 1] >= 0):
            raise checks.CheckFailed(f"energies.csv has {len(energies)} rows or a negative energy")
        if os.path.getsize(os.path.join(out, "trajectory.svg")) == 0:
            raise checks.CheckFailed("trajectory.svg is empty")
        return True

    def cross_check(self, tracer, primary_ops):
        written = [frames for op, frames in tracer.frames if op in primary_ops]
        expected = self.CYCLES * SIM.timesteps + 1
        if len(written) != len(primary_ops) or any(frames != expected for frames in written):
            return f"trajectory frames written {sorted(set(written))}, expected cycles*T+1 = {expected}"
        return None


WORKLOADS = {"sweep": Sweep, "search": Search, "calibrate": Calibrate, "long-run": LongRun}


def make(name, seed, workdir):
    """Build a workload's inputs from the seed; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](rng, workdir)


def install_spans(tracer):
    """Wrap the public functions each layer exposes, in the module that calls them."""

    def iterations(result, args):
        tracer.count("newton_iterations", result.iterations)
        tracer.count(f"steps_with_{result.iterations}_newton_iterations")

    def delivered(result, args):
        tracer.count("frames_delivered", len(result.shapes) - 1)

    def written(result, args):
        tracer.count("trajectory_bytes", os.path.getsize(args[0]))
        tracer.frames.append((tracer.op, len(args[1].shapes)))

    targets = [
        (optimize, "gait_to_shape_sequence", "shapespace.gait_to_shape_sequence", None),
        (shapespace, "curve_from_curvature", "geometry.curve_from_curvature", None),
        (calibration, "tangents_from_vertices", "geometry.tangents_from_vertices", None),
        (dynamics, "position_step", "dynamics.position_step", iterations),
        (dynamics, "step_energy", "dynamics.step_energy", None),
        (optimize, "integrate_motion_trajectory", "dynamics.integrate_motion_trajectory", None),
        (calibration, "integrate_motion_trajectory", "dynamics.integrate_motion_trajectory", None),
        (cli, "write_trajectory_csv", "dynamics.write_trajectory_csv", written),
        (cli, "write_step_energies_csv", "dynamics.write_step_energies_csv", None),
        (optimize, "simulate_gait", "optimize.simulate_gait", delivered),
        (cli, "simulate_gait", "optimize.simulate_gait", delivered),
        (optimize, "evaluate_gait", "optimize.evaluate_gait", None),
        (optimize, "optimize_gait", "optimize.optimize_gait", None),
        (svgplot, "plot_trajectory", "svgplot.plot_trajectory", None),
        (svgplot, "plot_curves", "svgplot.plot_curves", None),
    ]
    for name in ("read_mocap_csv", "extract_shapes", "resimulate", "com_curve", "rms_error", "fit_anisotropy"):
        targets.append((calibration, name, f"calibration.{name}", delivered if name == "resimulate" else None))
    for name in ("cmd_simulate", "cmd_calibrate", "cmd_resim"):
        targets.append((cli, name, f"cli.{name}", None))
    for owner, attr, name, after in targets:
        tracer.wrap(owner, attr, name, after)
