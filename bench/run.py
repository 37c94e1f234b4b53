"""snakesim benchmark: run one workload for a fixed time and print one JSON result line.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; it imports snakesim from ./src and
nothing else.  One caller drives the public API (or `snakesim.cli.main` in
process) in a closed loop: each operation starts when the previous one has
returned, and whole rounds of operations run until `--seconds` have passed.
Every operation's output is checked by bench/checks.py outside the timed
region.  With `--trace 1` each round runs twice, once plain and once with
spans recorded around the layers' public functions; the run then reports the
per-layer metrics instead of the end-to-end ones, writes the spans to
bench/out/trace-<workload>-seed<seed>.jsonl, and reports the tracing
overhead as the traced minus the plain time of the same rounds.
"""

import time

START = time.perf_counter()  # set-up is timed from here, before numpy and snakesim load

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("sweep", "search", "calibrate", "long-run")

# per-layer metrics: counts and self times are per operation of the workload
LAYER_METRICS = {
    "dynamics.position_step.calls": "count",
    "dynamics.position_step.self_s": "s",
    "dynamics.position_step.calls_per_frame": "1",
    "dynamics.newton_iterations_per_step": "1",
    "dynamics.step_energy.self_s": "s",
    "dynamics.integrate_motion_trajectory.self_s": "s",
    "dynamics.write_trajectory_csv.self_s": "s",
    "dynamics.write_trajectory_csv.bytes": "B",
    "dynamics.write_step_energies_csv.self_s": "s",
    "shapespace.gait_to_shape_sequence.self_s": "s",
    "geometry.curve_from_curvature.self_s": "s",
    "geometry.tangents_from_vertices.self_s": "s",
    "optimize.simulate_gait.self_s": "s",
    "optimize.evaluate_gait.calls": "count",
    "optimize.evaluate_gait.self_s": "s",
    "optimize.optimize_gait.self_s": "s",
    "optimize.loss_drop": "1",
    "calibration.read_mocap_csv.self_s": "s",
    "calibration.extract_shapes.self_s": "s",
    "calibration.resimulate.calls_in_fit": "count",
    "calibration.resimulate.calls_in_cmd_calibrate_outside_fit": "count",
    "calibration.fits_per_resimulation": "1",
    "calibration.com_curve.self_s": "s",
    "calibration.rms_error.self_s": "s",
    "calibration.fit_anisotropy.self_s": "s",
    "svgplot.plot_trajectory.self_s": "s",
    "svgplot.plot_curves.self_s": "s",
    "cli.cmd_simulate.self_s": "s",
    "cli.cmd_calibrate.self_s": "s",
    "cli.cmd_resim.self_s": "s",
    "tracing.overhead_s": "s",
    "tracing.overhead_share": "1",
    "host.reference_loop_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="snakesim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# The host's speed drifts: identical simulations take from 0.094 s to 0.14 s
# in successive 5-second windows on a shared 2-vCPU machine, in CPU time as
# much as in wall time.  A fixed reference loop of the small numpy calls the
# solver makes is timed around every operation, for at least REFERENCE_SHARE
# of the operation's own time, and the operation's time is scaled to the host
# speed at which that loop takes REFERENCE_S.
REFERENCE_S = 0.01
REFERENCE_SHARE = 0.05


class ReferenceLoop:
    """Fixed numpy/Python work shaped like one Newton iteration of the step solver."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a, self.b = rng.uniform(-1.0, 1.0, size=(2, 12, 3))
        self.m = np.eye(3) * 3.0 + self.a[:3]
        self.times: list[float] = []

    def sample(self, seconds=0.0) -> float:
        """Mean seconds one loop takes now, over repeats lasting at least `seconds`."""
        start = time.perf_counter()
        repeats = 0
        while repeats == 0 or time.perf_counter() - start < seconds:
            for _ in range(200):
                moment = np.sum(np.cross(self.a, self.b), axis=0)
                np.linalg.solve(self.m, moment)
            repeats += 1
        mean = (time.perf_counter() - start) / repeats
        self.times.append(mean)
        return mean


class Runner:
    """Times operations, runs their checks, and keeps the tallies."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.reference = ReferenceLoop()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.primary_times: list[float] = []  # untraced, scaled to the nominal host speed
        self.primary_ops: set[int] = set()  # traced operations that succeeded
        self.ok_ops: set[int] = set()
        self.op_index = 0

    def run_round(self, ops, traced=False):
        """Run one round; returns its total timed wall time."""
        total = 0.0
        before = self.reference.sample()
        for op in ops:
            self.attempted += 1
            self.op_index += 1
            if traced:
                self.tracer.op = self.op_index
                self.tracer.enabled = True
            start = time.perf_counter()
            try:
                result = op.run()
                error = None
            except Exception:  # an operation that raises counts as failed; the run goes on
                error = traceback.format_exc()
            elapsed = time.perf_counter() - start
            if traced:
                self.tracer.enabled = False
            after = self.reference.sample(REFERENCE_SHARE * elapsed)
            scaled = elapsed * 2.0 * REFERENCE_S / (before + after)
            before = after
            total += elapsed
            ok = False
            if error is None:
                try:
                    ok = op.check(result)
                except Exception:  # a wrong or unreadable output: the run goes on, marked incorrect
                    self.correct = False
                    print(f"check failed: {traceback.format_exc()}", file=sys.stderr)
            else:
                print(error, file=sys.stderr)
            if not ok:
                self.failed += 1
                continue
            if traced:
                self.ok_ops.add(self.op_index)
                if op.primary:
                    self.primary_ops.add(self.op_index)
            elif op.primary:
                self.primary_times.append(scaled)
        return total


def layer_metrics(tracer, runner, workload, plain_s, traced_s):
    """Per-layer numbers over the traced operations that succeeded, per primary operation."""
    n = max(len(runner.primary_ops), 1)
    ops = runner.ok_ops
    spans = tracer.self_times(ops)

    def calls(name):
        return spans[name][0] if name in spans else 0

    def self_s(name):
        return spans[name][1] if name in spans else 0.0

    values = {}
    for name, unit in LAYER_METRICS.items():
        if name.endswith(".calls"):
            values[name] = calls(name[: -len(".calls")]) / n
        elif name.endswith(".self_s"):
            values[name] = self_s(name[: -len(".self_s")]) / n
    steps = calls("dynamics.position_step")
    resims = calls("calibration.resimulate")
    in_fit = tracer.calls_under("calibration.resimulate", "calibration.fit_anisotropy", ops)
    in_cmd = tracer.calls_under("calibration.resimulate", "cli.cmd_calibrate", ops)
    drops = getattr(workload, "loss_drops", [])
    values.update({
        "dynamics.position_step.calls_per_frame": steps / max(tracer.total("frames_delivered", ops), 1),
        "dynamics.newton_iterations_per_step": tracer.total("newton_iterations", ops) / max(steps, 1),
        "dynamics.write_trajectory_csv.bytes": tracer.total("trajectory_bytes", ops) / n,
        "optimize.loss_drop": statistics.fmean(drops) if drops else 0.0,
        "calibration.resimulate.calls_in_fit": in_fit / n,
        "calibration.resimulate.calls_in_cmd_calibrate_outside_fit": (in_cmd - in_fit) / n,
        "calibration.fits_per_resimulation": calls("calibration.fit_anisotropy") / max(resims, 1),
        "tracing.overhead_s": (traced_s - plain_s) / n,
        "tracing.overhead_share": (traced_s - plain_s) / plain_s if plain_s > 0 else 0.0,
        "host.reference_loop_s": statistics.median(runner.reference.times),
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "snakesim" / "__init__.py").is_file():
        print(f"error: no snakesim package under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import snakesim
    import workloads
    from tracing import Tracer

    if Path(snakesim.__file__).resolve().parent != src / "snakesim":
        print(f"error: imported snakesim from {snakesim.__file__}, not from {src}", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, str(workdir))
        setup_s = time.perf_counter() - START

        tracer = Tracer() if args.trace else None
        if tracer is not None:
            workloads.install_spans(tracer)
        runner = Runner(tracer)
        plain_s = traced_s = 0.0
        begin = time.perf_counter()
        rounds = 0
        while time.perf_counter() - begin < args.seconds:
            if tracer is None:
                runner.run_round(workload.round(rounds))
            else:
                # alternate which pass goes first, so neither always finds warm caches
                for traced in (False, True) if rounds % 2 == 0 else (True, False):
                    elapsed = runner.run_round(workload.round(rounds), traced=traced)
                    if traced:
                        traced_s += elapsed
                    else:
                        plain_s += elapsed
            rounds += 1

        if tracer is not None:
            tracer.uninstall()
            tracer.write(str(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"))
            problem = workload.cross_check(tracer, runner.primary_ops)
            if problem:
                runner.correct = False
                print(f"cross-check failed: {problem}", file=sys.stderr)
            metrics = layer_metrics(tracer, runner, workload, plain_s, traced_s)
        else:
            if not runner.primary_times:
                print("error: no operation succeeded", file=sys.stderr)
                return 1
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
                "op_s": {"value": statistics.median(runner.primary_times), "unit": "s"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
