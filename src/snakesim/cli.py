"""Command-line front end.

One binary, six subcommands:

  simulate     integrate a gait file into a positioned trajectory
  optimize     improve a gait against the displacement/energy objective
  calibrate    fit the anisotropy ratio to a marker recording
  resim        re-integrate the shapes executed in a marker recording
  analyze      cross-class ratio matrices, statistics, transport cost
  gait-sample  draw a random gait within the default bounds

Each setting (`_SETTINGS`) comes from its built-in default, overridden by a
gait file's discretization (simulate), by an optional flat key=value config
file (--config, which may give any setting), and by an explicit flag; a
subcommand offers the flags of the settings it reads.  Exit codes: 0 all
requested outputs written, 2 bad input or arguments, 3 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import analysis, calibration, svgplot
from .dynamics import (
    DissipationParams,
    write_step_energies_csv,
    write_trajectory_csv,
)
from .errors import InvalidParameter, NoConvergence, SnakesimError, _check_count
from .optimize import (
    DEFAULT_BOUNDS,
    DISSIPATION_COEFFICIENT_GRID,
    MAX_EVALUATIONS,
    ObjectiveConfig,
    SimConfig,
    optimize_gait,
    random_gait,
    simulate_gait,
    write_report_csv,
)
from .shapespace import read_gait_file, write_gait_file
from .tables import read_csv, read_key_values, write_csv

# every setting: its type, its default and its flag's help.  A subcommand offers the flags of the
# settings it reads; a --config file may give any of them, so one file can serve several subcommands.
_SETTINGS = {
    "epsilon": (float, 0.1865, "anisotropy ratio in (0, 1]"),
    "cycles": (int, 1, "gait cycles to integrate"),
    "timesteps": (int, 50, "timesteps per cycle"),
    "edges": (int, 11, "body segments (vertices - 1)"),
    "body_length": (float, 0.92, "body length in meters"),
    "mass": (float, 1.38, "total mass in kg"),
    "weights": (str, None, "per-vertex weight file, one kg per line"),
    "seed": (int, 0, "RNG seed for stochastic paths"),
    "c": (float, 0.0, "energy penalty coefficient (>= 0)"),
    "fixed_xi": (float, None, "pin the spatial frequency"),
    "jobs": (int, 1, "parallel workers for sweeps"),
    "out": (str, ".", "output directory (default: current)"),
}


class RunConfig(SimpleNamespace):
    """Merged settings for one invocation: one attribute per `_SETTINGS` key, `weights` read into an array."""

    def __init__(self, **settings):
        super().__init__(**settings)
        _check_count("jobs", self.jobs, 1)
        # the objects handed out check the rest; mass is checked even where weights replace it
        self.sim_config()
        DissipationParams.uniform(self.mass, self.num_vertices, self.epsilon)

    @property
    def num_vertices(self) -> int:
        return self.edges + 1

    def point_weights(self, count: int) -> np.ndarray:
        """The weights file's, else `count` equal shares of the mass."""
        return np.full(count, self.mass / count) if self.weights is None else self.weights

    def dissipation_params(self) -> DissipationParams:
        return DissipationParams(self.point_weights(self.num_vertices), self.epsilon)

    def sim_config(self) -> SimConfig:
        return SimConfig(self.timesteps, self.edges, self.body_length, self.cycles)


def build_config(args, gait_meta: dict | None = None) -> RunConfig:
    """defaults < gait-file metadata < config file < explicit flags."""
    merged = {key: default for key, (_, default, _) in _SETTINGS.items()}
    if gait_meta:
        for key in ("timesteps", "edges", "body_length"):
            if gait_meta.get(key) is not None:
                merged[key] = gait_meta[key]
    if args.config:
        merged.update(read_key_values(args.config, {key: kind for key, (kind, _, _) in _SETTINGS.items()}))
    for key in _SETTINGS:
        flag = getattr(args, key, None)  # None where the subcommand has no such flag or it was not given
        if flag is not None:
            merged[key] = flag
    if merged["weights"] is not None:
        merged["weights"] = calibration.read_weights_file(merged["weights"])
    return RunConfig(**merged)


def _out_path(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


def _emit(path, writer, *payload):
    writer(path, *payload)
    print(f"wrote {path}")


# -- subcommands ----------------------------------------------------------------


def cmd_simulate(args) -> int:
    gait, meta = read_gait_file(args.gait_file)
    cfg = build_config(args, gait_meta=meta)
    traj = simulate_gait(gait, cfg.sim_config(), cfg.dissipation_params())
    displacement = traj.net_displacement
    print(
        f"net displacement: {displacement:.9f} m "
        f"({displacement / cfg.body_length:.9f} body lengths) over {cfg.cycles} cycle(s)"
    )
    print(f"total energy: {np.sum(traj.step_energies):.9g}")
    _emit(_out_path(cfg, "trajectory.csv"), write_trajectory_csv, traj)
    _emit(_out_path(cfg, "energies.csv"), write_step_energies_csv, traj.step_energies)
    com = traj.com_path()
    _emit(
        _out_path(cfg, "trajectory.svg"),
        lambda path: svgplot.plot_trajectory(path, traj.vertices, com_path=com, title="body and CoM path"),
    )
    return 0


def _objective_config(cfg: RunConfig, c: float) -> ObjectiveConfig:
    return ObjectiveConfig(cfg.dissipation_params(), cfg.sim_config(), c, cfg.fixed_xi)


def _sweep_worker(task):
    gait, obj, max_evals = task
    best, history = optimize_gait(gait, DEFAULT_BOUNDS, obj, max_evaluations=max_evals)
    # the record optimize_gait picked `best` from already holds its scores
    record = min(history, key=lambda r: r.loss)
    return obj.dissipation_coefficient, best, record.displacement, record.energy


def cmd_optimize(args) -> int:
    # a flag that this run would ignore is refused; the same values in a --config file serve other runs
    if args.c_sweep and args.c is not None:
        raise InvalidParameter("--c has no effect with --c-sweep, which optimizes at each c of DISSIPATION_COEFFICIENT_GRID")
    if not args.c_sweep and args.jobs is not None:
        raise InvalidParameter("--jobs applies only to --c-sweep")
    if args.gait_file and args.seed is not None:
        raise InvalidParameter("--seed draws the seed gait, which the gait file already gives")
    cfg = build_config(args)
    obj = _objective_config(cfg, cfg.c)  # checks c in every mode
    if args.gait_file:
        seed_gait, _ = read_gait_file(args.gait_file)
    else:
        seed_gait = random_gait(cfg.seed, DEFAULT_BOUNDS)

    if args.c_sweep:
        tasks = [(seed_gait, _objective_config(cfg, c), args.max_evals) for c in DISSIPATION_COEFFICIENT_GRID]
        if cfg.jobs > 1:
            # imported here: the pool brings in multiprocessing, which only this branch uses
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
                results = list(pool.map(_sweep_worker, tasks))
        else:
            results = [_sweep_worker(t) for t in tasks]
        for c, best, displacement, energy in results:
            _emit(_out_path(cfg, f"gait_c{c:g}.txt"), write_gait_file, best,
                  cfg.timesteps, cfg.edges, cfg.body_length)
            print(f"c={c:g}: displacement={displacement:.6f} m, energy={energy:.6g}")
        rows = [(c, displacement, energy) for c, _, displacement, energy in results]
        _emit(_out_path(cfg, "c_sweep.csv"), write_csv, _SWEEP_HEADER, rows, "\n")
        return 0

    try:
        best, history = optimize_gait(seed_gait, DEFAULT_BOUNDS, obj, max_evaluations=args.max_evals)
    except NoConvergence as exc:
        # keep the evaluations that finished; main() still maps the failure to exit 3
        _emit(_out_path(cfg, "report.csv"), write_report_csv, exc.history)
        raise
    # the search evaluates the seed first, so history[0] is the seed's score
    seed_rec, best_rec = history[0], min(history, key=lambda r: r.loss)
    print(
        f"seed loss {seed_rec.loss:.6g} (displacement {seed_rec.displacement:.6f} m) -> "
        f"best loss {best_rec.loss:.6g} (displacement {best_rec.displacement:.6f} m) "
        f"in {len(history)} evaluations"
    )
    _emit(_out_path(cfg, "gait_optimized.txt"), write_gait_file, best,
          cfg.timesteps, cfg.edges, cfg.body_length)
    _emit(_out_path(cfg, "report.csv"), write_report_csv, history)
    return 0


def cmd_calibrate(args) -> int:
    cfg = build_config(args)
    mocap = calibration.read_mocap_csv(args.mocap_file)
    weights = cfg.point_weights(mocap.num_markers)
    fit = calibration.fit_anisotropy(mocap, weights)
    print(f"fitted epsilon = {fit.epsilon:.6f} (rms = {fit.rms:.6g} m)")

    rows = [[float(v) for v in evaluation] for evaluation in sorted(fit.evaluations)]
    _emit(_out_path(cfg, "calibration.csv"), write_csv, _CALIBRATION_HEADER, rows, "\n")

    exp_curve = calibration.com_curve(mocap, weights)
    curves = [
        {
            "x": exp_curve.times,
            "y": exp_curve.displacement_magnitudes / cfg.body_length,
            "label": "measured",
            "color": "black",
            "width": 2.5,
        }
    ]
    shown = sorted(zip(fit.evaluations, fit.curves), key=lambda pair: pair[0])
    if len(shown) > 7:
        idx = np.round(np.linspace(0, len(shown) - 1, 7)).astype(int)
        shown = [shown[i] for i in idx]
    for (eps, _, _), curve in shown:
        best = abs(eps - fit.epsilon) < 1e-12
        entry = {
            "x": curve.times,
            "y": curve.displacement_magnitudes / cfg.body_length,
            "label": f"eps={eps:.4f}" + (" (best)" if best else ""),
            "width": 3.0 if best else 1.2,
        }
        if best:
            entry["color"] = "#e6b800"
        else:
            entry["opacity"] = 0.7
        curves.append(entry)
    svg_path = _out_path(cfg, "calibration.svg")
    svgplot.plot_curves(
        svg_path, curves, xlabel="time [s]", ylabel="displacement [body lengths]",
        title="anisotropy sweep",
    )
    print(f"wrote {svg_path}")
    return 0


def cmd_resim(args) -> int:
    cfg = build_config(args)
    mocap = calibration.read_mocap_csv(args.mocap_file)
    weights = cfg.point_weights(mocap.num_markers)
    traj = calibration.resimulate(mocap, DissipationParams(weights, cfg.epsilon))
    measured = calibration.com_curve(mocap, weights)
    resimmed = calibration.com_curve(traj, weights, times=mocap.times)
    rms = calibration.rms_error(measured, resimmed)
    print(f"resimulated {len(mocap.times)} frames; CoM rms deviation = {rms:.6g} m")
    _emit(_out_path(cfg, "resim_trajectory.csv"), write_trajectory_csv, traj)
    svg_path = _out_path(cfg, "resim_comparison.svg")
    svgplot.plot_curves(
        svg_path,
        [
            {"x": measured.positions[:, 0], "y": measured.positions[:, 1],
             "label": "measured CoM", "color": "black", "width": 2.0},
            {"x": resimmed.positions[:, 0], "y": resimmed.positions[:, 1],
             "label": "resimulated CoM", "color": "red", "dash": "6,4", "width": 2.0},
        ],
        xlabel="x [m]", ylabel="y [m]", title="measured vs resimulated CoM path",
        equal_aspect=True,
    )
    print(f"wrote {svg_path}")
    return 0


def cmd_analyze(args) -> int:
    cfg = build_config(args)
    # flag consistency first, so nothing is written and then abandoned
    if args.power and (args.duration is None or not args.duration > 0):
        raise InvalidParameter("--power requires a positive --duration (active gait seconds)")
    classes = []
    for spec_arg in args.classes:
        if "=" not in spec_arg:
            raise InvalidParameter(f"expected LABEL=PATH, got {spec_arg!r}")
        label, _, path = spec_arg.partition("=")
        values = analysis.read_displacements_file(path)
        classes.append(analysis.ClassDisplacements(label, values))

    # every result is computed before the first file is written, so a bad input leaves none behind
    matrices = {cls.class_label: analysis.performance_ratios(cls) for cls in classes}
    pairs = [
        (x.class_label, y.class_label, analysis.ratio_quotients(matrices[x.class_label], matrices[y.class_label]))
        for i, x in enumerate(classes) for y in classes[i + 1:]
    ]
    cot_rows = []
    if args.power:
        log = analysis.read_power_csv(args.power)
        for cls in classes:
            mean_disp = float(np.mean(cls.values))
            velocity = mean_disp / args.duration
            cot = analysis.cost_of_transport(log.mean_power, cfg.mass, args.gravity, velocity)
            cot_rows.append((cls.class_label, mean_disp, velocity, cot))

    for cls in classes:
        mean, std = analysis.trial_stats(cls.values)
        print(f"{cls.class_label}: {len(cls.values)} gaits, displacement mean={mean:.6g} std={std:.6g}")
        _emit(_out_path(cfg, f"delta_{cls.class_label}.csv"), analysis.write_matrix_csv, matrices[cls.class_label])

    for x_label, y_label, (quotients, mean, std) in pairs:
        pair = f"{x_label}_{y_label}"
        print(f"Xi({x_label},{y_label}): off-diagonal mean={mean:.4f} std={std:.4f}")
        _emit(_out_path(cfg, f"xi_{pair}.csv"), analysis.write_matrix_csv, quotients)
        svg_path = _out_path(cfg, f"xi_{pair}.svg")
        labels = [str(k) for k in range(len(quotients))]
        svgplot.plot_heatmap(
            svg_path, quotients, row_labels=labels, col_labels=labels,
            title=f"ratio quotients {x_label}/{y_label}",
        )
        print(f"wrote {svg_path}")

    if args.power:
        for label, _, velocity, cot in cot_rows:
            print(f"CoT[{label}] = {cot:.4f} (P={log.mean_power:.3f} W, v={velocity:.4f} m/s)")
        _emit(_out_path(cfg, "cot.csv"), write_csv, _COT_HEADER, cot_rows, "\n")
    return 0


def cmd_gait_sample(args) -> int:
    cfg = build_config(args)
    gait = random_gait(cfg.seed, DEFAULT_BOUNDS)
    print(
        f"seed {cfg.seed}: sigma={gait.sigma:.4f} xc={gait.xc:.4f} yc={gait.yc:.4f} "
        f"theta={gait.theta:.4f} a={gait.a:.4f} xi={gait.xi:.4f}"
    )
    _emit(_out_path(cfg, f"gait_seed{cfg.seed}.txt"), write_gait_file, gait,
          cfg.timesteps, cfg.edges, cfg.body_length)
    return 0


# -- the summary tables the subcommands emit, with \n row ends ---------------------

_SWEEP_HEADER = ("c", "delta_com", "energy")
_CALIBRATION_HEADER = ("epsilon", "rms", "final_displacement")
_COT_HEADER = ("class", "mean_displacement_m", "velocity_mps", "cost_of_transport")


def read_sweep_csv(path):
    """c_sweep.csv -> list of (c, delta_com, energy)."""
    return read_csv(path, _SWEEP_HEADER, lambda cells: tuple(map(float, cells)))[1]


def read_calibration_csv(path):
    """calibration.csv -> list of (epsilon, rms, final_displacement)."""
    return read_csv(path, _CALIBRATION_HEADER, lambda cells: tuple(map(float, cells)))[1]


def read_cot_csv(path):
    """cot.csv -> list of (class_label, mean_displacement, velocity, cost_of_transport)."""
    return read_csv(path, _COT_HEADER, lambda cells: (cells[0], *map(float, cells[1:])))[1]


# -- argument plumbing ----------------------------------------------------------


def _add_settings(parser, *names):
    """--config, and a flag for each named `_SETTINGS` key."""
    parser.add_argument("--config", help="flat key=value config file; it may give any setting")
    for name in names:
        kind, _, text = _SETTINGS[name]
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=kind, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snakesim",
        description="simulate, calibrate and optimize undulating locomotion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    simulation = ("epsilon", "cycles", "timesteps", "edges", "body_length", "mass", "weights", "out")

    def subcommand(name, text, *settings):
        # an abbreviation could name another flag (calibrate --c would be --config), so none is accepted
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        _add_settings(p, *settings)
        return p

    p = subcommand("simulate", "integrate a gait file into a trajectory", *simulation)
    p.add_argument("gait_file")

    p = subcommand("optimize", "optimize a gait (random seed or gait file)",
                   *simulation, "seed", "c", "fixed_xi", "jobs")
    p.add_argument("gait_file", nargs="?", help="seed gait file; omitted = random from --seed")
    p.add_argument("--max-evals", type=int, default=MAX_EVALUATIONS, help="objective evaluation budget")
    p.add_argument("--c-sweep", action="store_true",
                   help="optimize once per c in DISSIPATION_COEFFICIENT_GRID; writes c_sweep.csv")

    p = subcommand("calibrate", "fit the anisotropy ratio to a marker recording",
                   "body_length", "mass", "weights", "out")
    p.add_argument("mocap_file")

    p = subcommand("resim", "re-integrate the shapes from a marker recording",
                   "epsilon", "mass", "weights", "out")
    p.add_argument("mocap_file")

    p = subcommand("analyze", "cross-class ratios, stats, transport cost", "mass", "out")
    p.add_argument("classes", nargs="+", metavar="LABEL=PATH",
                   help="displacement file per class (labels: Exp, Sim, Resim)")
    p.add_argument("--power", help="power log CSV (time_s, power_w)")
    p.add_argument("--duration", type=float, help="active gait seconds, for velocity")
    p.add_argument("--gravity", type=float, default=9.81)

    subcommand("gait-sample", "draw a random gait within default bounds",
               "seed", "timesteps", "edges", "body_length", "out")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built on the first call and kept: parsers hold reference cycles, so a new one per call lingers until a collection."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a wrapper set on a cmd_* function later still runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except NoConvergence as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return 3
    except (SnakesimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
