"""Command-line front end.

One binary, six subcommands:

  simulate     integrate a gait file into a positioned trajectory
  optimize     improve a gait against the displacement/energy objective
  calibrate    fit the anisotropy ratio to a marker recording
  resim        re-integrate the shapes executed in a marker recording
  analyze      cross-class ratio matrices, statistics, transport cost
  gait-sample  draw a random gait within the default bounds

Configuration comes from built-in defaults, overridden by an optional flat
key=value config file (--config), overridden by explicit flags.  Exit codes:
0 all requested outputs written, 2 bad input or arguments, 3 solver failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analysis, calibration, svgplot
from .dynamics import (
    DissipationParams,
    write_step_energies_csv,
    write_trajectory_csv,
)
from .errors import InvalidParameter, NoConvergence, SnakesimError
from .optimize import (
    DEFAULT_BOUNDS,
    DISSIPATION_COEFFICIENT_GRID,
    ObjectiveConfig,
    SimConfig,
    optimize_gait,
    random_gait,
    simulate_gait,
    write_report_csv,
)
from .shapespace import read_gait_file, write_gait_file

_DEFAULTS = {
    "body_length": 0.92,
    "mass": 1.38,
    "edges": 11,
    "timesteps": 50,
    "cycles": 1,
    "epsilon": 0.1865,
    "seed": 0,
    "c": 0.0,
    "fixed_xi": None,
    "weights": None,
    "jobs": 1,
    "out": ".",
}

_CONFIG_TYPES = {
    "body_length": float,
    "mass": float,
    "edges": int,
    "timesteps": int,
    "cycles": int,
    "epsilon": float,
    "seed": int,
    "c": float,
    "fixed_xi": float,
    "weights": str,
    "jobs": int,
    "out": str,
}


@dataclass
class RunConfig:
    """Merged robot/simulation settings for one invocation."""

    body_length: float
    mass: float
    edges: int
    timesteps: int
    cycles: int
    epsilon: float
    seed: int
    c: float
    fixed_xi: float | None
    weights: np.ndarray | None
    jobs: int
    out: str

    def __post_init__(self):
        if self.jobs < 1:
            raise InvalidParameter(f"jobs must be >= 1, got {self.jobs}")
        # the objects handed out check the rest; mass is checked even where weights replace it
        self.sim_config()
        DissipationParams.uniform(self.mass, self.num_vertices, self.epsilon)

    @property
    def num_vertices(self) -> int:
        return self.edges + 1

    def dissipation_params(self) -> DissipationParams:
        if self.weights is not None:
            return DissipationParams(self.weights, self.epsilon)
        return DissipationParams.uniform(self.mass, self.num_vertices, self.epsilon)

    def sim_config(self, cycles=None) -> SimConfig:
        return SimConfig(self.timesteps, self.edges, self.body_length,
                         self.cycles if cycles is None else cycles)


def _read_config_file(path) -> dict:
    values = {}
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise SnakesimError(f"{path}:{line_no}: expected 'key = value', got {text!r}")
            key, _, raw = text.partition("=")
            key = key.strip()
            if key not in _CONFIG_TYPES:
                raise SnakesimError(f"{path}:{line_no}: unknown config key {key!r}")
            try:
                values[key] = _CONFIG_TYPES[key](raw.strip())
            except ValueError as exc:
                raise SnakesimError(f"{path}:{line_no}: bad value for {key}: {raw.strip()!r}") from exc
    return values


def build_config(args, gait_meta: dict | None = None) -> RunConfig:
    """defaults < gait-file metadata < config file < explicit flags."""
    merged = dict(_DEFAULTS)
    if gait_meta:
        for key in ("timesteps", "edges", "body_length"):
            if gait_meta.get(key) is not None:
                merged[key] = gait_meta[key]
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    weights = merged.pop("weights")
    if isinstance(weights, str):
        weights = calibration.read_weights_file(weights)
    return RunConfig(weights=weights, **merged)


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


def _objective_config(cfg: RunConfig, c=None, cycles=1) -> ObjectiveConfig:
    return ObjectiveConfig(
        params=cfg.dissipation_params(),
        sim=cfg.sim_config(cycles=cycles),
        dissipation_coefficient=cfg.c if c is None else c,
        fixed_xi=cfg.fixed_xi,
    )


def _sweep_worker(task):
    c, gait, cfg_fields, max_evals = task
    cfg = RunConfig(**cfg_fields)
    best, history = optimize_gait(gait, DEFAULT_BOUNDS, _objective_config(cfg, c=c),
                                  max_evaluations=max_evals)
    # the record optimize_gait picked `best` from already holds its scores
    record = min(history, key=lambda r: r.loss)
    return c, best, record.displacement, record.energy


def cmd_optimize(args) -> int:
    cfg = build_config(args)
    if args.gait_file:
        seed_gait, _ = read_gait_file(args.gait_file)
    else:
        seed_gait = random_gait(cfg.seed, DEFAULT_BOUNDS)

    if args.c_sweep:
        tasks = [(c, seed_gait, vars(cfg), args.max_evals) for c in DISSIPATION_COEFFICIENT_GRID]
        if cfg.jobs > 1:
            with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
                results = list(pool.map(_sweep_worker, tasks))
        else:
            results = [_sweep_worker(t) for t in tasks]
        rows = []
        for c, best, displacement, energy in results:
            rows.append((c, displacement, energy))
            _emit(_out_path(cfg, f"gait_c{c:g}.txt"), write_gait_file, best,
                  cfg.timesteps, cfg.edges, cfg.body_length)
            print(f"c={c:g}: displacement={displacement:.6f} m, energy={energy:.6g}")
        sweep_path = _out_path(cfg, "c_sweep.csv")
        with open(sweep_path, "w", newline="") as handle:
            handle.write("c,delta_com,energy\n")
            for c, displacement, energy in rows:
                handle.write(f"{c!r},{displacement!r},{energy!r}\n")
        print(f"wrote {sweep_path}")
        return 0

    obj = _objective_config(cfg)
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
    weights = cfg.weights
    if weights is None:
        weights = np.full(mocap.num_markers, cfg.mass / mocap.num_markers)
    fit = calibration.fit_anisotropy(mocap, weights)
    print(f"fitted epsilon = {fit.epsilon:.6f} (rms = {fit.rms:.6g} m)")

    sweep_path = _out_path(cfg, "calibration.csv")
    with open(sweep_path, "w", newline="") as handle:
        handle.write("epsilon,rms,final_displacement\n")
        for eps, rms, disp in sorted(fit.evaluations):
            handle.write(f"{float(eps)!r},{float(rms)!r},{float(disp)!r}\n")
    print(f"wrote {sweep_path}")

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
    weights = cfg.weights
    if weights is None:
        weights = np.full(mocap.num_markers, cfg.mass / mocap.num_markers)
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
        raise SnakesimError("--power requires a positive --duration (active gait seconds)")
    classes = []
    for spec_arg in args.classes:
        if "=" not in spec_arg:
            raise SnakesimError(f"expected LABEL=PATH, got {spec_arg!r}")
        label, _, path = spec_arg.partition("=")
        values = analysis.read_displacements_file(path)
        classes.append(analysis.ClassDisplacements(label, values))

    matrices = {}
    for cls in classes:
        delta = analysis.performance_ratios(cls)
        matrices[cls.class_label] = delta
        mean, std = analysis.trial_stats(cls.values)
        print(f"{cls.class_label}: {len(cls.values)} gaits, displacement mean={mean:.6g} std={std:.6g}")
        _emit(_out_path(cfg, f"delta_{cls.class_label}.csv"), analysis.write_matrix_csv, delta)

    for i, x in enumerate(classes):
        for y in classes[i + 1:]:
            quotients, mean, std = analysis.ratio_quotients(
                matrices[x.class_label], matrices[y.class_label]
            )
            pair = f"{x.class_label}_{y.class_label}"
            print(f"Xi({x.class_label},{y.class_label}): off-diagonal mean={mean:.4f} std={std:.4f}")
            _emit(_out_path(cfg, f"xi_{pair}.csv"), analysis.write_matrix_csv, quotients)
            svg_path = _out_path(cfg, f"xi_{pair}.svg")
            labels = [str(k) for k in range(len(quotients))]
            svgplot.plot_heatmap(
                svg_path, quotients, row_labels=labels, col_labels=labels,
                title=f"ratio quotients {x.class_label}/{y.class_label}",
            )
            print(f"wrote {svg_path}")

    if args.power:
        log = analysis.read_power_csv(args.power)
        cot_path = _out_path(cfg, "cot.csv")
        with open(cot_path, "w", newline="") as handle:
            handle.write("class,mean_displacement_m,velocity_mps,cost_of_transport\n")
            for cls in classes:
                velocity = float(np.mean(cls.values)) / args.duration
                cot = analysis.cost_of_transport(log.mean_power, cfg.mass, args.gravity, velocity)
                handle.write(f"{cls.class_label},{float(np.mean(cls.values))!r},{velocity!r},{cot!r}\n")
                print(f"CoT[{cls.class_label}] = {cot:.4f} (P={log.mean_power:.3f} W, v={velocity:.4f} m/s)")
        print(f"wrote {cot_path}")
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


# -- readers for the summary tables the subcommands emit -------------------------


def _read_table(path, expected_header):
    with open(path, newline="") as handle:
        rows = [line.strip() for line in handle if line.strip()]
    if not rows or rows[0] != expected_header:
        raise SnakesimError(f"{path}: expected header {expected_header!r}")
    return [row.split(",") for row in rows[1:]]


def read_sweep_csv(path):
    """c_sweep.csv -> list of (c, delta_com, energy)."""
    try:
        return [tuple(float(v) for v in row) for row in _read_table(path, "c,delta_com,energy")]
    except ValueError as exc:
        raise SnakesimError(f"{path}: non-numeric sweep row") from exc


def read_calibration_csv(path):
    """calibration.csv -> list of (epsilon, rms, final_displacement)."""
    try:
        return [
            tuple(float(v) for v in row)
            for row in _read_table(path, "epsilon,rms,final_displacement")
        ]
    except ValueError as exc:
        raise SnakesimError(f"{path}: non-numeric calibration row") from exc


def read_cot_csv(path):
    """cot.csv -> list of (class_label, mean_displacement, velocity, cost_of_transport)."""
    header = "class,mean_displacement_m,velocity_mps,cost_of_transport"
    try:
        return [
            (row[0], float(row[1]), float(row[2]), float(row[3]))
            for row in _read_table(path, header)
        ]
    except (ValueError, IndexError) as exc:
        raise SnakesimError(f"{path}: bad transport-cost row") from exc


# -- argument plumbing ----------------------------------------------------------


def _add_common_flags(parser):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--epsilon", type=float, help="anisotropy ratio in (0, 1]")
    parser.add_argument("--cycles", type=int, help="gait cycles to integrate")
    parser.add_argument("--timesteps", type=int, help="timesteps per cycle")
    parser.add_argument("--edges", type=int, help="body segments (vertices - 1)")
    parser.add_argument("--body-length", dest="body_length", type=float, help="body length in meters")
    parser.add_argument("--mass", type=float, help="total mass in kg")
    parser.add_argument("--weights", help="per-vertex weight file, one kg per line")
    parser.add_argument("--seed", type=int, help="RNG seed for stochastic paths")
    parser.add_argument("--c", type=float, help="energy penalty coefficient (>= 0)")
    parser.add_argument("--fixed-xi", dest="fixed_xi", type=float, help="pin the spatial frequency")
    parser.add_argument("--jobs", type=int, help="parallel workers for sweeps")
    parser.add_argument("--out", help="output directory (default: current)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snakesim",
        description="simulate, calibrate and optimize undulating locomotion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a gait file into a trajectory")
    p.add_argument("gait_file")
    _add_common_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="optimize a gait (random seed or gait file)")
    p.add_argument("gait_file", nargs="?", help="seed gait file; omitted = random from --seed")
    p.add_argument("--max-evals", type=int, default=500, help="objective evaluation budget")
    p.add_argument("--c-sweep", action="store_true",
                   help="optimize once per c in DISSIPATION_COEFFICIENT_GRID; writes c_sweep.csv")
    _add_common_flags(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("calibrate", help="fit the anisotropy ratio to a marker recording")
    p.add_argument("mocap_file")
    _add_common_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("resim", help="re-integrate the shapes from a marker recording")
    p.add_argument("mocap_file")
    _add_common_flags(p)
    p.set_defaults(func=cmd_resim)

    p = sub.add_parser("analyze", help="cross-class ratios, stats, transport cost")
    p.add_argument("classes", nargs="+", metavar="LABEL=PATH",
                   help="displacement file per class (labels: Exp, Sim, Resim)")
    p.add_argument("--power", help="power log CSV (time_s, power_w)")
    p.add_argument("--duration", type=float, help="active gait seconds, for velocity")
    p.add_argument("--gravity", type=float, default=9.81)
    _add_common_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gait-sample", help="draw a random gait within default bounds")
    _add_common_flags(p)
    p.set_defaults(func=cmd_gait_sample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NoConvergence as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return 3
    except (SnakesimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
