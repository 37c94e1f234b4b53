import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from snakesim.calibration import MocapTrajectory, write_mocap_csv, write_weights_file
from snakesim.cli import build_parser, main, read_calibration_csv, read_cot_csv, read_sweep_csv
from snakesim.dynamics import (
    DissipationParams,
    integrate_motion_trajectory,
    read_step_energies_csv,
    read_trajectory_csv,
)
from snakesim.analysis import (
    PowerLog,
    cost_of_transport,
    read_matrix_csv,
    write_displacements_file,
    write_power_csv,
)
from snakesim.errors import NoConvergence
from snakesim.optimize import (
    DISSIPATION_COEFFICIENT_GRID,
    ObjectiveConfig,
    SimConfig,
    evaluate_gait,
    random_gait,
    read_report_csv,
)
from snakesim.shapespace import GaitEllipse, gait_to_shape_sequence, read_gait_file, write_gait_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def gait_file(tmp_path):
    path = tmp_path / "gait.txt"
    write_gait_file(path, GaitEllipse(1.0, 0.0, 0.0, 0.0, 3.0, 1.0), 12, 6, 0.92)
    return str(path)


@pytest.fixture
def mocap_file(tmp_path):
    cycle = gait_to_shape_sequence(GaitEllipse(1.0, 0.0, 0.0, 0.0, 3.0, 1.0), 16, 6, 0.92)
    params = DissipationParams.uniform(1.38, 7, 0.3)
    traj = integrate_motion_trajectory(cycle + [cycle[0]], params)
    path = tmp_path / "mocap.csv"
    write_mocap_csv(path, MocapTrajectory(np.linspace(0.0, 1.0, len(traj.vertices)), traj.vertices))
    return str(path)


# a value for each of the twelve settings, and the settings each subcommand reads and so offers as flags
SETTING_VALUES = {
    "epsilon": 0.3, "cycles": 2, "timesteps": 8, "edges": 6, "body_length": 0.8, "mass": 2.0,
    "weights": "w.txt", "seed": 3, "c": 1.5, "fixed_xi": 1.25, "jobs": 2, "out": "dir",
}
SIMULATION = {"epsilon", "cycles", "timesteps", "edges", "body_length", "mass", "weights", "out"}
READS = {
    "simulate": SIMULATION,
    "optimize": SIMULATION | {"seed", "c", "fixed_xi", "jobs"},
    "calibrate": {"body_length", "mass", "weights", "out"},
    "resim": {"epsilon", "mass", "weights", "out"},
    "analyze": {"mass", "out"},
    "gait-sample": {"seed", "timesteps", "edges", "body_length", "out"},
}
POSITIONALS = {"simulate": ["gait.txt"], "optimize": [], "calibrate": ["mocap.csv"], "resim": ["mocap.csv"],
               "analyze": ["Exp=delta.txt"], "gait-sample": []}


@pytest.mark.parametrize("command, setting", [(c, s) for c in READS for s in SETTING_VALUES])
def test_each_subcommand_offers_only_the_settings_it_reads(capsys, command, setting):
    flag, value = "--" + setting.replace("_", "-"), SETTING_VALUES[setting]
    argv = [command, *POSITIONALS[command], flag, str(value)]
    if setting in READS[command]:
        assert getattr(build_parser().parse_args(argv), setting) == value
    else:
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_max_evals_defaults_to_the_search_budget():
    from snakesim.optimize import MAX_EVALUATIONS, optimize_gait

    assert build_parser().parse_args(["optimize"]).max_evals == MAX_EVALUATIONS
    assert optimize_gait.__defaults__ == (MAX_EVALUATIONS,)


@pytest.mark.parametrize("argv", [["calibrate", "mocap.csv", "--c", "2.5"], ["simulate", "gait.txt", "--epsi", "0.3"]])
def test_abbreviated_flags_exit_2(capsys, argv):
    # `calibrate --c` would otherwise read a config file named 2.5
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2


def test_config_file_may_hold_settings_a_subcommand_ignores(tmp_path, capsys, gait_file, mocap_file):
    weights = tmp_path / "weights.txt"
    write_weights_file(weights, np.linspace(0.1, 0.3, 7))  # 7 vertices (6 edges) and 7 markers
    out = tmp_path / "out"
    config = tmp_path / "all.cfg"
    config.write_text(
        "epsilon = 0.3\ncycles = 2\ntimesteps = 8\nedges = 6\nbody_length = 0.8\nmass = 2.0\n"
        f"weights = {weights}\nseed = 3\nc = 0.5\nfixed_xi = 1.25\njobs = 1\nout = {out}\n"
    )
    delta = tmp_path / "delta.txt"
    write_displacements_file(delta, [0.2, 0.3])
    for argv, written in (
        (["simulate", gait_file], "trajectory.csv"),
        (["optimize", "--max-evals", "2"], "report.csv"),
        (["calibrate", mocap_file], "calibration.csv"),
        (["resim", mocap_file], "resim_trajectory.csv"),
        (["analyze", f"Exp={delta}"], "delta_Exp.csv"),
        (["gait-sample"], "gait_seed3.txt"),
    ):
        code, _, err = run(capsys, *argv, "--config", str(config))
        assert code == 0, (argv, err)
        assert (out / written).exists()
    assert len(read_trajectory_csv(out / "trajectory.csv")) == 17  # 2 cycles of 8 steps, as configured


def test_main_builds_one_parser(tmp_path, capsys, monkeypatch):
    import snakesim.cli as cli

    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for seed in ("1", "2"):
            code, _, _ = run(capsys, "gait-sample", "--seed", seed, "--out", str(tmp_path))
            assert code == 0
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_handler_is_looked_up_at_call_time(tmp_path, capsys, monkeypatch, mocap_file):
    # a wrapper set on cmd_calibrate after the parser was built (as a tracer sets one) still runs
    import snakesim.cli as cli

    out = str(tmp_path / "run")
    assert run(capsys, "calibrate", mocap_file, "--out", out)[0] == 0
    calls = []
    original = cli.cmd_calibrate

    def wrapped(args):
        calls.append(args.mocap_file)
        return original(args)

    monkeypatch.setattr(cli, "cmd_calibrate", wrapped)
    assert run(capsys, "calibrate", mocap_file, "--out", out)[0] == 0
    assert calls == [mocap_file]


class TestSimulate:
    def test_writes_all_outputs(self, tmp_path, capsys, gait_file):
        out = tmp_path / "run"
        code, stdout, _ = run(capsys, "simulate", gait_file, "--out", str(out))
        assert code == 0
        assert "net displacement" in stdout
        shapes = read_trajectory_csv(out / "trajectory.csv")
        assert len(shapes) == 13  # metadata timesteps + closing shape
        energies = read_step_energies_csv(out / "energies.csv")
        assert len(energies) == 12
        ET.parse(out / "trajectory.svg")

    def test_byte_identical_reruns(self, tmp_path, capsys, gait_file):
        for name in ("a", "b"):
            code, _, _ = run(capsys, "simulate", gait_file, "--out", str(tmp_path / name))
            assert code == 0
        for name in ("trajectory.csv", "energies.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_zero_amplitude_com_is_a_point(self, tmp_path, capsys):
        gait_path = tmp_path / "flat.txt"
        write_gait_file(gait_path, GaitEllipse(0.5, 0.0, 0.0, 0.0, 0.0, 1.0), 8, 5, 0.92)
        out = tmp_path / "run"
        code, stdout, _ = run(capsys, "simulate", str(gait_path), "--out", str(out))
        assert code == 0
        shapes = read_trajectory_csv(out / "trajectory.csv")
        for shape in shapes[1:]:
            assert np.array_equal(shape.vertices, shapes[0].vertices)

    def test_isotropic_flag_reports_no_displacement(self, tmp_path, capsys, gait_file):
        code, stdout, _ = run(
            capsys, "simulate", gait_file, "--epsilon", "1.0", "--out", str(tmp_path / "run")
        )
        assert code == 0
        line = next(l for l in stdout.splitlines() if "body lengths" in l)
        body_lengths = float(line.split("(")[1].split()[0])
        assert abs(body_lengths) < 1e-9

    def test_flag_overrides_gait_metadata(self, tmp_path, capsys, gait_file):
        out = tmp_path / "run"
        code, _, _ = run(capsys, "simulate", gait_file, "--timesteps", "8", "--out", str(out))
        assert code == 0
        assert len(read_trajectory_csv(out / "trajectory.csv")) == 9

    def test_flag_overrides_config_file(self, tmp_path, capsys, gait_file):
        config = tmp_path / "run.cfg"
        config.write_text("epsilon = 1.0\n# comment line\n")
        out = tmp_path / "run"
        code, stdout, _ = run(
            capsys, "simulate", gait_file,
            "--config", str(config), "--epsilon", "0.1865", "--out", str(out),
        )
        assert code == 0
        line = next(l for l in stdout.splitlines() if "body lengths" in l)
        assert float(line.split("(")[1].split()[0]) > 1e-3  # anisotropic, so it moves

    def test_config_file_keys_once_and_integral_counts(self, tmp_path, capsys, gait_file):
        config = tmp_path / "run.cfg"
        config.write_text("timesteps = 8.0\n")  # an integral float is an integer, as in gait files
        out = tmp_path / "run"
        code, _, _ = run(capsys, "simulate", gait_file, "--config", str(config), "--out", str(out))
        assert code == 0
        assert len(read_trajectory_csv(out / "trajectory.csv")) == 9
        for text, where in (("timesteps = 8.5\n", "run.cfg:1"), ("epsilon = 0.3\n# x\nepsilon = 0.5\n", "run.cfg:3")):
            config.write_text(text)
            code, _, err = run(capsys, "simulate", gait_file, "--config", str(config), "--out", str(out))
            assert code == 2 and where in err
        config.write_bytes(b"epsilon = 0.3\n\xff\n")  # not UTF-8
        code, _, err = run(capsys, "simulate", gait_file, "--config", str(config), "--out", str(out))
        assert code == 2 and "run.cfg" in err

    def test_parse_errors_exit_2(self, tmp_path, capsys, gait_file):
        code, _, err = run(capsys, "simulate", str(tmp_path / "missing.txt"))
        assert code == 2 and "error" in err
        bad = tmp_path / "bad.txt"
        bad.write_text("not a gait\n")
        code, _, _ = run(capsys, "simulate", str(bad))
        assert code == 2
        config = tmp_path / "bad.cfg"
        config.write_text("no_such_key = 1\n")
        code, _, _ = run(capsys, "simulate", gait_file, "--config", str(config))
        assert code == 2
        code, _, _ = run(capsys, "simulate", gait_file, "--epsilon", "0.0")
        assert code == 2

    def test_non_finite_gait_exits_2(self, tmp_path, capsys):
        gait = tmp_path / "nan.txt"
        gait.write_text("sigma = 1.0\nxc = nan\nyc = 0.0\ntheta = 0.0\na = 3.0\nxi = 1.0\n")
        out = tmp_path / "run"
        code, _, err = run(capsys, "simulate", str(gait), "--out", str(out))
        assert code == 2 and "xc" in err
        assert not (out / "trajectory.csv").exists()

    def test_out_dir_collision_exits_2(self, tmp_path, capsys, gait_file):
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        code, _, _ = run(capsys, "simulate", gait_file, "--out", str(blocker))
        assert code == 2

    def test_solver_failure_exits_3(self, tmp_path, capsys, gait_file, monkeypatch):
        import snakesim.cli as cli

        def fails(*args, **kwargs):
            raise NoConvergence("timestep 3: synthetic stall")

        monkeypatch.setattr(cli, "simulate_gait", fails)
        code, _, err = run(capsys, "simulate", gait_file, "--out", str(tmp_path / "run"))
        assert code == 3
        assert "solver failed" in err and "timestep 3" in err


class TestOptimize:
    def test_improves_and_round_trips(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run(
            capsys, "optimize", "--seed", "3", "--timesteps", "10", "--edges", "5",
            "--max-evals", "25", "--out", str(out),
        )
        assert code == 0
        assert "best loss" in stdout
        history = read_report_csv(out / "report.csv")
        assert min(r.loss for r in history) <= history[0].loss
        best, meta = read_gait_file(out / "gait_optimized.txt")
        assert meta["timesteps"] == 10 and meta["edges"] == 5

    @pytest.mark.parametrize("argv, message", [
        (["--c-sweep", "--c", "-1"], "--c has no effect with --c-sweep"),
        (["--c-sweep", "--c", "0.5"], "--c has no effect with --c-sweep"),
        (["--jobs", "2"], "--jobs applies only to --c-sweep"),
        (["GAIT", "--seed", "3"], "--seed draws the seed gait"),
    ])
    def test_flags_the_run_would_ignore_exit_2(self, tmp_path, capsys, gait_file, argv, message):
        out = tmp_path / "run"
        argv = [gait_file if arg == "GAIT" else arg for arg in argv]
        code, _, err = run(capsys, "optimize", *argv, "--max-evals", "2", "--out", str(out))
        assert code == 2 and message in err
        assert not out.exists()

    def test_c_is_checked_under_c_sweep(self, tmp_path, capsys):
        config = tmp_path / "negative.cfg"
        config.write_text("c = -1\n")
        out = tmp_path / "run"
        code, _, err = run(capsys, "optimize", "--c-sweep", "--config", str(config), "--max-evals", "2", "--out", str(out))
        assert code == 2 and "dissipation coefficient must be >= 0" in err
        assert not out.exists()

    def test_config_may_give_what_the_run_ignores(self, tmp_path, capsys, gait_file):
        # one config file serves several runs, so its c, jobs and seed stay allowed where a flag is refused
        config = tmp_path / "run.cfg"
        config.write_text("c = 0.5\njobs = 1\nseed = 3\ntimesteps = 6\nedges = 4\n")
        for argv in (["--c-sweep"], [gait_file], [gait_file, "--c-sweep"]):
            code, _, err = run(capsys, "optimize", *argv, "--config", str(config), "--max-evals", "1",
                               "--out", str(tmp_path / "run"))
            assert code == 0, (argv, err)

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one_exits_2(self, tmp_path, capsys, budget):
        out = tmp_path / "run"
        code, _, err = run(capsys, "optimize", "--max-evals", budget, "--seed", "3", "--out", str(out))
        assert code == 2 and "max_evaluations must be >= 1" in err
        assert not (out / "report.csv").exists()

    def test_fixed_xi_in_output_file(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run(
            capsys, "optimize", "--seed", "3", "--timesteps", "10", "--edges", "5",
            "--max-evals", "20", "--fixed-xi", "1.25", "--out", str(out),
        )
        assert code == 0
        best, _ = read_gait_file(out / "gait_optimized.txt")
        assert best.xi == 1.25

    def test_solver_failure_keeps_report_and_exits_3(self, tmp_path, capsys, monkeypatch):
        import snakesim.optimize as opt

        # the 6th gait to be evaluated fails, in the starting batch and again when it is evaluated alone
        fail_at = 6
        calls = []
        evaluate = opt.evaluate_gaits

        def fails_late(gaits, cfg):
            calls.extend(gait for gait in gaits if gait not in calls)
            if any(calls.index(gait) == fail_at - 1 for gait in gaits):
                raise NoConvergence("timestep 4: synthetic stall")
            return evaluate(gaits, cfg)

        monkeypatch.setattr(opt, "evaluate_gaits", fails_late)
        out = tmp_path / "run"
        code, _, err = run(
            capsys, "optimize", "--seed", "3", "--timesteps", "10", "--edges", "5",
            "--max-evals", "25", "--out", str(out),
        )
        assert code == 3
        assert "solver failed" in err
        history = read_report_csv(out / "report.csv")
        assert [rec.gait for rec in history] == calls[:fail_at - 1]
        assert not (out / "gait_optimized.txt").exists()

    def test_seed_is_simulated_once(self, tmp_path, capsys, monkeypatch):
        import snakesim.optimize as opt

        calls = []
        evaluate = opt.evaluate_gaits

        def counted(gaits, cfg):
            calls.extend(gaits)
            return evaluate(gaits, cfg)

        monkeypatch.setattr(opt, "evaluate_gaits", counted)
        out = tmp_path / "run"
        code, stdout, _ = run(
            capsys, "optimize", "--seed", "3", "--timesteps", "10", "--edges", "5",
            "--max-evals", "5", "--out", str(out),
        )
        assert code == 0
        history = read_report_csv(out / "report.csv")
        assert len(calls) == len(history)
        assert f"seed loss {history[0].loss:.6g} (displacement {history[0].displacement:.6f} m)" in stdout

    def test_reads_cycles(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run(
            capsys, "optimize", "--seed", "3", "--timesteps", "10", "--edges", "5",
            "--cycles", "2", "--max-evals", "2", "--out", str(out),
        )
        assert code == 0
        first = read_report_csv(out / "report.csv")[0]
        cfg = ObjectiveConfig(DissipationParams.uniform(1.38, 6, 0.1865), SimConfig(10, 5, 0.92, cycles=2))
        assert first.gait == random_gait(3)
        assert (first.loss, first.displacement, first.energy) == evaluate_gait(random_gait(3), cfg)

    def test_c_sweep_emits_grid_table(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run(
            capsys, "optimize", "--seed", "3", "--timesteps", "8", "--edges", "5",
            "--max-evals", "12", "--c-sweep", "--out", str(out),
        )
        assert code == 0
        rows = read_sweep_csv(out / "c_sweep.csv")
        assert [row[0] for row in rows] == list(DISSIPATION_COEFFICIENT_GRID)
        for c, displacement, energy in rows:
            assert np.isfinite(displacement) and np.isfinite(energy)
            assert (out / f"gait_c{c:g}.txt").exists()

    def test_c_sweep_simulates_each_evaluation_once(self, tmp_path, capsys, monkeypatch):
        import snakesim.cli as cli
        import snakesim.optimize as opt

        # every evaluation is solved by `_integrate_stacks`, looked up in the optimize module, as one of the
        # S sequences of its (S, T+1, N, 2) stacks: this counts solved gaits
        solves, recorded = [], []
        solve, search = opt._integrate_stacks, cli.optimize_gait

        def counted_solve(verts, *args):
            solves.extend(verts)
            return solve(verts, *args)

        def counted_search(*args, **kwargs):
            best, history = search(*args, **kwargs)
            recorded.extend(history)
            return best, history

        monkeypatch.setattr(opt, "_integrate_stacks", counted_solve)
        monkeypatch.setattr(cli, "optimize_gait", counted_search)
        code, _, _ = run(
            capsys, "optimize", "--seed", "3", "--timesteps", "8", "--edges", "5",
            "--max-evals", "6", "--c-sweep", "--jobs", "1", "--out", str(tmp_path / "run"),
        )
        assert code == 0
        assert len(recorded) > 0 and len(solves) == len(recorded)

    def test_c_sweep_parallel_matches_grid(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run(
            capsys, "optimize", "--seed", "3", "--timesteps", "8", "--edges", "5",
            "--max-evals", "10", "--c-sweep", "--jobs", "2", "--out", str(out),
        )
        assert code == 0
        rows = read_sweep_csv(out / "c_sweep.csv")
        assert [row[0] for row in rows] == list(DISSIPATION_COEFFICIENT_GRID)


class TestCalibrate:
    def test_recovers_epsilon_and_emits_sweep(self, tmp_path, capsys, mocap_file):
        out = tmp_path / "run"
        code, stdout, _ = run(capsys, "calibrate", mocap_file, "--out", str(out))
        assert code == 0
        line = next(l for l in stdout.splitlines() if l.startswith("fitted epsilon"))
        fitted = float(line.split("=")[1].split()[0])
        assert abs(fitted - 0.3) < 1e-3
        evaluations = read_calibration_csv(out / "calibration.csv")
        assert len(evaluations) >= 3
        assert all(eps <= 1.0 for eps, _, _ in evaluations)
        ET.parse(out / "calibration.svg")

    def test_resimulates_once_per_evaluation(self, tmp_path, capsys, mocap_file, monkeypatch):
        import snakesim.calibration as calibration

        calls = {"_integrate_stacks": [], "tangents_from_vertices": []}

        def counting(name):
            original = getattr(calibration, name)

            def counted(*args, **kwargs):
                calls[name].append(args)
                return original(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(calibration, name, counting(name))
        out = tmp_path / "run"
        code, _, _ = run(capsys, "calibrate", mocap_file, "--out", str(out))
        assert code == 0
        # one integration of the recorded shapes per evaluated ratio (the grid's in one solve), stacked once
        solved = [params.epsilon for args in calls["_integrate_stacks"] for params in args[2]]
        assert sorted(solved) == [row[0] for row in read_calibration_csv(out / "calibration.csv")]
        assert len(calls["tangents_from_vertices"]) == 1

    def test_one_frame_recording_exits_2_without_output(self, tmp_path, capsys, mocap_file):
        one = tmp_path / "one.csv"
        with open(mocap_file) as handle:
            one.write_text("".join(handle.readlines()[:2]))
        out = tmp_path / "run"
        code, stdout, err = run(capsys, "calibrate", str(one), "--out", str(out))
        assert code == 2 and "at least 2 frames" in err
        assert "fitted epsilon" not in stdout
        assert not out.exists() or not any(out.iterdir())

    def test_nan_marker_exits_2(self, tmp_path, capsys, mocap_file):
        bad = tmp_path / "nan.csv"
        with open(mocap_file) as handle:
            lines = handle.read().splitlines()
        cells = lines[3].split(",")
        cells[4] = "nan"
        lines[3] = ",".join(cells)
        bad.write_text("\n".join(lines) + "\n")
        for command in ("calibrate", "resim"):
            out = tmp_path / command
            code, _, err = run(capsys, command, str(bad), "--out", str(out))
            assert code == 2 and "finite" in err
            assert "solver failed" not in err


class TestResim:
    def test_self_consistency(self, tmp_path, capsys, mocap_file):
        out = tmp_path / "run"
        code, stdout, _ = run(
            capsys, "resim", mocap_file, "--epsilon", "0.3", "--out", str(out)
        )
        assert code == 0
        line = next(l for l in stdout.splitlines() if "rms deviation" in l)
        rms = float(line.split("=")[1].split()[0])
        assert rms < 1e-8
        shapes = read_trajectory_csv(out / "resim_trajectory.csv")
        assert len(shapes) == 17  # 16-step cycle plus the closing shape
        ET.parse(out / "resim_comparison.svg")


class TestAnalyze:
    def test_identity_classes_give_unit_matrix(self, tmp_path, capsys):
        delta = tmp_path / "delta.txt"
        write_displacements_file(delta, [0.2, 0.3, 0.25])
        out = tmp_path / "run"
        code, stdout, _ = run(
            capsys, "analyze", f"Exp={delta}", f"Sim={delta}", "--out", str(out)
        )
        assert code == 0
        xi, _ = read_matrix_csv(out / "xi_Exp_Sim.csv")
        assert np.array_equal(xi, np.ones((3, 3)))
        ET.parse(out / "xi_Exp_Sim.svg")
        d, _ = read_matrix_csv(out / "delta_Exp.csv")
        assert d[0, 1] == pytest.approx(0.2 / 0.3)

    def test_swapped_classes_invert_quotients(self, tmp_path, capsys):
        exp = tmp_path / "exp.txt"
        sim = tmp_path / "sim.txt"
        write_displacements_file(exp, [0.2, 0.3, 0.25])
        write_displacements_file(sim, [0.22, 0.28, 0.3])
        code, _, _ = run(
            capsys, "analyze", f"Exp={exp}", f"Sim={sim}", "--out", str(tmp_path / "ab")
        )
        assert code == 0
        code, _, _ = run(
            capsys, "analyze", f"Sim={sim}", f"Exp={exp}", "--out", str(tmp_path / "ba")
        )
        assert code == 0
        xi_ab, _ = read_matrix_csv(tmp_path / "ab" / "xi_Exp_Sim.csv")
        xi_ba, _ = read_matrix_csv(tmp_path / "ba" / "xi_Sim_Exp.csv")
        assert np.allclose(xi_ab, 1.0 / xi_ba)

    def test_transport_cost_table(self, tmp_path, capsys):
        delta = tmp_path / "delta.txt"
        write_displacements_file(delta, [0.2, 0.3])
        power = tmp_path / "power.csv"
        write_power_csv(power, PowerLog(np.array([0.0, 1.0]), np.array([4.0, 6.0])))
        out = tmp_path / "run"
        code, stdout, _ = run(
            capsys, "analyze", f"Exp={delta}",
            "--power", str(power), "--duration", "5.0", "--out", str(out),
        )
        assert code == 0
        rows = read_cot_csv(out / "cot.csv")
        assert len(rows) == 1
        label, mean_disp, velocity, cot = rows[0]
        assert label == "Exp"
        assert mean_disp == pytest.approx(0.25)
        assert velocity == pytest.approx(0.05)
        assert cot == pytest.approx(cost_of_transport(5.0, 1.38, 9.81, 0.05))

    def test_bad_inputs_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # default --out is the working directory
        delta = tmp_path / "delta.txt"
        write_displacements_file(delta, [0.2, 0.3])
        code, _, _ = run(capsys, "analyze", "Exp" + str(delta))  # missing '='
        assert code == 2
        code, _, _ = run(capsys, "analyze", f"Measured={delta}")  # unknown label
        assert code == 2
        power = tmp_path / "power.csv"
        write_power_csv(power, PowerLog(np.array([0.0]), np.array([4.0])))
        code, _, _ = run(capsys, "analyze", f"Exp={delta}", "--power", str(power))
        assert code == 2  # --duration missing

    @pytest.mark.parametrize("values, rows, duration", [
        ([0.2, 0.3], "0.0,4.0\n1.0,nan\n", "5.0"),  # a NaN power sample
        ([0.2, 0.3], "0.0,4.0\nnan,6.0\n", "5.0"),  # a NaN timestamp
        ([0.2, 0.3], "0.0,4.0\n1.0,6.0\n", "nan"),  # a NaN duration
        ([1e-300, 2e-300], "0.0,4.0\n1.0,6.0\n", "1e300"),  # the mean velocity underflows to 0
    ], ids=["nan-power", "nan-time", "nan-duration", "zero-velocity"])
    def test_non_finite_transport_inputs_exit_2(self, tmp_path, capsys, values, rows, duration):
        delta = tmp_path / "delta.txt"
        write_displacements_file(delta, values)
        power = tmp_path / "power.csv"
        power.write_text("time_s,power_w\n" + rows)
        out = tmp_path / "run"
        code, stdout, err = run(
            capsys, "analyze", f"Exp={delta}", "--power", str(power), "--duration", duration, "--out", str(out),
        )
        assert code == 2 and "nan" not in stdout
        assert "finite" in err or "--duration" in err
        assert not out.exists()  # every input is checked before the first file is written


def test_summary_tables_end_rows_with_newline(tmp_path, capsys, mocap_file):
    delta = tmp_path / "delta.txt"
    write_displacements_file(delta, [0.2, 0.3])
    power = tmp_path / "power.csv"
    write_power_csv(power, PowerLog(np.array([0.0, 1.0]), np.array([4.0, 6.0])))
    out = tmp_path / "run"
    for argv in (
        ["optimize", "--c-sweep", "--seed", "3", "--timesteps", "8", "--edges", "4", "--max-evals", "2"],
        ["calibrate", mocap_file],
        ["analyze", f"Exp={delta}", "--power", str(power), "--duration", "5.0"],
    ):
        assert run(capsys, *argv, "--out", str(out))[0] == 0
    for name, header, reader in (
        ("c_sweep.csv", "c,delta_com,energy", read_sweep_csv),
        ("calibration.csv", "epsilon,rms,final_displacement", read_calibration_csv),
        ("cot.csv", "class,mean_displacement_m,velocity_mps,cost_of_transport", read_cot_csv),
    ):
        rows = [",".join(v if isinstance(v, str) else repr(v) for v in row) for row in reader(out / name)]
        assert (out / name).read_bytes() == "".join(line + "\n" for line in [header] + rows).encode()


class TestGaitSample:
    def test_deterministic_file(self, tmp_path, capsys):
        for name in ("a", "b"):
            code, stdout, _ = run(capsys, "gait-sample", "--seed", "9", "--out", str(tmp_path / name))
            assert code == 0
            assert "sigma=" in stdout
        assert (
            (tmp_path / "a" / "gait_seed9.txt").read_bytes()
            == (tmp_path / "b" / "gait_seed9.txt").read_bytes()
        )
        gait, meta = read_gait_file(tmp_path / "a" / "gait_seed9.txt")
        assert meta["timesteps"] == 50 and meta["edges"] == 11

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "snakesim", "gait-sample", "--seed", "1", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "gait_seed1.txt").exists()


_IMPORT_PROBE = """
import sys
import snakesim, snakesim.cli
from snakesim.cli import main

heavy = ("scipy", "multiprocessing", "concurrent.futures.process", "xml.sax", "urllib.request")
gait, mocap, delta, power, out = sys.argv[1:]
for argv in (["gait-sample"], ["simulate", gait], ["calibrate", mocap], ["resim", mocap],
             ["analyze", "Exp=" + delta, "Sim=" + delta, "--power", power, "--duration", "5"]):
    assert main(argv + ["--out", out]) == 0, argv
assert not [m for m in heavy if m in sys.modules], [m for m in heavy if m in sys.modules]
assert main(["optimize", "--max-evals", "2", "--out", out]) == 0
assert "scipy.optimize" in sys.modules
"""


def test_only_the_search_loads_scipy(tmp_path, gait_file, mocap_file):
    # a fresh interpreter: pytest and its plugins may have imported scipy into this one
    delta = tmp_path / "delta.txt"
    write_displacements_file(delta, [0.2, 0.3])
    power = tmp_path / "power.csv"
    write_power_csv(power, PowerLog(np.array([0.0, 1.0]), np.array([4.0, 6.0])))
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, gait_file, mocap_file, str(delta), str(power), str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
