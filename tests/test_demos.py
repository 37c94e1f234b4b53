"""Demo scripts run end to end in a subprocess, writing only into a temporary directory."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_calibration_roundtrip_with_marker_noise(tmp_path):
    result = run_demo("calibration_roundtrip.py", "--noise", "1e-4", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert "fitted ratio" in result.stdout
    assert (tmp_path / "fit.svg").stat().st_size > 0


def test_first_simulation_writes_into_out(tmp_path):
    result = run_demo("first_simulation.py", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["energies.csv", "trajectory.csv", "trajectory.svg"]


def test_ratio_analysis_writes_into_out(tmp_path):
    result = run_demo("ratio_analysis.py", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["xi.csv", "xi.svg"]


def test_anisotropy_sweep_writes_into_out(tmp_path):
    result = run_demo("anisotropy_sweep.py", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.svg"]


def test_gait_search_writes_into_out(tmp_path):
    result = run_demo("gait_search.py", "--evals", "20", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report_c0.csv", "report_c2.5.csv"]
