"""Demo scripts run end to end in a subprocess, writing only into a temporary directory."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_calibration_roundtrip_with_marker_noise(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "calibration_roundtrip.py"),
         "--noise", "1e-4", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert "fitted ratio" in result.stdout
    assert (tmp_path / "fit.svg").stat().st_size > 0
