"""The example scripts run end to end on tiny inputs."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def csv_times(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 0]


def test_method_comparison_at_light_load(tmp_path):
    # the CLI's grid (t = 0 .. 0.7, 8 points), and at lambda = 0.05 no
    # renewal gap to measure: reported as null, printed without a crash
    out = run_script("run_method_comparison.py", "--lambda", "0.05",
                     "--t-max", "0.7", "--step", "0.1", "--reps", "50",
                     "--seed", "1", "--out-dir", str(tmp_path))
    assert "max_rel_gap: null" in out
    for name in ("exact_series", "simulation", "renewal"):
        t = csv_times(tmp_path / f"phi_{name}.csv")
        np.testing.assert_allclose(t, 0.1 * np.arange(8))
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["max_rel_gap"] is None


def test_verify_convergence_grid(tmp_path):
    out = tmp_path / "curve.csv"
    run_script("verify_convergence.py", "--t-max", "0.7", "--step", "0.1",
               "--out", str(out))
    np.testing.assert_allclose(csv_times(out), 0.1 * np.arange(8))


def test_verify_convergence_prints_unfit_windows():
    # at lambda = 0.3, mu = 1.3 the gap reaches rounding inside the later
    # windows; each is printed as unfit and the script still finishes
    out = run_script("verify_convergence.py", "--lambda", "0.3", "--mu", "1.3")
    assert "[   20,   80]" in out
    assert "[   40,  100]        unfit: gap changes sign" in out
    assert out.rstrip().endswith("factor).")
