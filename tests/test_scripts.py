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


def test_method_comparison_for_md1(tmp_path):
    # no exact series for M/D/1: the two sampling routes check each other
    out = run_script("run_method_comparison.py", "--service", "det:value=1",
                     "--t-max", "2", "--step", "0.1", "--reps", "200",
                     "--seed", "1", "--out-dir", str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "phi_renewal.csv", "phi_simulation.csv", "report.json"]
    report = json.loads((tmp_path / "report.json").read_text())
    assert "frac_two_method_agree" in report
    assert "frac_two_method_agree:" in out


CLAIM = "fitted rates approach the closed-form rate from above"


def test_verify_convergence_claims_the_trend_it_prints():
    # at the defaults all five windows fit and the rates fall toward
    # (sqrt(mu) - sqrt(lam))^2 = 0.085786 from above; a 30-digit mpmath
    # curve fits 0.0907363 on [100, 250]
    out = run_script("verify_convergence.py")
    for rate in ("0.098616", "0.095881", "0.093270", "0.091742", "0.090736"):
        assert rate in out
    assert CLAIM in out


def test_verify_convergence_grid(tmp_path):
    out = tmp_path / "curve.csv"
    text = run_script("verify_convergence.py", "--t-max", "0.7",
                      "--step", "0.1", "--out", str(out))
    np.testing.assert_allclose(csv_times(out), 0.1 * np.arange(8))
    assert "0 of 0 windows fit" in text
    assert CLAIM not in text


def test_verify_convergence_prints_unfit_windows():
    # at lambda = 0.3, mu = 1.3 the gap reaches rounding inside the later
    # windows; each is printed as unfit, the script still finishes, and
    # one fitted window claims no trend
    out = run_script("verify_convergence.py", "--lambda", "0.3", "--mu", "1.3")
    assert "[   20,   80]" in out
    assert "[   40,  100]        unfit: gap changes sign" in out
    assert "1 of 5 windows fit" in out
    assert CLAIM not in out
