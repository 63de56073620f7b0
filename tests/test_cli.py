import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from transient_queue import (Exponential, McConfig, Mm1Model, QueueModel,
                             TimeGrid, first_cycle_study, phi_exact,
                             phi_via_renewal, renewal_function,
                             write_curve_csv)
from transient_queue.cli import build_parser, main
from transient_queue.renewal import COARSE_GRID_WARNING

BIN = [sys.executable, "-m", "transient_queue.cli"]


def run_cli(*args):
    return subprocess.run(BIN + list(args), capture_output=True, text=True)


def test_help_lists_every_subcommand():
    proc = run_cli("--help")
    assert proc.returncode == 0
    for name in ("simulate", "mm1-exact", "renewal", "busy-period",
                 "fit-rate", "compare"):
        assert name in proc.stdout


def test_mm1_exact_row_count(tmp_path):
    out = tmp_path / "mm1.csv"
    code = main(["mm1-exact", "--lambda", "0.5", "--mu", "1",
                 "--t-max", "80", "--step", "0.1", "-o", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,phi_exact,phi_paper_literal,phi_asymptotic,abs_gap"
    assert len(lines) == 1 + 801


def test_mm1_exact_columns_are_phi_exact(tmp_path):
    out = tmp_path / "mm1.csv"
    assert main(["mm1-exact", "--lambda", "0.5", "--mu", "1",
                 "--t-max", "6", "--step", "0.5", "-o", str(out)]) == 0
    model = Mm1Model(0.5, 1.0)
    rows = [line.split(",") for line in out.read_text().split()[1:]]
    for t, default, literal, _, _ in rows:
        assert float(default) == phi_exact(model, float(t))
        assert float(literal) == phi_exact(model, float(t), paper_literal=True)


def test_simulate_deterministic_reruns(tmp_path):
    args = ["simulate", "--lambda", "0.5", "--service", "exp:rate=1",
            "--t-max", "8", "--step", "0.5", "--reps", "1500",
            "--seed", "42"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    out3 = tmp_path / "c.csv"
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert main(args + ["--threads", "4", "-o", str(out3)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == out3.read_bytes()


def test_simulate_emits_json_summary(tmp_path, capsys):
    out = tmp_path / "phi.csv"
    code = main(["simulate", "--lambda", "0.5", "--service", "exp:rate=1",
                 "--t-max", "5", "--step", "0.5", "--reps", "500",
                 "--seed", "7", "-o", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["replications"] == 500
    assert summary["seed"] == 7
    assert summary["model"]["rho"] == pytest.approx(0.5)
    assert summary["phi_stationary_estimate"] > 0
    assert summary["stderr"] > 0


def test_unstable_model_exits_2(tmp_path):
    proc = run_cli("simulate", "--lambda", "2", "--service", "exp:rate=1",
                   "--t-max", "1", "--step", "0.5", "--reps", "10",
                   "--seed", "1", "-o", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert "rho" in proc.stderr
    assert not (tmp_path / "x.csv").exists()


def test_load_within_rounding_of_one_exits_2(tmp_path, capsys):
    # 49 * (1/49) rounds to 1 - 1.1e-16, which is no stable queue
    out = tmp_path / "busy.json"
    assert main(["busy-period", "--lambda", "49", "--service", "exp:rate=49",
                 "-o", str(out)]) == 2
    assert "unstable" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing/x.csv", "directory"])
def test_unwritable_output_exits_1_naming_the_path(tmp_path, capsys, target):
    # the write goes through a temp file; the error must name -o's path
    (tmp_path / "directory").mkdir()
    out = tmp_path / target
    assert main(["mm1-exact", "--lambda", "0.5", "--mu", "1", "--t-max", "1",
                 "--step", "0.5", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert repr(str(out)) in err
    assert ".tq-" not in err
    assert list(tmp_path.rglob(".tq-*")) == []


@pytest.mark.parametrize("command", ["simulate", "renewal", "compare"])
def test_negative_seed_exits_2_naming_the_flag(tmp_path, capsys, command):
    out = tmp_path / "x.out"
    code = main([command, "--lambda", "0.5", "--service", "exp:rate=1",
                 "--t-max", "1", "--step", "0.5", "--reps", "10",
                 "--seed", "-1", "-o", str(out)])
    assert code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_one_replication_exits_2(tmp_path, capsys):
    # one replication has no standard error to write
    out = tmp_path / "x.csv"
    assert main(["simulate", "--lambda", "0.5", "--service", "exp:rate=1",
                 "--t-max", "1", "--step", "0.5", "--reps", "1",
                 "--seed", "1", "-o", str(out)]) == 2
    assert "replications must be >= 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--t-max", "inf"), ("--t-max", "nan"), ("--step", "nan"),
    ("--step", "inf"), ("--lambda", "nan"), ("--mu", "inf"),
])
def test_mm1_exact_non_finite_number_exits_2_naming_the_flag(
        tmp_path, capsys, flag, value):
    argv = {"--lambda": "0.5", "--mu": "1", "--t-max": "2", "--step": "0.5"}
    argv[flag] = value
    out = tmp_path / "x.csv"
    code = main(["mm1-exact", *[a for kv in argv.items() for a in kv],
                 "-o", str(out)])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("s_grid", ["nan:1:0.1", "0:inf:0.1", "0:1:inf"])
def test_busy_period_non_finite_s_grid_exits_2_naming_the_flag(
        tmp_path, capsys, s_grid):
    out = tmp_path / "busy.csv"
    code = main(["busy-period", "--lambda", "0.5", "--service", "exp:rate=1",
                 "--s-grid", s_grid, "-o", str(out)])
    assert code == 2
    assert "--s-grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["busy-period", "--service", "uniform:lo=0.5,hi=inf"],
    ["busy-period", "--service", "exp:rate=inf"],
    ["simulate", "--service", "uniform:lo=0.5,hi=inf", "--t-max", "1",
     "--step", "0.5", "--reps", "10", "--seed", "1"],
], ids=["busy-period-uniform", "busy-period-exp", "simulate-uniform"])
def test_non_finite_service_parameter_exits_2(tmp_path, capsys, argv):
    # an infinite parameter gives rho = NaN or 0, never a usable model
    out = tmp_path / "x.out"
    assert main([*argv, "--lambda", "0.5", "-o", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_fit_rate_mu_must_be_finite(tmp_path, capsys):
    curve = tmp_path / "mm1.csv"
    assert main(["mm1-exact", "--lambda", "0.5", "--mu", "1", "--t-max", "6",
                 "--step", "0.5", "-o", str(curve)]) == 0
    assert main(["fit-rate", "--input", str(curve), "--window", "1:5",
                 "--lambda", "0.5", "--mu", "inf"]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_fit_rate_on_empty_file_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code = main(["fit-rate", "--input", str(path), "--window", "1:2",
                 "--phi-inf", "1"])
    assert code == 2
    assert "empty.csv" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_fit_rate_non_finite_phi_inf_exits_2(tmp_path, capsys, value):
    curve_path = tmp_path / "exact.csv"
    assert main(["mm1-exact", "--lambda", "0.5", "--mu", "1", "--t-max", "100",
                 "--step", "0.2", "-o", str(curve_path)]) == 0
    code = main(["fit-rate", "--input", str(curve_path), "--window", "40:100",
                 "--phi-inf", value])
    captured = capsys.readouterr()
    assert code == 2
    assert "--phi-inf" in captured.err
    assert captured.out == ""


def test_bad_service_spec_exits_2(tmp_path):
    proc = run_cli("simulate", "--lambda", "0.5", "--service", "weird:a=1",
                   "--t-max", "1", "--step", "0.5", "--reps", "10",
                   "--seed", "1", "-o", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert "weird" in proc.stderr


def test_unknown_flag_exits_2():
    proc = run_cli("mm1-exact", "--lambda", "0.5", "--mu", "1",
                   "--t-max", "1", "--step", "0.5", "-o", "x.csv",
                   "--frobnicate")
    assert proc.returncode == 2


def test_busy_period_json_and_csv(tmp_path):
    out = tmp_path / "busy.json"
    code = main(["busy-period", "--lambda", "0.5", "--service", "exp:rate=1",
                 "--abscissa", "-o", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["busy_mean"] == 2.0
    assert data["cycle_mean"] == 4.0
    assert data["cycle_second"] == 32.0
    assert 0.0807 <= data["cramer_abscissa"] <= 0.0909

    csv_out = tmp_path / "busy.csv"
    code = main(["busy-period", "--lambda", "0.5", "--service", "exp:rate=1",
                 "--s-grid", "0:2:0.25", "-o", str(csv_out)])
    assert code == 0
    rows = csv_out.read_text().strip().split("\n")
    assert rows[0] == "s,busy_lst"
    assert len(rows) == 1 + 9
    values = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert values[0, 1] == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(values[:, 1]) < 0)


def test_busy_period_s_grid_keeps_its_endpoint_at_large_hi(tmp_path):
    # the grid counts its points from (hi - lo) / step, so a slack added to
    # hi cannot fall below the rounding of hi and drop the endpoint
    csv_out = tmp_path / "busy.csv"
    code = main(["busy-period", "--lambda", "0.5", "--service", "exp:rate=1",
                 "--s-grid", "0:100000:10000", "-o", str(csv_out)])
    assert code == 0
    rows = csv_out.read_text().strip().split("\n")[1:]
    assert len(rows) == 11
    assert float(rows[-1].split(",")[0]) == 100000.0


def test_fit_rate_pipeline(tmp_path, capsys):
    curve_path = tmp_path / "exact.csv"
    assert main(["mm1-exact", "--lambda", "0.5", "--mu", "1", "--t-max", "80",
                 "--step", "0.2", "-o", str(curve_path)]) == 0
    capsys.readouterr()
    code = main(["fit-rate", "--input", str(curve_path), "--window", "20:80",
                 "--model", "sqrt", "--lambda", "0.5", "--mu", "1"])
    assert code == 0
    fit = json.loads(capsys.readouterr().out)
    assert fit["phi_inf"] == pytest.approx(1.0)
    assert fit["model"] == "exp_with_sqrt_t"
    assert fit["rate"] == pytest.approx(0.0986, abs=2e-3)


def test_fit_rate_service_gives_the_same_fit_as_mu(tmp_path, capsys):
    curve_path = tmp_path / "exact.csv"
    assert main(["mm1-exact", "--lambda", "0.5", "--mu", "1", "--t-max", "80",
                 "--step", "0.2", "-o", str(curve_path)]) == 0
    argv = ["fit-rate", "--input", str(curve_path), "--window", "20:80",
            "--lambda", "0.5"]
    capsys.readouterr()
    assert main(argv + ["--service", "exp:rate=1"]) == 0
    by_service = capsys.readouterr().out
    assert main(argv + ["--mu", "1"]) == 0
    assert by_service == capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["fit-rate", "--window", "1:2:3", "--phi-inf", "1"],
     "--window expects 2 colon-separated numbers"),
    (["fit-rate", "--window", "a:b", "--phi-inf", "1"],
     "bad number in --window"),
    (["busy-period", "--lambda", "0.5", "--service", "exp:rate=1",
      "--s-grid", "0:x:1"], "bad number in --s-grid"),
    (["mm1-exact", "--lambda", "0.5", "--mu", "1", "--t-max", "0.05",
      "--step", "0.1"], "--t-max must cover at least one step"),
], ids=["window-parts", "window-text", "s-grid-text", "t-max-below-step"])
def test_malformed_range_exits_2_with_its_message(tmp_path, capsys, argv,
                                                  message):
    out = tmp_path / "out.csv"
    if argv[0] == "fit-rate":
        curve_path = tmp_path / "exact.csv"
        assert main(["mm1-exact", "--lambda", "0.5", "--mu", "1", "--t-max",
                     "10", "--step", "0.5", "-o", str(curve_path)]) == 0
        argv = argv + ["--input", str(curve_path)]
    else:
        argv = argv + ["-o", str(out)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


_ENDLESS = ["--t-max", "1e300", "--step", "1e-10"]
_UNINDEXABLE = ["--t-max", "1e300", "--step", "1"]
# 2e18 + 1 points: indexable, but past the largest float64 array, which
# numpy refuses before allocating
_UNSTORABLE = ["--t-max", "2e18", "--step", "1"]
_SEEDED = ["--service", "exp:rate=1", "--reps", "10", "--seed", "1"]


@pytest.mark.parametrize("argv, code, names", [
    (["simulate", "--lambda", "0.5", *_SEEDED, *_ENDLESS], 2,
     "--step: 1e+300 / 1e-10 is not a finite step count"),
    (["renewal", "--lambda", "0.5", *_SEEDED, *_ENDLESS], 2,
     "--step: 1e+300 / 1e-10 is not a finite step count"),
    (["compare", "--lambda", "0.5", *_SEEDED, *_ENDLESS], 2,
     "--step: 1e+300 / 1e-10 is not a finite step count"),
    (["mm1-exact", "--lambda", "0.5", "--mu", "1", *_ENDLESS], 2,
     "--step: 1e+300 / 1e-10 is not a finite step count"),
    (["busy-period", "--lambda", "0.5", "--service", "exp:rate=1",
      "--s-grid", "0:1e300:1e-10"], 2, "--s-grid 0:1e300:1e-10"),
    # 10^15 points: numpy refuses the 8 PB array before allocating any of it
    (["mm1-exact", "--lambda", "0.5", "--mu", "1", "--t-max", "1e12",
      "--step", "1e-3"], 1, "(1000000000000001,)"),
    (["busy-period", "--lambda", "1e-170", "--service", "exp:rate=1"], 2,
     "arrival rate 1e-170"),
    (["busy-period", "--lambda", "1e-155", "--service", "exp:rate=1"], 2,
     "arrival rate 1e-155"),
    (["busy-period", "--lambda", "1e300", "--service", "exp:rate=1e301"], 2,
     "arrival rate 1e+300"),
    (["simulate", "--lambda", "1e-300", *_SEEDED, "--t-max", "1",
      "--step", "0.5"], 2, "arrival rate 1e-300"),
    (["busy-period", "--lambda", "1e-30", "--service", "det:value=1e-300",
      "--abscissa"], 2, "1e-30 * mean service 1e-300"),
    (["mm1-exact", "--lambda", "1e200", "--mu", "2e200", "--t-max", "1e-200",
      "--step", "5e-201"], 2, "1e+200 * 2e+200"),
    # finite step counts past numpy's largest index, refused before numpy
    # sees them
    (["mm1-exact", "--lambda", "0.5", "--mu", "1", *_UNINDEXABLE], 2,
     "--step: 1e+300 / 1 gives 1e+300 grid points, past the "
     "largest array's 1152921504606846975"),
    (["renewal", "--lambda", "0.5", *_SEEDED, *_UNINDEXABLE], 2,
     "--step: 1e+300 / 1 gives 1e+300 grid points, past the "
     "largest array's 1152921504606846975"),
    (["busy-period", "--lambda", "0.5", "--service", "exp:rate=1",
      "--s-grid", "0:1e300:1"], 2, "--s-grid 0:1e300:1: 1e+300 / 1"),
    (["mm1-exact", "--lambda", "0.5", "--mu", "1", *_UNSTORABLE], 2,
     "--step: 2e+18 / 1 gives 2e+18 grid points, past the "
     "largest array's 1152921504606846975"),
    (["renewal", "--lambda", "0.5", *_SEEDED, *_UNSTORABLE], 2,
     "--step: 2e+18 / 1 gives 2e+18 grid points, past the "
     "largest array's 1152921504606846975"),
    (["busy-period", "--lambda", "0.5", "--service", "exp:rate=1",
      "--s-grid", "0:2e18:1"], 2, "--s-grid 0:2e18:1: 2e+18 / 1"),
    (["compare", "--lambda", "1e-300", "--service", "det:value=1e200",
      "--reps", "10", "--seed", "1", "--t-max", "10", "--step", "1"], 2,
     "arrival rate 1e-300 with det:value=1e+200"),
], ids=["simulate-endless-grid", "renewal-endless-grid",
        "compare-endless-grid", "mm1-endless-grid", "s-grid-endless",
        "mm1-grid-past-memory", "idle-second-underflow",
        "cycle-mean-squared-overflow", "lambda-squared-overflow",
        "simulate-idle-second-underflow", "load-underflow",
        "mm1-bessel-argument-overflow", "mm1-unindexable-grid",
        "renewal-unindexable-grid", "s-grid-unindexable",
        "mm1-unstorable-grid", "renewal-unstorable-grid",
        "s-grid-unstorable",
        "compare-stationary-mean-overflow"])
def test_input_past_double_range_exits_with_a_message(tmp_path, capsys, argv,
                                                      code, names):
    out = tmp_path / "out"
    assert main(argv + ["-o", str(out)]) == code
    err = capsys.readouterr().err
    assert names in err
    assert "Traceback" not in err
    assert not out.exists()


def test_fit_rate_refuses_a_stationary_mean_past_double_range(tmp_path,
                                                              capsys):
    curve_path = tmp_path / "exact.csv"
    assert main(["mm1-exact", "--lambda", "0.5", "--mu", "1", "--t-max", "10",
                 "--step", "0.5", "-o", str(curve_path)]) == 0
    assert main(["fit-rate", "--input", str(curve_path), "--window", "1:9",
                 "--lambda", "1e-300", "--service", "det:value=1e200"]) == 2
    err = capsys.readouterr().err
    assert "arrival rate 1e-300 with det:value=1e+200" in err
    assert "Traceback" not in err


def test_every_cli_option_is_exercised():
    # a flag that no test or benchmark passes is a branch nothing runs
    root = Path(__file__).resolve().parent.parent
    text = "".join(p.read_text() for p in
                   [*root.glob("tests/*.py"), *root.glob("perfbench/*.py")])
    [subparsers] = [a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    unused = [f"{name} {action.option_strings}"
              for name, sub in subparsers.choices.items()
              for action in sub._actions
              if not isinstance(action, argparse._HelpAction)
              and not any(f'"{flag}"' in text or f"'{flag}'" in text
                          for flag in action.option_strings)]
    assert unused == []


def test_fit_rate_needs_phi_inf_source(tmp_path):
    curve_path = tmp_path / "exact.csv"
    main(["mm1-exact", "--lambda", "0.5", "--mu", "1", "--t-max", "10",
          "--step", "0.5", "-o", str(curve_path)])
    code = main(["fit-rate", "--input", str(curve_path), "--window", "2:8"])
    assert code == 2


def test_renewal_command(tmp_path, capsys):
    out = tmp_path / "renew.csv"
    code = main(["renewal", "--lambda", "0.5", "--service", "exp:rate=1",
                 "--t-max", "10", "--step", "0.1", "--reps", "4000",
                 "--seed", "3", "-o", str(out)])
    assert code == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "t,value,stderr"
    assert len(rows) == 1 + 101
    assert capsys.readouterr().err == ""


def test_renewal_command_warns_on_coarse_grid(tmp_path, capsys):
    out = tmp_path / "renew.csv"
    argv = ["renewal", "--lambda", "0.5", "--service", "exp:rate=1",
            "--t-max", "10", "--step", "0.5", "--reps", "2000", "--seed", "3"]
    assert main(argv + ["-o", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["transient-queue: warning: renewal solve at --step 0.5: "
                   "coarse_grid"]
    # the warning goes to stderr only: same CSV as the library route
    cfg = McConfig(2000, 3, TimeGrid(step=0.5, n_points=21))
    study = first_cycle_study(QueueModel(0.5, Exponential(1.0)), cfg)
    renew = renewal_function(study.cycle_cdf)
    assert renew.warnings == (COARSE_GRID_WARNING,)
    expected = tmp_path / "expected.csv"
    write_curve_csv(phi_via_renewal(study.q, renew), expected)
    assert out.read_bytes() == expected.read_bytes()


def test_compare_command_writes_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(["compare", "--lambda", "0.5", "--service", "exp:rate=1",
                 "--t-max", "12", "--step", "0.25", "--reps", "5000",
                 "--seed", "11", "-o", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["methods"] == ["exact_series", "simulation", "renewal"]
    assert "max_z" in report and "max_rel_gap" in report
    assert report["renewal_warnings"] == []
    assert "curves" not in report


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_compare_light_load_writes_strict_json(tmp_path):
    # at lambda = 0.05 no reference point exceeds 0.1, so the renewal gap is
    # not measured: null, not NaN, and no verdict on it
    out = tmp_path / "report.json"
    assert main(["compare", "--lambda", "0.05", "--service", "exp:rate=1",
                 "--t-max", "0.7", "--step", "0.1", "--reps", "50",
                 "--seed", "1", "-o", str(out)]) == 0
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["grid"]["n_points"] == 8
    assert report["max_rel_gap"] is None
    assert report["verdict"]["renewal_within_2pct"] is None


def test_model_service_names_the_law_it_ran(tmp_path):
    out = tmp_path / "busy.json"
    spec = "hyperexp:w=0.3333333333333333|0.6666666666666667,rate=0.1234567|3"
    assert main(["busy-period", "--lambda", "0.05", "--service", spec,
                 "-o", str(out)]) == 0
    service = json.loads(out.read_text())["model"]["service"]
    assert service == spec


def test_inputs_never_mutated(tmp_path):
    curve_path = tmp_path / "exact.csv"
    main(["mm1-exact", "--lambda", "0.5", "--mu", "1", "--t-max", "10",
          "--step", "0.5", "-o", str(curve_path)])
    before = curve_path.read_bytes()
    main(["fit-rate", "--input", str(curve_path), "--window", "2:8",
          "--phi-inf", "1.0"])
    assert curve_path.read_bytes() == before


def test_no_temp_files_left_behind(tmp_path):
    out = tmp_path / "mm1.csv"
    main(["mm1-exact", "--lambda", "0.5", "--mu", "1", "--t-max", "2",
          "--step", "0.5", "-o", str(out)])
    leftovers = [f for f in os.listdir(tmp_path) if f != "mm1.csv"]
    assert leftovers == []
