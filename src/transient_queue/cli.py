"""Command-line front end: CSV curves and JSON summaries for offline plotting.

Exit codes: 0 success, 2 argument/validation error, 1 computational error.
All file outputs go through a temp-file-plus-rename so a crash never leaves
a half-written artifact, and fixed seeds make reruns byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import mm1
from .analysis import (EXP_WITH_SQRT_T, PURE_EXPONENTIAL, UnfitError,
                       compare_methods, fit_decay_rate, stationary_pk)
from .busy_period import (QueueModel, busy_cramer_abscissa, busy_lst,
                          cycle_moments)
from .distributions import parse_service_spec
from .renewal import (TimeGrid, _csv_text, _point_count, atomic_write,
                      phi_via_renewal, read_curve_csv, renewal_function,
                      write_curve_csv)
from .simulate import (CycleTruncationError, McConfig, estimate_phi,
                       estimate_stationary, first_cycle_study)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _make_grid(t_max: float, step: float) -> TimeGrid:
    for flag, value in (("--t-max", t_max), ("--step", step)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be finite and > 0, got {value}")
    try:
        return TimeGrid.covering(t_max, step)
    except ValueError as exc:  # fewer than two points, or endless
        raise ValueError(f"--t-max must cover at least one step and a finite "
                         f"number of --step: {exc}") from None


def _make_model(args) -> QueueModel:
    return QueueModel(arrival_rate=args.lam,
                      service=parse_service_spec(args.service))


def _make_config(args, grid: TimeGrid) -> McConfig:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    return McConfig(replications=args.reps, base_seed=args.seed, grid=grid)


def _cmd_simulate(args) -> int:
    model = _make_model(args)
    grid = _make_grid(args.t_max, args.step)
    cfg = _make_config(args, grid)
    # first, so a load whose cycle moments leave double range writes no file
    horizon = 1000.0 * cycle_moments(model).cycle_mean
    curve = estimate_phi(model, cfg, threads=args.threads)
    write_curve_csv(curve, args.output)
    phi_hat, se = estimate_stationary(model, horizon, seed=args.seed)
    summary = {
        "model": model.as_dict(),
        "seed": args.seed,
        "replications": args.reps,
        "phi_stationary_estimate": phi_hat,
        "stderr": se,
    }
    sys.stdout.write(_json_text(summary))
    return 0


def _cmd_mm1_exact(args) -> int:
    if not all(math.isfinite(r) and r > 0 for r in (args.lam, args.mu)):
        raise ValueError("--lambda and --mu must be finite and > 0")
    model = mm1.Mm1Model(args.lam, args.mu)
    grid = _make_grid(args.t_max, args.step)
    times = grid.times()
    phi_def, p0 = mm1._phi_and_p0(model, times)
    phi_lit = phi_def + p0
    asym = np.array([mm1.phi_asymptotic(model, float(t)) if t > 0 else math.nan
                     for t in times])
    # the asymptote carries the printed constant (1 - rho) + phi_inf; shift
    # it to the default curve's limit phi_inf
    gap = np.abs(phi_def - (asym - (1.0 - args.lam / args.mu)))
    atomic_write(args.output, _csv_text(
        "t,phi_exact,phi_paper_literal,phi_asymptotic,abs_gap",
        [times, phi_def, phi_lit, asym, gap]))
    return 0


def _cmd_renewal(args) -> int:
    model = _make_model(args)
    grid = _make_grid(args.t_max, args.step)
    cfg = _make_config(args, grid)
    study = first_cycle_study(model, cfg, threads=args.threads)
    renew = renewal_function(study.cycle_cdf)
    curve = phi_via_renewal(study.q, renew)
    write_curve_csv(curve, args.output)
    for warning in renew.warnings:
        print(f"transient-queue: warning: renewal solve at --step "
              f"{args.step:g}: {warning}", file=sys.stderr)
    return 0


def _parse_range(text: str, name: str, parts: int):
    pieces = text.split(":")
    if len(pieces) != parts:
        raise ValueError(
            f"{name} expects {parts} colon-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in pieces)
    except ValueError as exc:
        raise ValueError(f"bad number in {name}: {exc}") from exc


def _cmd_busy_period(args) -> int:
    model = _make_model(args)
    cm = cycle_moments(model)
    summary = {"model": model.as_dict(), "busy_mean": cm.busy_mean,
               "cycle_mean": cm.cycle_mean, "cycle_second": cm.cycle_second}
    if args.abscissa:
        summary["cramer_abscissa"] = busy_cramer_abscissa(model)
    if args.s_grid is not None:
        lo, hi, step = _parse_range(args.s_grid, "--s-grid", 3)
        if not (all(map(math.isfinite, (lo, hi, step))) and step > 0
                and 0 <= lo <= hi):
            raise ValueError(
                f"--s-grid needs finite 0 <= lo <= hi and step > 0, "
                f"got {args.s_grid!r}")
        try:
            n = _point_count(hi - lo, step)
        except ValueError as exc:
            raise ValueError(f"--s-grid {args.s_grid}: {exc}") from None
        svals = lo + step * np.arange(n)
        lst = [busy_lst(model, float(s)) for s in svals]
        atomic_write(args.output, _csv_text("s,busy_lst", [svals, lst]))
        sys.stdout.write(_json_text(summary))
    else:
        atomic_write(args.output, _json_text(summary))
    return 0


def _cmd_fit_rate(args) -> int:
    curve = read_curve_csv(args.input)
    if args.phi_inf is not None:
        if not math.isfinite(args.phi_inf):
            raise ValueError(f"--phi-inf must be finite, got {args.phi_inf}")
        phi_inf = args.phi_inf
    elif args.lam is not None and args.service is not None:
        phi_inf = stationary_pk(_make_model(args))
    elif args.lam is not None and args.mu is not None:
        phi_inf = stationary_pk(mm1.Mm1Model(args.lam, args.mu))
    else:
        raise ValueError(
            "provide --phi-inf, or --lambda with --service (or --mu) so the "
            "stationary value can be computed")
    window = _parse_range(args.window, "--window", 2)
    model = EXP_WITH_SQRT_T if args.model == "sqrt" else PURE_EXPONENTIAL
    fit = fit_decay_rate(curve, phi_inf, window, model)
    payload = fit.as_dict()
    payload["phi_inf"] = phi_inf
    sys.stdout.write(_json_text(payload))
    return 0


def _cmd_compare(args) -> int:
    model = _make_model(args)
    grid = _make_grid(args.t_max, args.step)
    cfg = _make_config(args, grid)
    report = compare_methods(model, cfg)
    report.pop("curves")
    atomic_write(args.output, _json_text(report))
    return 0


def _add_model_args(p):
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="arrival rate")
    p.add_argument("--service", required=True,
                   help="service spec, e.g. exp:rate=1.0 or erlang:shape=2,rate=2.0")
    p.add_argument("--t-max", dest="t_max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="base seed (mandatory: keeps outputs reproducible)")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; replications run "
                        "in one thread and the output never depends on it")
    p.add_argument("-o", "--output", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transient-queue",
        description="Transient mean workload of the M/G/1 queue: exact "
                    "series, renewal numerics, regenerative simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate",
                       help="Monte-Carlo mean workload curve (CSV) plus a "
                            "stationary JSON summary on stdout")
    _add_model_args(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("mm1-exact",
                       help="exact M/M/1 transient curve with the printed "
                            "asymptote (CSV)")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--t-max", dest="t_max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_mm1_exact)

    p = sub.add_parser("renewal",
                       help="renewal-equation solution with simulated first-"
                            "cycle inputs (CSV)")
    _add_model_args(p)
    p.set_defaults(func=_cmd_renewal)

    p = sub.add_parser("busy-period",
                       help="busy-period transform curve and/or moment summary")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--service", required=True)
    p.add_argument("--s-grid", dest="s_grid", default=None,
                   help="lo:hi:step grid of transform arguments (CSV output)")
    p.add_argument("--abscissa", action="store_true",
                   help="include the numeric Cramer abscissa")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_busy_period)

    p = sub.add_parser("fit-rate",
                       help="fit the exponential decay rate of a stored curve")
    p.add_argument("--input", required=True)
    p.add_argument("--phi-inf", dest="phi_inf", type=float, default=None)
    p.add_argument("--window", required=True, help="t_lo:t_hi")
    p.add_argument("--model", choices=("pure", "sqrt"), default="sqrt")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--service", default=None)
    p.add_argument("--mu", type=float, default=None)
    p.set_defaults(func=_cmd_fit_rate)

    p = sub.add_parser("compare",
                       help="cross-method comparison report (JSON)")
    _add_model_args(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:  # bad input, DistributionSpecError included
        print(f"transient-queue: error: {exc}", file=sys.stderr)
        return 2
    except (mm1.SeriesTruncationError, UnfitError, CycleTruncationError,
            OSError, MemoryError) as exc:
        print(f"transient-queue: computational error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
