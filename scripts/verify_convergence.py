#!/usr/bin/env python3
"""Measure how fast the exact M/M/1 transient mean wait reaches its limit.

Builds the exact curve, fits the decay rate on a sliding window with the
1/sqrt(t) correction model, and prints the fitted rates against the
closed-form rate (sqrt(mu) - sqrt(lam))^2.  The fit bias shrinks as the
window moves right; the printout makes that visible.
"""

import argparse
import sys

import numpy as np

from transient_queue import (EXP_WITH_SQRT_T, Mm1Model, TimeGrid, UnfitError,
                             fit_decay_rate, phi_curve, stationary_pk,
                             theoretical_rate, write_curve_csv)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda", dest="lam", type=float, default=0.5)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--t-max", type=float, default=250.0)
    ap.add_argument("--step", type=float, default=0.25)
    ap.add_argument("--out", default=None, help="optional CSV dump of the curve")
    args = ap.parse_args()

    model = Mm1Model(args.lam, args.mu)
    rate_ref = theoretical_rate(model)
    grid = TimeGrid.covering(args.t_max, args.step)
    print(f"building exact curve: lambda={args.lam} mu={args.mu} "
          f"t<={args.t_max} step={args.step} ...")
    curve = phi_curve(model, grid)
    if args.out:
        write_curve_csv(curve, args.out)
        print(f"curve written to {args.out}")

    phi_inf = stationary_pk(model)
    print(f"\nstationary value: {phi_inf:.6f}")
    print(f"closed-form rate: {rate_ref:.6f}\n")
    print(f"{'window':>14} {'fitted rate':>12} {'rel err':>9} {'r^2':>8}")
    windows = [(lo, hi) for lo, hi in
               [(20, 80), (40, 100), (60, 150), (80, 200), (100, 250)]
               if hi <= args.t_max]
    rates = []
    for lo, hi in windows:
        try:
            fit = fit_decay_rate(curve, phi_inf, (lo, hi), EXP_WITH_SQRT_T)
        except UnfitError as exc:  # e.g. the gap has reached rounding
            print(f"[{lo:5g},{hi:5g}] {'unfit':>12}: {exc}")
            continue
        rates.append(fit.rate)
        rel = abs(fit.rate - rate_ref) / rate_ref
        print(f"[{lo:5g},{hi:5g}] {fit.rate:12.6f} {rel:8.2%} {fit.r_squared:8.5f}")
    # the claim is made only when the printed rows show it
    if (len(rates) >= 2 and min(rates) > rate_ref
            and all(a > b for a, b in zip(rates, rates[1:]))):
        print("\nfitted rates approach the closed-form rate from above as the"
              "\nwindow moves right (the gap carries an algebraic t^-3/2 factor).")
    else:
        print(f"\n{len(rates)} of {len(windows)} windows fit; no trend in the"
              " fitted rates is claimed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
