#!/usr/bin/env python3
"""Run all applicable methods for a queue model and dump curves + report.

For an M/M/1 model three routes are compared (exact series, renewal
pipeline, direct Monte-Carlo); for anything else the two sampling-based
routes check each other.  Outputs land in --out-dir.
"""

import argparse
import json
import os
import sys

from transient_queue import (McConfig, QueueModel, TimeGrid, compare_methods,
                             parse_service_spec, write_curve_csv)
from transient_queue.renewal import atomic_write


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda", dest="lam", type=float, default=0.5)
    ap.add_argument("--service", default="exp:rate=1")
    ap.add_argument("--t-max", type=float, default=40.0)
    ap.add_argument("--step", type=float, default=0.1)
    ap.add_argument("--reps", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=20240613)
    ap.add_argument("--out-dir", default="comparison_out")
    args = ap.parse_args()

    model = QueueModel(args.lam, parse_service_spec(args.service))
    grid = TimeGrid.covering(args.t_max, args.step)
    cfg = McConfig(replications=args.reps, base_seed=args.seed, grid=grid)
    print(f"comparing methods: lambda={args.lam} service={args.service} "
          f"reps={args.reps} seed={args.seed}")
    report = compare_methods(model, cfg)

    os.makedirs(args.out_dir, exist_ok=True)
    curves = report.pop("curves")
    for name, curve in curves.items():
        path = os.path.join(args.out_dir, f"phi_{name}.csv")
        write_curve_csv(curve, path)
        print(f"  wrote {path}")
    report_path = os.path.join(args.out_dir, "report.json")
    atomic_write(report_path, json.dumps(report, indent=2, sort_keys=True))
    print(f"  wrote {report_path}")

    print("\nsummary:")
    for key in ("max_z", "frac_within_3stderr", "frac_two_method_agree",
                "max_rel_gap"):
        if key in report:
            value = report[key]
            print(f"  {key}: {'null' if value is None else f'{value:.4g}'}")
    print(f"  verdict: {report['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
