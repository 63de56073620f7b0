"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs two timed ops per workload with tracing off and on, and checks that
every metric BENCHMARK.json names is reported with its unit, that
metrics.json describes the same metrics and workloads, and that deliberately
corrupted op outputs (a phi curve shifted by 10 SE, a renewal function off by
1e-2, an op that raises) are counted as failed ops.  Exits 1 on any failure.
"""

from __future__ import annotations

import math
import shutil
import sys
import tempfile
from pathlib import Path

import run
from tracing import Tracer
from transient_queue.renewal import Curve
from workloads import WORKLOADS, Analytic, McPhi, RenewalHeavy

PROBLEMS: list = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        PROBLEMS.append(what)


def check_records() -> None:
    bench, spec = run.BENCH, run.SPEC
    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS)
           == list(spec["workloads"]),
           "BENCHMARK.json, metrics.json and workloads.py name the same workloads")
    for kind in ("end_to_end", "per_layer"):
        expect([m["name"] for m in bench[kind]] == list(spec[kind]),
               f"BENCHMARK.json and metrics.json list the same {kind} metrics")
        expect(all(set(e["workloads"]) <= set(WORKLOADS)
                   for e in spec[kind].values()),
               f"every {kind} metric names known workloads")


def check_runs() -> None:
    for name in WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, prov, _ = run.run(name, seed=1, seconds=0,
                                      trace=trace, min_ops=2)
            label = f"{name} trace={int(trace)}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result has exactly the four keys")
            expect(result["correct"] and result["attempted"] == 3
                   and result["failed"] == 0 and prov["cli_check"] == "ok",
                   f"{label}: 3 ops pass their checks and the CLI check")
            units = {m["name"]: m["unit"] for m in run.BENCH[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units, f"{label}: every {kind} metric with its unit")
            expect(all(isinstance(v["value"], (int, float))
                       and math.isfinite(v["value"])
                       for v in result["metrics"].values()),
                   f"{label}: every value is a finite number")


class ShiftedPhi(McPhi):
    def op(self, seed, span):
        out = super().op(seed, span)
        c = out["curve"]
        out["curve"] = Curve(c.grid, c.values + 10.0 * c.stderr, c.stderr)
        return out


class OffsetH(RenewalHeavy):
    def op(self, seed, span):
        out = super().op(seed, span)
        out["H"] = Curve(out["H"].grid, out["H"].values + 1e-2)
        return out


class OffsetClosedForm(Analytic):
    def op(self, seed, span):
        out = super().op(seed, span)
        H = out["renewal"]["poisson"]
        out["renewal"]["poisson"] = Curve(H.grid, H.values + 1e-2)
        return out


class RaisesInMm1(Analytic):
    def op(self, seed, span):
        with span("mm1.phi_curve.default"):
            raise ArithmeticError("injected")


def check_corruption(work_dir: Path) -> None:
    tracer = Tracer(False)
    for cls, module in ((ShiftedPhi, "simulate"), (OffsetH, "renewal"),
                        (OffsetClosedForm, "renewal"), (RaisesInMm1, "mm1")):
        wl = cls(work_dir)
        wl.prepare()
        rec, _ = run.run_op(wl, 1, 1, tracer, traced=False)
        expect(any(m == module for m, _ in rec.failures),
               f"{cls.__name__} is a failed op charged to {module}")

    original = WORKLOADS["mc_phi"]
    WORKLOADS["mc_phi"] = ShiftedPhi
    try:
        result, _, _ = run.run("mc_phi", seed=1, seconds=0, trace=True,
                               min_ops=2)
    finally:
        WORKLOADS["mc_phi"] = original
    layer = result["metrics"]
    expect(not result["correct"] and result["failed"] == result["attempted"] == 3
           and layer["simulate.failed"]["value"] == 3,
           "a run of shifted curves counts every op as failed, in simulate")


def main() -> int:
    check_records()
    check_runs()
    run.OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        check_corruption(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
