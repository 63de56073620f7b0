"""Benchmark of the transient-queue package, one workload per run.

    python3 perfbench/run.py --workload mc_phi --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
One client in one process runs ops as a closed loop, each op starting when
the previous one ends, for ``--seconds`` and at least MIN_OPS timed ops after
an untimed warm-up op 0.  Every op's output is checked, and once per run the
CLI must reproduce op 0 exactly.  With ``--trace 0`` the end-to-end metrics
are reported; with ``--trace 1`` ops alternate between traced and untraced
and the per-layer metrics are reported.  The last line of stdout is the
result; the line before it holds provenance, raw wall times, sample counts
and the source of each metric.  Both, and the spans of a traced run, are
also written under ``.perfbench_out/``.

On a shared host the CPU can switch between speed regimes (about 1.8x apart,
lasting tens of seconds, on the 2-vCPU Xeon host this was built on), which
moves a run's median wall time by up to a third.  So a fixed calibration
kernel that does not touch the package is timed just before each op, and the
gated op times are op wall time divided by that kernel's time (unit ``cal``);
``setup_s`` is scaled the same way, to the speed at which the kernel takes
CAL_REF_S.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
if not (SRC / "transient_queue" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no package sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import transient_queue  # noqa: E402

if Path(transient_queue.__file__).resolve().parent != SRC / "transient_queue":
    raise SystemExit(f"perfbench: transient_queue is not imported from {SRC}")

from tracing import MODULES, Tracer, module_of, self_times  # noqa: E402
from workloads import (HEAVY_SPEC, WORKLOADS, CliMismatch,  # noqa: E402
                       RenewalHeavy, op_seed)
from transient_queue import (Exponential, McConfig, QueueModel,  # noqa: E402
                             first_cycle_study, parse_service_spec,
                             simulate_cycle)

MIN_OPS = 40            # so that op_s_p75 has ten samples beyond it
SETUP_SAMPLES = 5
SPEEDUP_PAIRS = 3
CYCLE_PROBES = 1000
SCALAR_DRAWS = 5000
VECTOR_DRAWS = 250_000
PROBE_INDEX = 1_000_000  # op indices of probe calls, apart from the run's ops
CAL_REF_S = 0.005        # calibrate()'s time at the reference speed setup_s uses

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "metrics.json").read_text())


@dataclass(slots=True)
class OpRecord:
    index: int
    seconds: float
    traced: bool
    cal: float              # seconds of the calibration kernel run just before
    failures: list          # (module, message) pairs; empty when the op passed
    max_se2: float = None   # squared max pointwise stderr, stochastic ops only


def calibrate() -> float:
    """Seconds of a fixed kernel unrelated to the package: interpreter float
    arithmetic, small-array numpy and dict updates, the mix the ops run."""
    start = time.perf_counter()
    x = acc = 0.0
    for k in range(20_000):
        x = 1.0 / (2.0 * (k + 1) / 7.3 + x)
        acc += x
    a = np.linspace(0.0, 1.0, 4000)
    for _ in range(100):
        a = np.sqrt(a * a + 1e-3)
        np.searchsorted(a, 0.5)
    counts: dict = {}
    for k in range(10_000):
        counts[k % 997] = counts.get(k % 997, 0) + k
    return time.perf_counter() - start


def run_op(wl, seed, index, tracer, traced, op_id=None):
    """Time the calibration kernel, then one op (check excluded); check the
    op.  Returns (record, output)."""
    cal = calibrate()
    tracer.enabled = traced
    tracer.op = index if op_id is None else op_id
    tracer.failed_in = None
    start = time.perf_counter()
    try:
        with tracer.span("op"):
            result = wl.op(op_seed(seed, index), tracer.span)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        module = module_of(tracer.failed_in or "") or "benchmark"
        return OpRecord(index, time.perf_counter() - start, traced, cal,
                        [(module, f"{type(exc).__name__}: {exc}")]), None
    seconds = time.perf_counter() - start
    tracer.enabled = False
    try:
        failures = wl.check(result)
    except Exception as exc:
        failures = [("benchmark", f"check raised {type(exc).__name__}: {exc}")]
    return OpRecord(index, seconds, traced, cal, failures,
                    result.get("max_se2")), result


def measure_setup(name: str, n: int):
    """Set-up of ``n`` fresh processes, from start to workload built.

    Returns the raw seconds and the same times at reference speed: each
    child runs the calibration kernel right after its set-up, and its time
    is scaled by CAL_REF_S over that kernel's time.
    """
    raw, scaled = [], []
    for _ in range(n):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "run.py"),
                               "--setup-probe", name], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        ready, cal = map(float, proc.stdout.split()[-2:])
        raw.append(ready - start)
        scaled.append(raw[-1] * CAL_REF_S / cal)
    return raw, scaled


def thread_speedup(seed, tracer, work_dir) -> float:
    """renewal_heavy's first_cycle_study: threads=1 time over threads=2 time."""
    wl = RenewalHeavy(work_dir)
    tracer.enabled, tracer.op = True, "probe:thread_speedup"
    times = {1: [], wl.threads: []}
    for k in range(SPEEDUP_PAIRS):
        cfg = McConfig(wl.reps, op_seed(seed, PROBE_INDEX + 1 + k), wl.grid)
        for threads in (1, wl.threads) if k % 2 == 0 else (wl.threads, 1):
            with tracer.span(f"simulate.first_cycle_study.threads{threads}",
                             units=wl.reps) as rec:
                first_cycle_study(wl.model, cfg, threads=threads)
            times[threads].append(rec["end"] - rec["start"])
    return statistics.median(times[1]) / statistics.median(times[wl.threads])


def probe_layers(seed, tracer) -> None:
    """Standalone probes: simulate_cycle and scalar draws on renewal_heavy's
    law, vector draws on mc_phi's law."""
    heavy = QueueModel(RenewalHeavy.lam, parse_service_spec(HEAVY_SPEC))
    rng = np.random.default_rng(op_seed(seed, PROBE_INDEX))
    tracer.enabled, tracer.op = True, "probe:layers"
    with tracer.span("simulate.simulate_cycle") as rec:
        events = sum(len(simulate_cycle(heavy, rng).epochs)
                     for _ in range(CYCLE_PROBES))
    rec["units"] = events
    with tracer.span("distributions.sample.scalar", units=SCALAR_DRAWS):
        for _ in range(SCALAR_DRAWS):
            heavy.service.sample(rng)
    law = Exponential(1.0)
    with tracer.span("distributions.sample.vector", units=4 * VECTOR_DRAWS):
        for _ in range(4):
            law.sample(rng, VECTOR_DRAWS)


def layer_metrics(tracer, records, speedup):
    """Reduce the spans of a traced run to the per-layer metrics."""
    spans = tracer.spans
    by_op: dict = {}
    for s in spans:
        by_op.setdefault(s["op"], []).append(s)
    own_ops = sorted(k for k in by_op if isinstance(k, int))
    values, sources, samples = {}, {}, {}

    def pick(entry):
        """(op, span) pairs of the first source that made the call, and its name."""
        name, key = entry.get("span"), entry.get("key")
        probes = [f"probe:{w}" for w in entry["workloads"]] + ["probe:layers"]
        for source, ops in [("own ops", own_ops)] + [(p, [p]) for p in probes]:
            match = [(op, s) for op in ops for s in by_op.get(op, [])
                     if name in (None, s["name"]) and (key is None or key in s)]
            if match:
                return match, source
        raise RuntimeError(f"no span for {entry}")

    own_self = {m: 0.0 for m in MODULES}
    wall = 0.0
    for s, own in zip(spans, self_times(spans)):
        if isinstance(s["op"], int):
            if s["name"] == "op":
                wall += s["end"] - s["start"]
            elif module_of(s["name"]):
                own_self[module_of(s["name"])] += own
    failed = {m: 0 for m in MODULES}
    for r in records:
        for m in {m for m, _ in r.failures if m in failed}:
            failed[m] += 1
    timed = [r for r in records if r.index > 0]
    traced = [r.seconds for r in timed if r.traced]
    untraced = [r.seconds for r in timed if not r.traced]

    for name, entry in SPEC["per_layer"].items():
        reduce = entry["reduce"]
        if reduce == "self_s_share":
            module = name.split(".")[0]
            values[name] = own_self[module] / wall
            sources[name], samples[name] = "own ops", len(traced)
        elif reduce == "unaccounted":
            values[name] = (wall - sum(own_self.values())) / wall
            sources[name], samples[name] = "own ops", len(traced)
        elif reduce == "failed":
            values[name] = failed[name.split(".")[0]]
            sources[name], samples[name] = "own ops", len(records)
        elif reduce == "overhead":
            values[name] = statistics.median(traced) - statistics.median(untraced)
            sources[name] = "own ops"
            samples[name] = {"traced": len(traced), "untraced": len(untraced)}
        elif reduce == "thread_speedup":
            values[name] = speedup
            sources[name], samples[name] = "probe:thread_speedup", SPEEDUP_PAIRS
        else:
            match, source = pick(entry)
            sources[name] = source
            ops = sorted({op for op, _ in match})
            samples[name] = len(ops) if reduce == "s_per_op" else len(match)
            if reduce == "s_per_unit":
                values[name] = (sum(s["end"] - s["start"] for _, s in match)
                                / sum(s["units"] for _, s in match))
            elif reduce == "s_per_op":
                values[name] = statistics.median(
                    sum(s["end"] - s["start"] for op2, s in match if op2 == op)
                    for op in ops)
            else:  # first_op_sum / first_op_max: exact per seed
                first = [s[entry["key"]] for op, s in match if op == ops[0]]
                values[name] = sum(first) if reduce == "first_op_sum" else max(first)
                samples[name] = 1
    return values, sources, samples


def machine_info() -> dict:
    nproc = len(os.sched_getaffinity(0))
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc, "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def code_info() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "transient_queue").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run(name: str, seed: int, seconds: float, trace: bool,
        min_ops: int = MIN_OPS):
    """One benchmark run; returns (result, provenance, spans)."""
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        return _run(name, seed, seconds, trace, min_ops, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(name, seed, seconds, trace, min_ops, work_dir):
    setup_raw, setup = ([], []) if trace else measure_setup(name, SETUP_SAMPLES)
    wl = WORKLOADS[name](work_dir)
    wl.prepare()
    tracer = Tracer(False)

    warm_up, output = run_op(wl, seed, 0, tracer, traced=False)
    records = [warm_up]
    cli_error = None
    if output is None:
        cli_error = "op 0 failed, so the CLI had nothing to match"
    else:
        try:
            wl.cli_check(ROOT, op_seed(seed, 0), output)
        except (CliMismatch, subprocess.TimeoutExpired, OSError, ValueError,
                KeyError) as exc:
            cli_error = f"{type(exc).__name__}: {exc}"
    del output

    start = time.perf_counter()
    index = 1
    while time.perf_counter() - start < seconds or index <= min_ops:
        records.append(run_op(wl, seed, index, tracer,
                              traced=trace and index % 2 == 0)[0])
        index += 1
    failed = sum(1 for r in records if r.failures)
    timed = [r.seconds for r in records[1:]]
    in_cal = [r.seconds / r.cal for r in records[1:]]

    probe_failures, raw = [], {}
    if trace:
        speedup = thread_speedup(seed, tracer, work_dir)
        for other, cls in WORKLOADS.items():
            if other != name:
                probe = cls(work_dir)
                probe.prepare()
                rec, _ = run_op(probe, seed, PROBE_INDEX, tracer, traced=True,
                                op_id=f"probe:{other}")
                probe_failures += [f"{other}: {m}: {msg}" for m, msg in rec.failures]
        probe_layers(seed, tracer)
        values, sources, samples = layer_metrics(tracer, records, speedup)
        units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    else:
        se2 = [r.max_se2 for r in records[1:] if r.max_se2 is not None]
        # ops needed for the target stderr, per op; 1 for a deterministic op
        ops_to_target = (float(np.mean(se2)) / wl.target_se**2
                         if wl.target_se and se2 else 1.0)
        p50, p75 = (float(v) for v in np.percentile(in_cal, [50, 75]))
        values = {
            "setup_s": statistics.median(setup),
            "op_cal_p50": p50,
            "op_cal_p75": p75,
            "cal_to_target_se": p50 * ops_to_target,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        raw_p50, raw_p75 = (float(v) for v in np.percentile(timed, [50, 75]))
        raw = {"op_s_p50": raw_p50, "op_s_p75": raw_p75,
               "s_to_target_se": raw_p50 * ops_to_target,
               "cal_s_p50": statistics.median(r.cal for r in records[1:]),
               "setup_s": statistics.median(setup_raw)}
        sources = {k: "own ops" for k in values}
        samples = {k: len(timed) for k in values}
        samples.update(setup_s=len(setup), peak_rss_mb=1)
        units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}

    result = {
        "correct": failed == 0 and cli_error is None and not probe_failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    machine = machine_info()
    provenance = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine, "code": code_info(),
        "threads": wl.threads,
        "threads_above_nproc": wl.threads > machine["nproc"],
        "ops": {"attempted": len(records), "timed": len(timed),
                "traced": sum(r.traced for r in records), "failed": failed,
                "failed_frac": failed / len(records),
                "seconds": [round(t, 6) for t in timed],
                "cal_seconds": [round(r.cal, 6) for r in records[1:]],
                "failures": [f"op {r.index}: {m}: {msg}" for r in records
                             for m, msg in r.failures][:20]},
        "raw_wall_time": raw,
        "cli_check": cli_error or "ok",
        "probe_failures": probe_failures,
        "samples": samples, "sources": sources,
    }
    return result, provenance, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=sorted(WORKLOADS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        WORKLOADS[args.setup_probe](OUT)
        ready = time.monotonic()
        print(ready, calibrate())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result, provenance, spans = run(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"result": result, "provenance": provenance}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        with open(OUT / f"spans-{stem}.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(provenance))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
