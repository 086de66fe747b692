#!/usr/bin/env python3
"""Wall-clock benchmark of gnnperf's public training entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--plant-ms MS --plant-layer LAYER]

Run from the repository root. Builds perfbench/ (which compiles the
library from src/) into $CARGO_TARGET_DIR or .bench_build/, then runs
perfbench_session, one training session per process, and reduces the
sessions to medians. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics and --trace 1 the per-layer ones. perfbench/README.md
lists every metric and the layer it belongs to.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SESSION_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840

END_TO_END = {
    "epoch_s": "s",
    "samples_per_s": "1/s",
    "setup_s": "s",
}
# Printed by untraced runs but not gated: on this kind of shared host
# their run-to-run spread exceeds any bound the gate allows (README.md).
REPORTED = {
    "first_epoch_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: median per timed epoch of the traced sessions,
# unless named in WARMUP (the first epoch) or SESSION (once per session).
PER_LAYER = {
    "data.generate_s": "s",
    "core.init_s": "s",
    "data.next_s": "s",
    "data.batches": "count",
    "models.forward_s": "s",
    "nn.loss_s": "s",
    "autograd.backward_s": "s",
    "nn.adam_step_s": "s",
    "ir.scope_exit_s": "s",
    "core.eval_s": "s",
    "device.replay_s": "s",
    "device.trim_s": "s",
    "tensor.sgemm_s": "s",
    "tensor.sgemm_nt_s": "s",
    "tensor.sgemm_tn_s": "s",
    "graph.edge_softmax_s": "s",
    "graph.spmm_s": "s",
    "graph.sddmm_s": "s",
    "graph.gather_scatter_s": "s",
    "ir.plan_s": "s",
    "ir.flushes": "count",
    "ir.fused_s": "s",
    "ir.recorded_ops": "count",
    "ir.launches_saved": "count",
    "ir.saved_ratio": "ratio",
    "parallel.launches": "count",
    "parallel.tasks": "count",
    "parallel.steals": "count",
    "parallel.steal_ratio": "ratio",
    "parallel.barrier_waits": "count",
    "parallel.busy_share": "ratio",
    "device.acquires": "count",
    "device.backing_allocs": "count",
    "device.cache_hit_ratio": "ratio",
    "device.reserved_peak_mb": "MB",
    "device.logical_peak_mb": "MB",
    "process.minor_faults": "count",
    "process.peak_rss_mb": "MB",
    "warmup.epoch_s": "s",
    "warmup.ir_plan_s": "s",
    "warmup.backing_allocs": "count",
    "warmup.minor_faults": "count",
    "trace.epoch_s": "s",
    "trace.base_epoch_s": "s",
    "trace.overhead": "ratio",
    "trace.span_coverage": "ratio",
    "trace.dropped_spans": "count",
}
WARMUP = {
    "warmup.epoch_s": "epoch_s",
    "warmup.ir_plan_s": "ir.plan_s",
    "warmup.backing_allocs": "device.backing_allocs",
    "warmup.minor_faults": "process.minor_faults",
}
SESSION = ("data.generate_s", "core.init_s")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                f.flush()
                tail = log.read_text(errors="replace").splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    return out / "perfbench_session"


def run_session(binary, args, trace):
    """One session process; returns its JSON record or a failure record."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--plant-ms", str(args.plant_ms),
           "--plant-layer", args.plant_layer]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failure": "session timed out"}
    if p.returncode == 2 and p.stderr.startswith("perfbench_session:"):
        fail(p.stderr.strip())  # usage error, e.g. an unknown workload
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        err = p.stderr.strip().splitlines()[-1:] or [""]
        return {"failure": f"session exited {p.returncode}: {err[0]}"}
    return json.loads(lines[-1])


def fingerprint(rec):
    return (rec.get("epochs_run"), rec.get("val_metric"),
            rec.get("test_accuracy"))


def end_to_end(sessions):
    ok = [s for s in sessions if not s["failure"]]
    if not ok:
        return {}
    timed = [t for s in ok for t in s["epoch_s"]]
    samples = sum(s["train_samples"] * len(s["epoch_s"]) for s in ok)
    return {
        "epoch_s": statistics.median(timed),
        "samples_per_s": samples / sum(timed),
        "setup_s": statistics.median(t for s in ok for t in s["setup_s"]),
        "first_epoch_s": statistics.median(s["first_epoch_s"] for s in ok),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in ok),
    }


def per_layer(reference, traced):
    ok = [s for s in traced if not s["failure"]]
    if not ok or reference["failure"]:
        return {}
    series = {}
    for s in ok:
        for name, values in s["layers"].items():
            series.setdefault(name, []).extend(
                values if name in SESSION else values[1:])
    m = {name: statistics.median(series[name])
         for name in PER_LAYER if name in series}
    for name, source in WARMUP.items():
        m[name] = statistics.median(s["layers"][source][0] for s in ok)
    m["process.peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in ok)
    base = statistics.median(reference["epoch_s"])
    m["trace.epoch_s"] = statistics.median(series["epoch_s"])
    m["trace.base_epoch_s"] = base
    m["trace.overhead"] = m["trace.epoch_s"] / base
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--plant-ms", type=float, default=0.0,
                    help="busy-wait per epoch hook (untraced) or per "
                         "--plant-layer call (traced)")
    ap.add_argument("--plant-layer", default="",
                    help="traced wrapper to plant in, e.g. nn.adam_step")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.plant_ms < 0:
        fail("--seed, --seconds and --plant-ms must be non-negative")

    binary = build()
    inherited = sorted(k for k in os.environ if k.startswith("GNNPERF_"))

    # Sessions per run follow from --seconds and the workload's nominal
    # session length, so a run does the same work every time it runs. A
    # host much slower than the reference one stops early instead of
    # overrunning. A traced run is one untraced reference session plus
    # at least one traced session.
    start = time.monotonic()
    sessions = [run_session(binary, args, 0)]
    count = max(1, round(args.seconds / sessions[0].get("session_s", 1e9)))
    while len(sessions) < max(count, 1 + args.trace):
        elapsed = time.monotonic() - start
        if (len(sessions) > args.trace and
                elapsed * (len(sessions) + 1) / len(sessions) >
                1.15 * args.seconds):
            break
        sessions.append(run_session(binary, args, args.trace))

    failed = [s for s in sessions if s["failure"]]
    if args.trace:
        reference, traced = sessions[0], sessions[1:]
        for s in traced:
            if not s["failure"] and fingerprint(s) != fingerprint(reference):
                s["failure"] = ("traced session trained a different model: "
                                f"{fingerprint(s)} vs {fingerprint(reference)}")
                failed.append(s)
        metrics, units = per_layer(reference, traced), PER_LAYER
    else:
        metrics, units = end_to_end(sessions), END_TO_END

    first = next((s for s in sessions if "threads" in s), {})
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} threads={first.get('threads')} "
          f"ir={first.get('ir')} allocator={first.get('allocator')} "
          f"checks={first.get('checks')} sessions={len(sessions)} "
          f"inherited_env={','.join(inherited) or 'none'}")
    for s in failed:
        print(f"perfbench: failed session: {s['failure']}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:<26} {metrics[name]:>14.6g} {unit}")
    if not args.trace:
        for name, unit in REPORTED.items():
            if name in metrics:
                print(f"  {name:<26} {metrics[name]:>14.6g} {unit}"
                      "  (not gated)")
    correct = not failed and all(name in metrics for name in units)
    print(json.dumps({
        "correct": correct,
        "attempted": len(sessions),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))


if __name__ == "__main__":
    main()
