#!/usr/bin/env python3
"""Planted-slowdown self-test: the benchmark must catch a known regression.

    python3 perfbench/selftest.py

From the repository root, runs perfbench/run.py on pubmed-gat-dgl for
seeds 1-3 four times each, for BENCHMARK.json's run_seconds: untraced
and traced, each without and with a 100 ms plant, alternating which of
the pair runs first. The planted untraced runs busy-wait once per epoch
in the epoch hook; the planted traced runs busy-wait once per call of
the autograd.backward wrapper. Passes (exit 0) when

  * the planted epoch_s median is worse than the plain one by more than
    epoch_s's bound in BENCHMARK.json, so the gate flags it, and
  * in the traced runs the planted layer's time grows by at least three
    quarters of the planted time per epoch, while no other per-epoch
    layer time moves by more than a quarter of it and by more than a
    tenth of its own median.

The workload runs one step per epoch, so one call plants once per
epoch. Exits 1 when a check fails.
"""

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spread import run, spec  # noqa: E402

WORKLOAD = "pubmed-gat-dgl"
SEEDS = range(1, 4)
PLANT_MS = 100.0
PLANT_LAYER = "autograd.backward"

# Not per-epoch layer times: epoch totals, which move with any plant,
# and once-per-session set-up times, which a per-epoch plant cannot reach.
SKIP = {"trace.epoch_s", "trace.base_epoch_s", "warmup.epoch_s",
        "data.generate_s", "core.init_s"}


def medians(seconds, trace):
    """Plain and planted medians; each seed runs both, alternating order
    so that a drift of the host's speed does not favour one side."""
    plant = ["--plant-ms", str(PLANT_MS), "--plant-layer", PLANT_LAYER]
    plain, slow = {}, {}
    for i, seed in enumerate(SEEDS):
        sides = [(plain, ()), (slow, plant)]
        for series, extra in (sides if i % 2 == 0 else sides[::-1]):
            result = run(WORKLOAD, seed, seconds, trace, extra)
            for name, m in result["metrics"].items():
                if m["unit"] == "s":
                    series.setdefault(name, []).append(m["value"])
    return ({n: statistics.median(v) for n, v in plain.items()},
            {n: statistics.median(v) for n, v in slow.items()})


def main():
    bench = spec()
    seconds = bench["run_seconds"]
    bound = next(m["bound"] for m in bench["end_to_end"]
                 if m["name"] == "epoch_s")
    failures = []

    plain, slow = medians(seconds, 0)
    worse = slow["epoch_s"] / plain["epoch_s"] - 1.0
    print(f"epoch_s: plain {plain['epoch_s']:.6g} s, planted "
          f"{slow['epoch_s']:.6g} s, worse by {worse:.1%} "
          f"(bound {bound:.0%})")
    if worse <= bound:
        failures.append("epoch_s not flagged")

    plain, slow = medians(seconds, 1)
    planted = PLANT_LAYER + "_s"
    added = PLANT_MS * 1e-3
    for name in sorted(plain):
        if name in SKIP:
            continue
        delta = slow[name] - plain[name]
        moved = abs(delta) > added / 4 and abs(delta) > plain[name] / 10
        verdict = "moved" if moved else "steady"
        if name == planted:
            verdict = "planted, " + ("caught" if delta >= 0.75 * added
                                     else "MISSED")
            if delta < 0.75 * added:
                failures.append(f"{name} grew by {delta:.6g} s only")
        elif moved:
            failures.append(f"{name} moved by {delta:+.6g} s")
        print(f"  {name:<24} {plain[name]:<12.6g} -> {slow[name]:<12.6g} "
              f"{delta:+.6g} s  {verdict}")

    for f in failures:
        print(f"selftest: FAIL: {f}")
    print("selftest: " + ("FAIL" if failures else "PASS"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
