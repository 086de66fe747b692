#!/bin/sh
# The gate config at one thread must reproduce the committed
# baseline's accuracy and logical (Fig. 4) peak exactly, in both
# directions: a lower peak is a change to the memory model too, and a
# one-way diff would pass it as an improvement.
#
#   gate_serial_memory.sh GNNPERF BASELINE.json
bin=$1
baseline=$2
here=$(dirname "$0")
"$bin" run --task graph --model GatedGCN --dataset enzymes --graphs 60 \
    --epochs 2 --folds 1 --threads 1 --bench-out gate_t1.json \
    > gate_t1.log 2>&1 || { cat gate_t1.log; exit 1; }
sh "$here/expect.sh" 0 "OK: no series regressed" "$bin" diff \
    "$baseline" gate_t1.json --threshold 0 --only acc_mean \
    --only logical_peak || exit 1
sh "$here/expect.sh" 0 "OK: no series regressed" "$bin" diff \
    gate_t1.json "$baseline" --threshold 0 --only acc_mean \
    --only logical_peak
