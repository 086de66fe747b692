#!/bin/sh
# `gnnperf diff` must pass a BENCH file against itself and fail a copy
# with one planted regression: GCN/PyG.epoch_s raised to 1e6 s.
#
#   diff_planted.sh GNNPERF BENCH.json
bin=$1
bench=$2
here=$(dirname "$0")
sed 's|\("GCN/PyG\.epoch_s": \)[^,]*|\11000000|' "$bench" \
    > planted_bench.json || exit 1
if cmp -s "$bench" planted_bench.json; then
    echo "nothing planted: no GCN/PyG.epoch_s series in $bench"
    exit 1
fi
sh "$here/expect.sh" 0 "OK: no series regressed" \
    "$bin" diff "$bench" "$bench" || exit 1
sh "$here/expect.sh" 1 "FAIL: 1 series regressed" \
    "$bin" diff "$bench" planted_bench.json
