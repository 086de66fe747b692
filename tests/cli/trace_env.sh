#!/bin/sh
# GNNPERF_TRACE=1 under `gnnperf run` is a switch, not a file name: it
# writes <task>_<dataset>.trace.json into GNNPERF_CSV_DIR, and nothing
# at all when that is unset.
#
#   trace_env.sh GNNPERF
bin=$1
rm -rf trace_env && mkdir trace_env && cd trace_env || exit 1
# run VAR=VALUE... : a tiny run under the given environment.
run() {
    env "$@" "$bin" run --task node --model GCN --dataset cora \
        --epochs 1 > run.log 2>&1 || { cat run.log; exit 1; }
}
run GNNPERF_TRACE=1
if [ -e 1 ]; then
    echo "GNNPERF_TRACE=1 without GNNPERF_CSV_DIR wrote a file named 1"
    exit 1
fi
run GNNPERF_TRACE=1 GNNPERF_CSV_DIR=csv
if [ ! -s csv/node_cora.trace.json ]; then
    ls -R
    echo "GNNPERF_TRACE=1 did not write csv/node_cora.trace.json"
    exit 1
fi
"$bin" trace check csv/node_cora.trace.json
