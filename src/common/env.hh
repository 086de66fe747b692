/**
 * @file
 * Environment-variable driven scale knobs for the benchmark harnesses.
 *
 * All benches run a reduced default workload so that the full suite
 * finishes in minutes on one CPU core, and honour:
 *
 *   GNNPERF_SCALE=full    — paper-scale protocol
 *   GNNPERF_EPOCHS=N      — override epoch budget, 1..100000
 *   GNNPERF_SEEDS=N       — override number of seeds / repeats, 1..1000
 *   GNNPERF_FOLDS=N       — override number of CV folds, 1..10
 *   GNNPERF_ENZYMES_GRAPHS=N, GNNPERF_DD_GRAPHS=N,
 *   GNNPERF_MNIST_GRAPHS=N — smoke-scale dataset sizes of the benches
 *                           (bench/bench_common.hh), 1..100000
 *   GNNPERF_LOG=debug|info|warn — minimum log level (common/logging)
 *   GNNPERF_LOG_TIME=1    — timestamp log lines
 *   GNNPERF_STATS=1       — enable stats sampling in the benches
 *                           (obs/stats.hh)
 *   GNNPERF_CSV_DIR=DIR   — where the benches write table CSVs, stats
 *                           artifacts and BENCH_<name>.json baselines
 *                           (core/report.hh; created when missing)
 *   GNNPERF_THREADS=N     — host thread-pool width for every kernel
 *                           (parallel/thread_pool.hh; default hardware
 *                           concurrency, 1 = exact serial path)
 *   GNNPERF_TRACE=FILE|1  — record the merged execution trace
 *                           (obs/exec_trace.hh): FILE writes there;
 *                           1 writes <prefix>.trace.json into
 *                           GNNPERF_CSV_DIR, or nothing when that is
 *                           unset (traceOutputPath).
 *   GNNPERF_ALLOCATOR=caching|direct — Cuda device allocator
 *                           (device/allocator.hh).
 *   GNNPERF_CHECKS=0|1    — runtime switch for the correctness layer
 *                           (common/checks.hh): write-set race
 *                           checker, allocator redzones, registry
 *                           asserts. Wins over the -DGNNPERF_CHECKED
 *                           build default in both directions.
 *   GNNPERF_IR=eager|graph — op dispatch mode (ir/ir.hh): eager
 *                           executes kernels as fn:: ops are called
 *                           (bit-identical reference); graph records
 *                           the iteration into an op graph, fuses
 *                           gather→elementwise→scatter chains, plans
 *                           allocations, then replays.
 *   GNNPERF_HWPROF=1|sw|0 — hardware-counter profiling tier
 *                           (obs/hwprof.hh): 1 probes
 *                           perf_event_open and falls back to the
 *                           software (rusage) tier when denied; sw
 *                           forces the software tier; 0/off disables.
 *                           Any other value is fatal.
 *
 * `gnnperf run` checks GNNPERF_THREADS, _IR, _ALLOCATOR, _TRACE and
 * _HWPROF in its option table as the fallbacks of its flags (the flag
 * wins; a bad value exits 2 naming the variable). The bench knobs
 * with a range above take the same ranges as `gnnperf run`'s flags; a
 * value outside it is fatal and names the variable and the range.
 */

#ifndef GNNPERF_COMMON_ENV_HH
#define GNNPERF_COMMON_ENV_HH

#include <string>

namespace gnnperf {

/**
 * Read an integer env var with a default (unset or empty). A value
 * that is not a whole base-10 integer is fatal and names the variable.
 */
int64_t envInt(const char *name, int64_t fallback);

/**
 * Same, and a set value outside [lo, hi] is fatal too, naming the
 * variable and the range. The fallback is not checked.
 */
int64_t envInt(const char *name, int64_t fallback, int64_t lo,
               int64_t hi);

/** Read a string env var with a default. */
std::string envString(const char *name, const std::string &fallback);

/** True when GNNPERF_SCALE=full is set. */
bool fullScale();

/** Epoch budget: `fallback_smoke` unless overridden or full scale. */
int64_t envEpochs(int64_t fallback_smoke, int64_t fallback_full);

/** Seed count for repeated runs. */
int64_t envSeeds(int64_t fallback_smoke, int64_t fallback_full);

/** Fold count for cross-validation. */
int64_t envFolds(int64_t fallback_smoke, int64_t fallback_full);

} // namespace gnnperf

#endif // GNNPERF_COMMON_ENV_HH
