/**
 * @file
 * Hardware/OS counter profiler: the measured half of the
 * measured-vs-modeled roofline reconciliation.
 *
 * Everything the roofline engine classifies today is derived from the
 * simulated cost model; this layer reads what the machine actually
 * did. Each thread owns a lazily-opened set of perf_event_open
 * counters (cycles, instructions, cache-references/misses,
 * branch-misses, stalled-cycles where the PMU offers them) plus
 * rusage fault/context-switch counters. Deltas are attributed to the
 * kernel launch, phase and layer active when `Profiler::recordKernel`
 * fires, with pool-worker deltas folded in through a lock-free
 * pending accumulator, so the aggregates line up one-to-one with the
 * modeled roofline groups.
 *
 * Tiers, never fatal: when `perf_event_paranoid` (or the platform)
 * denies counters, the profiler demotes itself process-wide and
 * stickily to a software tier — getrusage minor/major faults,
 * voluntary/involuntary context switches, /proc/self/statm RSS — and
 * keeps going. `GNNPERF_HWPROF=sw` (or forceSoftwareTier) selects the
 * software tier explicitly, which is what CI's fallback smoke and the
 * tests use. Off by default: with the gate down every hook is a
 * relaxed load + branch, and no exporter output changes by a byte.
 *
 * This header stays free of Linux headers so src/device/profiler.hh
 * can include it; all syscall plumbing lives in hwprof.cc.
 */

#ifndef GNNPERF_OBS_HWPROF_HH
#define GNNPERF_OBS_HWPROF_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "device/trace.hh"

namespace gnnperf {
namespace hwprof {

/** Which counter source is active. */
enum class Tier : uint8_t {
    Off,       ///< gate down; every hook is a no-op
    Software,  ///< rusage + /proc fallback (or forced via =sw)
    Hardware,  ///< perf_event_open counters (plus the software set)
};

/** Human-readable tier name ("off" / "software" / "hardware"). */
const char *tierName(Tier tier);

/**
 * Counter slots. The first six are hardware PMU events, valid only
 * in the hardware tier; the rest come from getrusage and are filled
 * in both tiers.
 */
enum Counter : int {
    kCycles = 0,
    kInstructions,
    kCacheRefs,
    kCacheMisses,
    kBranchMisses,
    kStalledCycles,
    kMinorFaults,
    kMajorFaults,
    kCtxSwitchesVol,
    kCtxSwitchesInvol,
    kNumCounters,
};

/** First software (rusage) counter slot. */
constexpr int kFirstSoftwareCounter = kMinorFaults;

/** Stable short name for a counter slot, e.g. "cache_misses". */
const char *counterName(int counter);

/** One point-in-time reading of every counter on one thread. */
struct Sample {
    std::array<uint64_t, kNumCounters> v{};
    /// True when the hardware slots hold real PMU readings.
    bool hwValid = false;
};

/** Accumulated counter deltas for one attribution group. */
struct Agg {
    std::array<uint64_t, kNumCounters> sum{};
    /// Attribution windows folded in (kernel launches for kernel
    /// groups; kernels + residual flushes for phases and the total).
    uint64_t windows = 0;
    /// True when at least one window carried hardware readings.
    bool hwValid = false;

    void add(const Sample &delta);
    void merge(const Agg &other);
    /// Instructions per cycle; 0 when cycles were not measured.
    double ipc() const;
    /// cache_misses / cache_references; 0 when refs were 0.
    double missRate() const;
};

/** Timestamped cumulative totals, feeding the pid-4 trace tracks. */
struct TimedSample {
    double tsUs = 0;  ///< SpanTracer::nowUs() timestamp
    std::array<uint64_t, kNumCounters> total{};
    std::size_t rssBytes = 0;
};

/** Copy of all aggregates, safe to read without the profiler lock. */
struct Snapshot {
    Tier tier = Tier::Off;
    std::string tierReason;
    Agg total;
    std::vector<std::pair<std::string, Agg>> byKernel;
    std::vector<std::pair<std::string, Agg>> byLayer;
    std::array<Agg, kNumPhases> byPhase{};
    std::vector<TimedSample> series;
    std::size_t seriesDropped = 0;
    std::size_t rssPeakBytes = 0;
};

namespace detail {
extern std::atomic<bool> g_enabled;
} // namespace detail

/** True when the profiler gate is up. Relaxed; hot-path safe. */
inline bool enabled() {
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/**
 * Raise/lower the gate. Raising probes counters lazily per thread;
 * a denied probe demotes the whole process to the software tier
 * (sticky, logged once, never fatal). Lowering keeps aggregates.
 */
void setEnabled(bool on);

/**
 * Skip perf_event_open entirely and run on the software tier. Sticky
 * for the process; used by GNNPERF_HWPROF=sw and the tests.
 */
void forceSoftwareTier();

/**
 * The --hwprof / GNNPERF_HWPROF modes configure() accepts, matched
 * case-insensitively: "0"/"off" lower the gate, "1" enables with auto
 * tiers, "sw"/"software" force the software tier and enable.
 */
inline constexpr const char *kModes[] = {"0", "off", "1", "sw",
                                         "software"};

/**
 * Apply a mode string from kModes; "" lowers the gate too. Any other
 * mode is fatal — it never turns the profiler on.
 */
void configure(const std::string &mode);

/** Current tier (Off until enabled at least once). */
Tier tier();

/** Why the current tier was chosen (e.g. the perf open errno). */
std::string tierReason();

/** Clear aggregates, series and peaks; tier and gate are kept. */
void resetAggregates();

/** Copy out aggregates, series and tier state. */
Snapshot snapshot();

/**
 * Attribute the delta since this thread's last cursor to `kernel`
 * under `phase`/`layer`, folding in any pending pool-worker deltas.
 * Called by Profiler::recordKernel on profiled runs. `layer` < 0
 * means "no layer scope".
 */
void onKernelRecord(const char *kernel, Phase phase, int16_t layer,
                    const std::string *layerName);

/**
 * Flush the delta since the cursor to `phase` as a residual (no
 * kernel window) and append a timed sample for the trace tracks.
 * Called at PhaseScope boundaries.
 */
void onPhaseBoundary(Phase phase);

/** Read this thread's counters now (opens counters on first use). */
Sample readThread();

/** Current RSS in bytes from /proc/self/statm (0 if unreadable). */
std::size_t readRssBytes();

/**
 * Pool-worker bracket: sample at work start, then fold the delta
 * into the pending accumulator at work end. The caller slot samples
 * through the normal cursor path instead.
 */
Sample workerBegin();
void workerEnd(const Sample &start);

/** Publish snapshot totals as `hwprof.*` registry gauges. */
void publishStats();

} // namespace hwprof
} // namespace gnnperf

#endif // GNNPERF_OBS_HWPROF_HH
