/**
 * @file
 * Counter plumbing for the hardware profiler. All Linux-specific
 * syscall use (perf_event_open, RUSAGE_THREAD, /proc/self/statm)
 * is confined here; other platforms compile to the software tier
 * with zeroed counters.
 *
 * Tier state machine: Undecided -> Hardware on the first successful
 * per-thread probe, or -> Software when the probe is denied
 * (EACCES/EPERM from perf_event_paranoid, ENOENT on missing PMU) or
 * forced. Demotion is process-wide and sticky: once any thread is
 * refused, hardware slots are ignored everywhere so every window in
 * a run is measured the same way.
 */

#include "obs/hwprof.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <mutex>

#include "common/logging.hh"
#include "common/string_utils.hh"
#include "obs/spans.hh"
#include "obs/stats.hh"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace gnnperf {
namespace hwprof {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace {

/// Cap on the timed-sample series (one entry per phase boundary).
constexpr std::size_t kMaxSeries = std::size_t{1} << 14;

/// Process-wide tier: 0 undecided, 1 software, 2 hardware.
constexpr int kTierUndecided = 0;
constexpr int kTierSoftware = 1;
constexpr int kTierHardware = 2;
std::atomic<int> g_tierState{kTierUndecided};
std::atomic<bool> g_forceSoftware{false};

/// Bumped on enable/reset so stale per-thread cursors self-expire
/// instead of attributing pre-enable work to the first kernel.
std::atomic<uint64_t> g_epoch{1};

/// Pool-worker deltas parked until the next kernel attribution on
/// the launching thread drains them (see workerEnd).
std::array<std::atomic<uint64_t>, kNumCounters> g_pending{};
std::atomic<bool> g_pendingHw{false};

struct Central {
    std::mutex mu;
    std::string tierReason = "off";
    Agg total;
    std::map<std::string, Agg> byKernel;
    std::map<std::string, Agg> byLayer;
    std::array<Agg, kNumPhases> byPhase{};
    /// Cumulative totals mirrored outside Agg for the timed series.
    std::array<uint64_t, kNumCounters> seriesTotal{};
    std::vector<TimedSample> series;
    std::size_t seriesDropped = 0;
    std::size_t rssPeak = 0;
};

Central &
central()
{
    static Central c;
    return c;
}

/** Record the reason for the current tier (first writer wins until
 *  a reset; demotion overwrites so the report explains itself). */
void
setTierReason(const std::string &reason)
{
    Central &c = central();
    std::lock_guard<std::mutex> lock(c.mu);
    c.tierReason = reason;
}

/** Demote the whole process to the software tier, once, loudly. */
void
demoteToSoftware(const std::string &reason)
{
    int expected = g_tierState.load(std::memory_order_relaxed);
    if (expected == kTierSoftware)
        return;
    g_tierState.store(kTierSoftware, std::memory_order_relaxed);
    setTierReason(reason);
    gnnperf_inform("hwprof: ", reason);
}

/// Per-thread perf fds, opened lazily on first read.
struct ThreadSlot {
    bool probed = false;
    bool anyHw = false;
    std::array<int, kFirstSoftwareCounter> fd;
    Sample cursor;
    uint64_t epoch = 0;

    ThreadSlot() { fd.fill(-1); }
};

thread_local ThreadSlot t_slot;

#if defined(__linux__)
int
perfOpenOne(uint64_t config)
{
    struct perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.type = PERF_TYPE_HARDWARE;
    attr.size = sizeof(attr);
    attr.config = config;
    // User-space only: works at perf_event_paranoid <= 2, which is
    // the common default; counting kernel time would need <= 1.
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    return static_cast<int>(
        syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
}
#endif

/** Open this thread's counters; decides/confirms the process tier. */
void
probeThread(ThreadSlot &slot)
{
    slot.probed = true;
    if (g_forceSoftware.load(std::memory_order_relaxed)) {
        demoteToSoftware(
            "software tier forced (GNNPERF_HWPROF=sw)");
        return;
    }
    if (g_tierState.load(std::memory_order_relaxed) == kTierSoftware)
        return;
#if defined(__linux__)
    static const uint64_t configs[kFirstSoftwareCounter] = {
        PERF_COUNT_HW_CPU_CYCLES,
        PERF_COUNT_HW_INSTRUCTIONS,
        PERF_COUNT_HW_CACHE_REFERENCES,
        PERF_COUNT_HW_CACHE_MISSES,
        PERF_COUNT_HW_BRANCH_MISSES,
        PERF_COUNT_HW_STALLED_CYCLES_FRONTEND,
    };
    int open_errno = 0;
    for (int i = 0; i < kFirstSoftwareCounter; ++i) {
        int fd = perfOpenOne(configs[i]);
        if (fd >= 0) {
            slot.fd[i] = fd;
        } else if (i == kCycles) {
            // The PMU's most basic event was refused: no point
            // probing the rest on this platform.
            open_errno = errno;
            break;
        }
        // Individual refusals past kCycles (stalled-cycles is often
        // unimplemented) leave that slot at -1 but keep the tier.
    }
    slot.anyHw =
        slot.fd[kCycles] >= 0 && slot.fd[kInstructions] >= 0;
    if (slot.anyHw) {
        int expected = kTierUndecided;
        if (g_tierState.compare_exchange_strong(
                expected, kTierHardware, std::memory_order_relaxed))
            setTierReason(
                "hardware counters active (perf_event_open)");
    } else {
        demoteToSoftware(strprintf(
            "perf_event_open denied (%s); software fallback tier "
            "(rusage + /proc) engaged",
            std::strerror(open_errno ? open_errno : EACCES)));
    }
#else
    demoteToSoftware(
        "perf_event_open unavailable on this platform; software "
        "fallback tier engaged");
#endif
}

/** now - prev, saturating at zero per slot. */
Sample
sampleDelta(const Sample &now, const Sample &prev)
{
    Sample d;
    for (int i = 0; i < kNumCounters; ++i)
        d.v[i] = now.v[i] >= prev.v[i] ? now.v[i] - prev.v[i] : 0;
    d.hwValid = now.hwValid;
    return d;
}

/**
 * Delta since this thread's cursor (zero on the first window of an
 * epoch), with any parked pool-worker deltas drained in. Advances
 * the cursor.
 */
Sample
takeThreadDelta()
{
    ThreadSlot &slot = t_slot;
    Sample now = readThread();
    uint64_t epoch = g_epoch.load(std::memory_order_relaxed);
    Sample delta;
    if (slot.epoch == epoch)
        delta = sampleDelta(now, slot.cursor);
    else
        delta.hwValid = now.hwValid;
    slot.cursor = now;
    slot.epoch = epoch;
    for (int i = 0; i < kNumCounters; ++i) {
        uint64_t pending =
            g_pending[i].exchange(0, std::memory_order_relaxed);
        delta.v[i] += pending;
    }
    if (g_pendingHw.exchange(false, std::memory_order_relaxed))
        delta.hwValid = true;
    return delta;
}

/** Accumulate a delta under the central lock (caller holds it). */
void
bookDeltaLocked(Central &c, const Sample &delta)
{
    c.total.add(delta);
    for (int i = 0; i < kNumCounters; ++i)
        c.seriesTotal[i] += delta.v[i];
}

} // namespace

const char *
tierName(Tier tier)
{
    switch (tier) {
    case Tier::Off: return "off";
    case Tier::Software: return "software";
    case Tier::Hardware: return "hardware";
    }
    return "unknown";
}

const char *
counterName(int counter)
{
    static const char *const names[kNumCounters] = {
        "cycles",          "instructions",
        "cache_refs",      "cache_misses",
        "branch_misses",   "stalled_cycles",
        "minor_faults",    "major_faults",
        "ctx_switches_vol", "ctx_switches_invol",
    };
    if (counter < 0 || counter >= kNumCounters)
        return "unknown";
    return names[counter];
}

void
Agg::add(const Sample &delta)
{
    for (int i = 0; i < kNumCounters; ++i)
        sum[i] += delta.v[i];
    windows += 1;
    hwValid = hwValid || delta.hwValid;
}

void
Agg::merge(const Agg &other)
{
    for (int i = 0; i < kNumCounters; ++i)
        sum[i] += other.sum[i];
    windows += other.windows;
    hwValid = hwValid || other.hwValid;
}

double
Agg::ipc() const
{
    if (sum[kCycles] == 0)
        return 0.0;
    return static_cast<double>(sum[kInstructions]) /
           static_cast<double>(sum[kCycles]);
}

double
Agg::missRate() const
{
    if (sum[kCacheRefs] == 0)
        return 0.0;
    return static_cast<double>(sum[kCacheMisses]) /
           static_cast<double>(sum[kCacheRefs]);
}

void
setEnabled(bool on)
{
    if (on) {
        g_epoch.fetch_add(1, std::memory_order_relaxed);
        detail::g_enabled.store(true, std::memory_order_relaxed);
        // Probe on the enabling thread so tier() is decided before
        // the first kernel window (and the demotion message, if any,
        // prints up front rather than mid-run).
        readThread();
    } else {
        detail::g_enabled.store(false, std::memory_order_relaxed);
    }
}

void
forceSoftwareTier()
{
    g_forceSoftware.store(true, std::memory_order_relaxed);
    demoteToSoftware("software tier forced (GNNPERF_HWPROF=sw)");
}

void
configure(const std::string &mode)
{
    std::string m = mode;
    for (char &c : m)
        c = static_cast<char>(std::tolower(c));
    if (!m.empty() &&
        std::find(std::begin(kModes), std::end(kModes), m) ==
            std::end(kModes)) {
        gnnperf_fatal("hwprof: unknown mode '", mode,
                      "' (expected 0|off|1|sw|software)");
    }
    if (m.empty() || m == "0" || m == "off") {
        setEnabled(false);
        return;
    }
    if (m == "sw" || m == "software")
        forceSoftwareTier();
    setEnabled(true);
}

Tier
tier()
{
    switch (g_tierState.load(std::memory_order_relaxed)) {
    case kTierHardware: return Tier::Hardware;
    case kTierSoftware: return Tier::Software;
    default: return Tier::Off;
    }
}

std::string
tierReason()
{
    Central &c = central();
    std::lock_guard<std::mutex> lock(c.mu);
    return c.tierReason;
}

void
resetAggregates()
{
    Central &c = central();
    std::lock_guard<std::mutex> lock(c.mu);
    c.total = Agg{};
    c.byKernel.clear();
    c.byLayer.clear();
    c.byPhase.fill(Agg{});
    c.seriesTotal.fill(0);
    c.series.clear();
    c.seriesDropped = 0;
    c.rssPeak = 0;
    g_epoch.fetch_add(1, std::memory_order_relaxed);
    for (auto &p : g_pending)
        p.store(0, std::memory_order_relaxed);
    g_pendingHw.store(false, std::memory_order_relaxed);
}

Snapshot
snapshot()
{
    Central &c = central();
    std::lock_guard<std::mutex> lock(c.mu);
    Snapshot s;
    s.tier = tier();
    s.tierReason = c.tierReason;
    s.total = c.total;
    s.byKernel.assign(c.byKernel.begin(), c.byKernel.end());
    s.byLayer.assign(c.byLayer.begin(), c.byLayer.end());
    s.byPhase = c.byPhase;
    s.series = c.series;
    s.seriesDropped = c.seriesDropped;
    s.rssPeakBytes = c.rssPeak;
    return s;
}

void
onKernelRecord(const char *kernel, Phase phase, int16_t layer,
               const std::string *layerName)
{
    if (!enabled())
        return;
    Sample delta = takeThreadDelta();
    Central &c = central();
    std::lock_guard<std::mutex> lock(c.mu);
    bookDeltaLocked(c, delta);
    c.byKernel[kernel].add(delta);
    c.byPhase[static_cast<int>(phase)].add(delta);
    if (layer >= 0 && layerName != nullptr)
        c.byLayer[*layerName].add(delta);
}

void
onPhaseBoundary(Phase phase)
{
    if (!enabled())
        return;
    Sample delta = takeThreadDelta();
    std::size_t rss = readRssBytes();
    Central &c = central();
    std::lock_guard<std::mutex> lock(c.mu);
    bookDeltaLocked(c, delta);
    c.byPhase[static_cast<int>(phase)].add(delta);
    c.rssPeak = std::max(c.rssPeak, rss);
    if (c.series.size() < kMaxSeries) {
        TimedSample ts;
        ts.tsUs = SpanTracer::nowUs();
        ts.total = c.seriesTotal;
        ts.rssBytes = rss;
        c.series.push_back(ts);
    } else {
        ++c.seriesDropped;
    }
}

Sample
readThread()
{
    ThreadSlot &slot = t_slot;
    if (!slot.probed)
        probeThread(slot);
    Sample s;
#if defined(__linux__)
    if (slot.anyHw &&
        g_tierState.load(std::memory_order_relaxed) ==
            kTierHardware) {
        for (int i = 0; i < kFirstSoftwareCounter; ++i) {
            if (slot.fd[i] < 0)
                continue;
            uint64_t value = 0;
            if (read(slot.fd[i], &value, sizeof(value)) ==
                static_cast<ssize_t>(sizeof(value)))
                s.v[i] = value;
        }
        s.hwValid = true;
    }
    struct rusage ru;
#if defined(RUSAGE_THREAD)
    const int who = RUSAGE_THREAD;
#else
    const int who = RUSAGE_SELF;
#endif
    if (getrusage(who, &ru) == 0) {
        s.v[kMinorFaults] = static_cast<uint64_t>(ru.ru_minflt);
        s.v[kMajorFaults] = static_cast<uint64_t>(ru.ru_majflt);
        s.v[kCtxSwitchesVol] = static_cast<uint64_t>(ru.ru_nvcsw);
        s.v[kCtxSwitchesInvol] =
            static_cast<uint64_t>(ru.ru_nivcsw);
    }
#endif
    return s;
}

std::size_t
readRssBytes()
{
#if defined(__linux__)
    // /proc/self/statm: size resident shared text lib data dt, in
    // pages. Field 2 is the resident set.
    std::FILE *f = std::fopen("/proc/self/statm", "re");
    if (f == nullptr)
        return 0;
    unsigned long long size_pages = 0, rss_pages = 0;
    int got = std::fscanf(f, "%llu %llu", &size_pages, &rss_pages);
    std::fclose(f);
    if (got != 2)
        return 0;
    long page = sysconf(_SC_PAGESIZE);
    if (page <= 0)
        page = 4096;
    return static_cast<std::size_t>(rss_pages) *
           static_cast<std::size_t>(page);
#else
    return 0;
#endif
}

Sample
workerBegin()
{
    return readThread();
}

void
workerEnd(const Sample &start)
{
    Sample now = readThread();
    Sample delta = sampleDelta(now, start);
    for (int i = 0; i < kNumCounters; ++i) {
        if (delta.v[i] != 0)
            g_pending[i].fetch_add(delta.v[i],
                                   std::memory_order_relaxed);
    }
    if (now.hwValid)
        g_pendingHw.store(true, std::memory_order_relaxed);
}

void
publishStats()
{
    if (!enabled())
        return;
    Snapshot s = snapshot();
    double tier_level = s.tier == Tier::Hardware  ? 2
                        : s.tier == Tier::Software ? 1
                                                   : 0;
    stats::gauge("hwprof.tier").set(tier_level);
    stats::gauge("hwprof.windows")
        .set(static_cast<double>(s.total.windows));
    stats::gauge("hwprof.cycles")
        .set(static_cast<double>(s.total.sum[kCycles]));
    stats::gauge("hwprof.instructions")
        .set(static_cast<double>(s.total.sum[kInstructions]));
    stats::gauge("hwprof.cache_refs")
        .set(static_cast<double>(s.total.sum[kCacheRefs]));
    stats::gauge("hwprof.cache_misses")
        .set(static_cast<double>(s.total.sum[kCacheMisses]));
    stats::gauge("hwprof.branch_misses")
        .set(static_cast<double>(s.total.sum[kBranchMisses]));
    stats::gauge("hwprof.stalled_cycles")
        .set(static_cast<double>(s.total.sum[kStalledCycles]));
    stats::gauge("hwprof.minor_faults")
        .set(static_cast<double>(s.total.sum[kMinorFaults]));
    stats::gauge("hwprof.major_faults")
        .set(static_cast<double>(s.total.sum[kMajorFaults]));
    stats::gauge("hwprof.ctx_switches_vol")
        .set(static_cast<double>(s.total.sum[kCtxSwitchesVol]));
    stats::gauge("hwprof.ctx_switches_invol")
        .set(static_cast<double>(s.total.sum[kCtxSwitchesInvol]));
    stats::gauge("hwprof.rss_peak_bytes")
        .set(static_cast<double>(s.rssPeakBytes));
}

} // namespace hwprof
} // namespace gnnperf
