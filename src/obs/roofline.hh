/**
 * @file
 * Roofline attribution: *why* a run spends its time where it does.
 *
 * The Timeline (device/timeline.hh) prices a trace into elapsed time
 * and GPU utilization — the paper's Fig. 5 numbers. This layer walks
 * the same priced replay (via Timeline's record-visitation hook) and
 * classifies every kernel record against the roofline the cost model
 * priced it with:
 *
 *  - **compute-bound** — flops/peak_flops dominates the kernel's time;
 *  - **bandwidth-bound** — bytes/peak_bandwidth dominates;
 *  - **dispatch/overhead-bound** — the useful work is smaller than the
 *    fixed per-launch cost (kernel ramp + framework dispatch), the
 *    regime behind the paper's small-graph observations.
 *
 * Classified records are aggregated per kernel kind, per layer scope,
 * per phase and per host-op kind, with arithmetic intensity, achieved
 * vs peak rates, and bound-class time shares — so claims like
 * "GatedGCN under DGL is edge-collation-bound" become machine-readable
 * JSON, diffable across runs by obs/diff.hh. This is the
 * operation-level bottleneck attribution of Hosseini et al. and Huang
 * et al. applied to the simulated deployment.
 */

#ifndef GNNPERF_OBS_ROOFLINE_HH
#define GNNPERF_OBS_ROOFLINE_HH

#include <array>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "device/cost_model.hh"
#include "device/timeline.hh"
#include "device/trace.hh"
#include "obs/hwprof.hh"

namespace gnnperf {

/** Which roofline regime bounds a kernel. */
enum class BoundClass : uint8_t { Compute, Bandwidth, Dispatch };

/** Number of bound classes. */
constexpr int kNumBoundClasses = 3;

/** "compute" / "bandwidth" / "dispatch". */
const char *boundClassName(BoundClass cls);

/** Roofline decomposition of one kernel launch. */
struct KernelBound
{
    BoundClass cls = BoundClass::Dispatch;
    double gpuSeconds = 0.0;      ///< priced on-GPU time
    double computeSeconds = 0.0;  ///< flops / peak flops
    double memorySeconds = 0.0;   ///< bytes / peak bandwidth
    double overheadSeconds = 0.0; ///< fixed on-GPU launch cost
    double dispatchSeconds = 0.0; ///< host-side framework dispatch
    double intensity = 0.0;       ///< flops / bytes (0 when no bytes)
};

/**
 * Classify one kernel record against a cost model. The kernel is
 * dispatch/overhead-bound when its roofline work (max of compute and
 * memory time) is smaller than the fixed per-launch cost; otherwise
 * the larger of compute and memory time picks the class.
 */
KernelBound classifyKernel(const KernelRecord &k, const CostModel &model,
                           double dispatch_overhead);

/**
 * Measured hardware/OS counters attached to a roofline group — the
 * empirical sibling of the modeled classification. Filled from an
 * hwprof snapshot by attachMeasuredCounters; `valid` stays false on
 * hwprof-off runs so exporters can skip the block entirely.
 */
struct MeasuredGroup
{
    bool valid = false;
    /// True when the windows carried real PMU readings (hardware
    /// tier); IPC/miss-rate are meaningless otherwise.
    bool hw = false;
    double windows = 0.0;
    double instructions = 0.0;
    double cycles = 0.0;
    double cacheRefs = 0.0;
    double cacheMisses = 0.0;
    double branchMisses = 0.0;
    double stalledCycles = 0.0;
    double minorFaults = 0.0;
    double majorFaults = 0.0;
    double ctxSwitchesVol = 0.0;
    double ctxSwitchesInvol = 0.0;

    /** Measured instructions per cycle (0 when cycles == 0). */
    double ipc() const;

    /** Measured cache miss rate (0 when no references). */
    double missRate() const;
};

/**
 * Measured-classification thresholds, mirrored into the roofline
 * JSON so `gnnperf prof check` re-derives verdicts from the file
 * instead of trusting a possibly-drifted constant.
 */
constexpr double kMeasuredBandwidthMissRate = 0.30;
constexpr double kMeasuredDispatchInstrPerWindow = 20e3;

/**
 * Empirical bound class: too few instructions per launch window to
 * amortize anything -> Dispatch; cache miss rate at or above
 * kMeasuredBandwidthMissRate -> Bandwidth; else Compute. Only
 * meaningful when the group is hardware-tier.
 */
BoundClass measuredBound(const MeasuredGroup &m);

/**
 * Modeled-vs-measured agreement verdict: "agree"/"disagree" when the
 * group carries hardware-tier counters, "n/a" otherwise (software
 * tier has no IPC/miss-rate to judge with).
 */
const char *agreementVerdict(BoundClass modeled,
                             const MeasuredGroup &m);

/** Aggregated kernel-side attribution for one grouping key. */
struct RooflineGroup
{
    std::string name;
    std::size_t launches = 0;
    double flops = 0.0;
    double bytes = 0.0;
    double gpuSeconds = 0.0;
    double dispatchSeconds = 0.0;
    /** Elapsed (frontier) seconds attributed to this group. */
    double elapsedSeconds = 0.0;
    /** (GPU + dispatch) seconds per bound class. */
    std::array<double, kNumBoundClasses> boundSeconds{};
    std::array<std::size_t, kNumBoundClasses> boundLaunches{};

    /** Aggregate arithmetic intensity (flops per byte). */
    double intensity() const;

    /** Share of this group's kernel time in the given class, [0,1]. */
    double boundShare(BoundClass cls) const;

    /** Dominant bound class by time (Dispatch when empty). */
    BoundClass dominantBound() const;

    /** Measured counters for this group (valid only with --hwprof). */
    MeasuredGroup measured;
};

/** Aggregated host-op attribution for one HostOpKind. */
struct HostOpGroup
{
    std::string name;
    std::size_t ops = 0;
    double bytes = 0.0;
    double items = 0.0;
    double seconds = 0.0;         ///< priced host execution time
    double elapsedSeconds = 0.0;  ///< frontier seconds attributed
};

/** Full attribution report for one run (e.g. one model × backend). */
struct RooflineReport
{
    std::string label;         ///< e.g. "GatedGCN/DGL"
    std::size_t epochs = 0;    ///< traces merged into this report

    // Device parameters the records were priced with.
    double peakFlopsPerSec = 0.0;
    double peakBytesPerSec = 0.0;
    double dispatchOverhead = 0.0;

    double elapsed = 0.0;      ///< simulated wall-clock seconds
    double gpuBusy = 0.0;
    double hostBusy = 0.0;

    // Host-side effective parallelism: the pool width the run executed
    // with and the speedup the cost model credits that width with
    // (ParallelSpec::speedup). Keeps roofline claims honest about what
    // the host threads can actually deliver.
    int hostThreads = 1;
    double hostParallelSpeedup = 1.0;

    RooflineGroup total;       ///< all kernels together
    std::vector<RooflineGroup> byKernel;  ///< per kernel name
    std::vector<RooflineGroup> byLayer;   ///< per layer scope
    std::vector<RooflineGroup> byPhase;   ///< per training phase
    std::vector<HostOpGroup> byHostOp;    ///< per HostOpKind

    // Measured-counter tier the run executed under (hwprof::Tier
    // values; Off when --hwprof was not given) and the reason the
    // tier was chosen, quoted in reports so a fallback run says so.
    hwprof::Tier hwprofTier = hwprof::Tier::Off;
    std::string hwprofTierReason;

    /** GPU compute utilization (paper Eq. 5). */
    double
    utilization() const
    {
        return elapsed > 0.0 ? gpuBusy / elapsed : 0.0;
    }

    /** Flops-rate intensity where compute == memory time. */
    double
    ridgeIntensity() const
    {
        return peakBytesPerSec > 0.0
                   ? peakFlopsPerSec / peakBytesPerSec : 0.0;
    }

    /** Achieved fraction of the device's peak FLOP rate over elapsed. */
    double achievedFlopsFraction() const;

    /** Achieved fraction of the device's peak bandwidth over elapsed. */
    double achievedBandwidthFraction() const;
};

/**
 * Builds a RooflineReport from one or more traces (typically one per
 * epoch, fed by the trainers' trace observer).
 */
class RooflineAnalyzer
{
  public:
    RooflineAnalyzer(const CostModel &model, double dispatch_overhead,
                     std::string label);

    /** Classify and accumulate one trace (replayed internally). */
    void addTrace(const Trace &trace,
                  const std::vector<std::string> &layer_names);

    /** Number of traces accumulated so far. */
    std::size_t traces() const { return epochs_; }

    /** Finish: name-sorted groups, grand totals. */
    RooflineReport report() const;

  private:
    CostModel model_;
    double dispatch_;
    std::string label_;
    std::size_t epochs_ = 0;
    double elapsed_ = 0.0;
    double gpuBusy_ = 0.0;
    double hostBusy_ = 0.0;
    RooflineGroup total_;
    std::map<std::string, RooflineGroup> byKernel_;
    std::map<std::string, RooflineGroup> byLayer_;
    std::map<int, RooflineGroup> byPhase_;  ///< keyed by phase index
    std::map<int, HostOpGroup> byHostOp_;   ///< keyed by kind index
};

/**
 * One-shot convenience: analyze a single trace.
 */
RooflineReport analyzeRoofline(const Trace &trace, const CostModel &model,
                               double dispatch_overhead,
                               const std::vector<std::string> &layer_names,
                               std::string label);

/**
 * Merge the current hwprof aggregates into a finished report: the
 * by-kernel/layer/phase groups gain Measured counters matched by
 * name, and the report records the tier. No-op (report untouched)
 * when the profiler is off or has seen no windows, so hwprof-off
 * output is byte-identical.
 */
void attachMeasuredCounters(RooflineReport &report);

/** Same, from an explicit snapshot (testable without global state). */
void attachMeasuredCounters(RooflineReport &report,
                            const hwprof::Snapshot &snap);

/**
 * JSON for one report (schema documented in docs/OBSERVABILITY.md).
 * Numeric leaves only, so obs/diff.hh can align any two reports by
 * dotted path.
 */
std::string rooflineReportToJson(const RooflineReport &report);

/** JSON for a suite of reports, keyed by label. */
std::string rooflineSuiteToJson(const std::vector<RooflineReport> &suite);

/**
 * Fig-5-style utilization table: one row per report with utilization,
 * arithmetic intensity, achieved-vs-peak fractions and bound-class
 * time shares.
 */
std::string renderRooflineTable(const std::vector<RooflineReport> &suite);

/** Per-kernel-kind attribution table for one report. */
std::string renderRooflineKernels(const RooflineReport &report);

} // namespace gnnperf

#endif // GNNPERF_OBS_ROOFLINE_HH
