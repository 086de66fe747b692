/**
 * @file
 * Unified execution trace: one Chrome/Perfetto JSON file merging
 * three synchronized views of a run.
 *
 *  - pid 1 "gnnperf simulated" — the modeled execution: per-epoch
 *    Profiler traces priced by the cost model (host dispatch on tid 1,
 *    GPU stream on tid 2), epochs laid back to back on the simulated
 *    clock. This is the paper's nvprof/Nsight kernel timeline.
 *  - pid 2 "gnnperf host (real)" — wall-clock HostSpan slices from
 *    the SpanTracer (obs/spans.hh): dataloader batches, collation,
 *    epochs — what the host actually spent time on.
 *  - pid 3 "gnnperf memory" — logical/reserved counter tracks per
 *    device sampled from the MemTracer's allocator events
 *    (obs/memtrace.hh), plus instant markers for split/coalesce/trim/
 *    emptyCache/resetPeak. The counter maxima at-or-after the last
 *    reset_peak marker equal the DeviceManager's MemoryStats peaks
 *    exactly.
 *
 * The two clocks are independent: pid 1 runs on the modeled timeline
 * (starts at 0, epochs concatenated), pids 2–3 on the process-wide
 * steady-clock epoch of SpanTracer::nowUs(). The file is the *object*
 * Chrome trace format — `{"traceEvents":[...]}` with extra top-level
 * keys `meta`, `stats_peaks` and `peak_attribution` (the "who owns
 * the peak" report) that `gnnperf trace` reads back.
 */

#ifndef GNNPERF_OBS_EXEC_TRACE_HH
#define GNNPERF_OBS_EXEC_TRACE_HH

#include <atomic>
#include <cstddef>
#include <mutex>
#include <string>

#include "device/device.hh"
#include "device/trace.hh"

namespace gnnperf {

/**
 * Process-wide accumulator for the merged trace. Enabling turns on
 * the SpanTracer and MemTracer; the trainer's replay hook feeds each
 * epoch's simulated trace in before it is cleared.
 */
class ExecTrace
{
  public:
    /** The process-wide instance (leaked, like the tracers). */
    static ExecTrace &instance();

    /**
     * Start collecting: clears prior state and enables the SpanTracer
     * and MemTracer (the latter resets the DeviceManager peaks so the
     * stats and the trace describe the same window).
     */
    void enable();

    /** Stop collecting (keeps accumulated state for export). */
    void disable();

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Append one epoch's simulated trace (priced with the default
     * cost model) to the pid-1 track, laid after previously captured
     * epochs. Branch + return when disabled; the trainer calls this
     * from its replay hook just before clearing the Profiler trace.
     */
    void captureSimulated(const Trace &trace, double dispatch_overhead,
                          const std::string &label);

    /** Simulated epochs captured so far. */
    std::size_t capturedEpochs() const;

    /** Render the merged trace (object-format Chrome JSON). */
    std::string toJson() const;

    /** Write toJson() to a file (fatal on I/O error). */
    void writeTo(const std::string &path) const;

    /**
     * Human-readable "who owns the peak" table for one device:
     * logical and reserved peak context plus the top live blocks.
     */
    std::string peakTable(DeviceKind device) const;

    /** Drop accumulated simulated events and reset the tracers. */
    void reset();

  private:
    ExecTrace() = default;

    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::string simEvents_;    ///< ",\n{...}" pid-1 event fragments
    double simEndUs_ = 0.0;    ///< simulated clock after last epoch
    std::size_t simEpochs_ = 0;
    std::string label_;        ///< backend label of the last capture
};

/**
 * Resolve a GNNPERF_TRACE / `gnnperf run --trace-out` value to the
 * file the merged trace is written to: "" means no trace; "1" means
 * `<prefix>.trace.json` inside GNNPERF_CSV_DIR (created when
 * missing), or no trace when that is unset; anything else is the
 * file itself.
 */
std::string traceOutputPath(const std::string &value,
                            const std::string &prefix);

} // namespace gnnperf

#endif // GNNPERF_OBS_EXEC_TRACE_HH
