/**
 * @file
 * Trace export: Chrome trace-event JSON (chrome://tracing /
 * Perfetto) for simulated traces.
 *
 * The paper inspects executions with nvprof/Nsight timelines; this is
 * the offline equivalent — replaying a recorded trace against the
 * cost model produces host-thread and GPU-stream tracks with the same
 * async-launch semantics the Timeline uses, viewable in any Chrome
 * trace viewer.
 */

#ifndef GNNPERF_DEVICE_TRACE_EXPORT_HH
#define GNNPERF_DEVICE_TRACE_EXPORT_HH

#include <string>

#include "device/cost_model.hh"
#include "device/trace.hh"

namespace gnnperf {

/** `{"name":"process_name",...}` metadata event (no trailing comma). */
std::string chromeProcessName(int pid, const std::string &name);

/** `{"name":"thread_name",...}` metadata event (no trailing comma). */
std::string chromeThreadName(int pid, int tid, const std::string &name);

/**
 * Append the priced slices of one trace to a Chrome trace-event
 * stream under the given pid (tid 1 = host, tid 2 = GPU stream),
 * starting at `start_ts_us` on the simulated clock; returns the µs
 * timestamp where the appended slices end, so successive epochs can
 * be laid out back to back. Every emitted event is preceded by ",\n",
 * so the caller must have written at least one event already. The
 * merged execution trace (obs/exec_trace.hh) lays every simulated
 * epoch out through this.
 */
double appendChromeTraceEvents(std::string &out, const Trace &trace,
                               const CostModel &model,
                               double dispatch_overhead, int pid,
                               double start_ts_us = 0.0);

} // namespace gnnperf

#endif // GNNPERF_DEVICE_TRACE_EXPORT_HH
