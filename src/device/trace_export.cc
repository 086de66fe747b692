#include "device/trace_export.hh"

#include <algorithm>

#include "common/string_utils.hh"

namespace gnnperf {

std::string
chromeProcessName(int pid, const std::string &name)
{
    return strprintf("{\"name\":\"process_name\",\"ph\":\"M\","
                     "\"pid\":%d,\"args\":{\"name\":\"%s\"}}",
                     pid, jsonEscape(name).c_str());
}

std::string
chromeThreadName(int pid, int tid, const std::string &name)
{
    return strprintf("{\"name\":\"thread_name\",\"ph\":\"M\","
                     "\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                     pid, tid, jsonEscape(name).c_str());
}

double
appendChromeTraceEvents(std::string &out, const Trace &trace,
                        const CostModel &model,
                        double dispatch_overhead, int pid,
                        double start_ts_us)
{
    double host = start_ts_us * 1e-6;
    double gpu_free = host;
    for (const auto &entry : trace.entries()) {
        if (entry.isKernel) {
            const auto &k = entry.kernel;
            const double dur = model.kernelTime(k);
            const std::string name = jsonEscape(k.name);
            // Host-side launch slice.
            out += strprintf(
                ",\n{\"name\":\"launch %s\",\"cat\":\"%s\",\"ph\":\"X\","
                "\"pid\":%d,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                name.c_str(), phaseName(k.phase), pid, host * 1e6,
                dispatch_overhead * 1e6);
            host += dispatch_overhead;
            const double start = std::max(host, gpu_free);
            gpu_free = start + dur;
            out += strprintf(
                ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                "\"pid\":%d,\"tid\":2,\"ts\":%.3f,\"dur\":%.3f,"
                "\"args\":{\"flops\":%.0f,\"bytes\":%.0f}}",
                name.c_str(), phaseName(k.phase), pid, start * 1e6,
                dur * 1e6, k.flops, k.bytes);
        } else {
            const auto &h = entry.host;
            const double dur = model.hostTime(h);
            out += strprintf(
                ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                "\"pid\":%d,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                "\"args\":{\"bytes\":%.0f,\"items\":%.0f}}",
                jsonEscape(h.name).c_str(), phaseName(h.phase), pid,
                host * 1e6, dur * 1e6, h.bytes, h.items);
            host += dur;
        }
    }
    return std::max(host, gpu_free) * 1e6;
}

} // namespace gnnperf
