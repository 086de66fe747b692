/**
 * @file
 * `gnnperf trace` — inspect, self-check and merge execution traces.
 *
 * Operates on the object-format Chrome trace JSON written by
 * `gnnperf run --trace-out` / GNNPERF_TRACE (obs/exec_trace.hh):
 * `{"traceEvents":[...], "meta":..., "stats_peaks":...,
 * "peak_attribution":...}`.
 *
 *   summary FILE     print track/event counts and the peak-attribution
 *                    report
 *   check FILE       verify the exactness contract: the memory
 *                    counter-track maxima at or after the last
 *                    reset_peak marker per device equal the recorded
 *                    MemoryStats peaks, byte for byte
 *   merge OUT IN...  merge trace files into one (pids offset per input
 *                    so tracks stay distinct in the viewer)
 *
 * Exit codes: 0 = ok, 1 = check failed, 2 = bad usage or
 * unreadable/unparsable input.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/fs.hh"
#include "common/json.hh"

#include "gnnperf.hh"

namespace gnnperf {
namespace cli {

namespace {

/**
 * Load a trace file and return its traceEvents array (the bare-array
 * form is accepted too), or nullptr after saying why on stderr.
 */
const JsonValue *
loadTrace(const std::string &path, JsonValue &doc)
{
    if (!loadJson(path, doc))
        return nullptr;
    const JsonValue *events =
        doc.isArray() ? &doc : doc.find("traceEvents");
    if (events == nullptr || !events->isArray()) {
        std::fprintf(stderr, "gnnperf: %s: no traceEvents\n",
                     path.c_str());
        return nullptr;
    }
    return events;
}

/** Per-device recomputation of the counter-track maxima. */
struct DeviceWindow
{
    double lastResetTs = -1.0;
    std::size_t logicalMax = 0;
    std::size_t reservedMax = 0;
    std::size_t counterEvents = 0;
};

/**
 * Scan the memory counter track of one device: find the last
 * reset_peak marker, then the logical/reserved maxima over counter
 * samples at or after it.
 */
DeviceWindow
scanDevice(const JsonValue &events, const std::string &device)
{
    const std::string counter_name = "mem." + device;
    DeviceWindow w;
    // Pass 1: the last reset_peak instant on this device's row.
    for (const JsonValue &ev : events.array) {
        if (ev.at("name").str == "reset_peak" &&
            ev.at("cat").str == counter_name)
            w.lastResetTs = std::max(w.lastResetTs,
                                     ev.at("ts").asNumber());
    }
    // Pass 2: maxima over the final measurement window.
    for (const JsonValue &ev : events.array) {
        if (ev.at("name").str != counter_name ||
            ev.at("ph").str != "C")
            continue;
        ++w.counterEvents;
        if (ev.at("ts").asNumber() < w.lastResetTs)
            continue;
        const JsonValue &args = ev.at("args");
        w.logicalMax = std::max(
            w.logicalMax,
            static_cast<std::size_t>(args.at("logical").asNumber()));
        w.reservedMax = std::max(
            w.reservedMax,
            static_cast<std::size_t>(args.at("reserved").asNumber()));
    }
    return w;
}

bool
checkDevice(const JsonValue &doc, const JsonValue &events,
            const std::string &device)
{
    const DeviceWindow w = scanDevice(events, device);
    const JsonValue &peaks = doc.at("stats_peaks").at(device);
    const auto logical =
        static_cast<std::size_t>(peaks.at("logical").asNumber());
    const auto reserved =
        static_cast<std::size_t>(peaks.at("reserved").asNumber());
    bool ok = true;
    if (w.logicalMax != logical) {
        std::fprintf(stderr,
                     "FAIL %s: logical counter max %zu != stats peak "
                     "%zu\n",
                     device.c_str(), w.logicalMax, logical);
        ok = false;
    }
    if (w.reservedMax != reserved) {
        std::fprintf(stderr,
                     "FAIL %s: reserved counter max %zu != stats peak "
                     "%zu\n",
                     device.c_str(), w.reservedMax, reserved);
        ok = false;
    }
    // Attribution sanity: tracked live bytes never exceed the level.
    for (const char *which : {"logical", "reserved"}) {
        const JsonValue &snap =
            doc.at("peak_attribution").at(device).at(which);
        if (snap.isNull())
            continue;
        const auto total =
            static_cast<std::size_t>(snap.at("total_bytes").asNumber());
        const auto tracked = static_cast<std::size_t>(
            snap.at("tracked_bytes").asNumber());
        if (tracked > total) {
            std::fprintf(stderr,
                         "FAIL %s/%s: tracked bytes %zu > total %zu\n",
                         device.c_str(), which, tracked, total);
            ok = false;
        }
    }
    if (ok) {
        std::printf("ok %s: logical peak %zu, reserved peak %zu "
                    "(%zu counter samples)\n",
                    device.c_str(), logical, reserved,
                    w.counterEvents);
    }
    return ok;
}

int
cmdCheck(const std::string &path)
{
    JsonValue doc;
    const JsonValue *events = loadTrace(path, doc);
    if (events == nullptr)
        return 2;
    bool ok = checkDevice(doc, *events, "cuda");
    ok = checkDevice(doc, *events, "host") && ok;
    return ok ? 0 : 1;
}

void
printSnapshot(const char *device, const char *which,
              const JsonValue &snap)
{
    if (!snap.at("valid").boolean) {
        std::printf("  %s %s peak: (none recorded)\n", device, which);
        return;
    }
    std::printf("  %s %s peak: %.0f bytes in phase %s", device, which,
                snap.at("total_bytes").asNumber(),
                snap.at("phase").str.c_str());
    if (!snap.at("layer").str.empty())
        std::printf(", layer %s", snap.at("layer").str.c_str());
    if (!snap.at("span").str.empty())
        std::printf(", span %s", snap.at("span").str.c_str());
    std::printf("\n");
    for (const JsonValue &block : snap.at("top_blocks").array) {
        std::printf("    block #%.0f: %.0f bytes (%s%s%s)\n",
                    block.at("id").asNumber(),
                    block.at("bytes").asNumber(),
                    block.at("phase").str.c_str(),
                    block.at("layer").str.empty() ? "" : ", ",
                    block.at("layer").str.c_str());
    }
}

int
cmdSummary(const std::string &path)
{
    JsonValue doc;
    const JsonValue *events = loadTrace(path, doc);
    if (events == nullptr)
        return 2;

    // Event counts per pid (track group).
    std::vector<std::pair<int, std::size_t>> by_pid;
    for (const JsonValue &ev : events->array) {
        const int pid = static_cast<int>(ev.at("pid").asNumber());
        bool found = false;
        for (auto &[p, n] : by_pid) {
            if (p == pid) {
                ++n;
                found = true;
            }
        }
        if (!found)
            by_pid.emplace_back(pid, 1);
    }
    std::printf("%s: %zu events in %zu track groups\n", path.c_str(),
                events->array.size(), by_pid.size());
    for (const auto &[pid, n] : by_pid)
        std::printf("  pid %d: %zu events\n", pid, n);

    const JsonValue &meta = doc.at("meta");
    if (meta.isObject()) {
        std::printf("  backend %s, %0.f simulated epochs, "
                    "%.0f spans (%.0f dropped), %.0f mem events "
                    "(%.0f dropped)\n",
                    meta.at("backend").str.c_str(),
                    meta.at("simulated_epochs").asNumber(),
                    meta.at("span_count").asNumber(),
                    meta.at("spans_dropped").asNumber(),
                    meta.at("mem_event_count").asNumber(),
                    meta.at("mem_events_dropped").asNumber());
    }
    const JsonValue &attribution = doc.at("peak_attribution");
    if (attribution.isObject()) {
        for (const char *device : {"cuda", "host"}) {
            for (const char *which : {"logical", "reserved"}) {
                printSnapshot(device, which,
                              attribution.at(device).at(which));
            }
        }
    }
    return 0;
}

/** Shift every pid in an event list so merged inputs stay distinct. */
void
offsetPids(JsonValue &events, double offset)
{
    for (JsonValue &ev : events.array) {
        for (auto &[key, value] : ev.object) {
            if (key == "pid" && value.isNumber())
                value.number += offset;
        }
    }
}

int
cmdMerge(const std::string &out_path,
         const std::vector<std::string> &inputs)
{
    JsonValue merged;
    merged.type = JsonValue::Type::Object;
    JsonValue all_events;
    all_events.type = JsonValue::Type::Array;
    JsonValue sources;
    sources.type = JsonValue::Type::Array;

    for (std::size_t i = 0; i < inputs.size(); ++i) {
        JsonValue doc;
        const JsonValue *events = loadTrace(inputs[i], doc);
        if (events == nullptr)
            return 2;
        JsonValue copy = *events;
        // 100 pids per input leaves room for every track group.
        offsetPids(copy, static_cast<double>(i) * 100.0);
        for (JsonValue &ev : copy.array)
            all_events.array.push_back(std::move(ev));
        JsonValue src;
        src.type = JsonValue::Type::String;
        src.str = inputs[i];
        sources.array.push_back(std::move(src));
    }
    merged.object.emplace_back("traceEvents", std::move(all_events));
    merged.object.emplace_back("merged_from", std::move(sources));
    writeFile(out_path, jsonToString(merged) + "\n");
    std::printf("wrote %s (%zu inputs)\n", out_path.c_str(),
                inputs.size());
    return 0;
}

int
traceBody(const Args &args)
{
    const std::vector<std::string> &pos = args.positionals;
    if (pos[0] == "summary" && pos.size() == 2)
        return cmdSummary(pos[1]);
    if (pos[0] == "check" && pos.size() == 2)
        return cmdCheck(pos[1]);
    if (pos[0] == "merge" && pos.size() >= 3)
        return cmdMerge(pos[1], {pos.begin() + 2, pos.end()});
    throw UsageError("expected summary FILE, check FILE or merge OUT "
                     "IN...");
}

} // namespace

const Command kTrace = {
    .name = "trace",
    .synopsis = "summary FILE | check FILE | merge OUT IN...",
    .summary = "Summarize, verify (counter maxima == stats peaks) or "
               "merge execution traces.",
    .options = {},
    .minArgs = 2,
    .maxArgs = SIZE_MAX,
    .body = traceBody,
};

} // namespace cli
} // namespace gnnperf
