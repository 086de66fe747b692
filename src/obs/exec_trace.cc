#include "obs/exec_trace.hh"

#include <algorithm>

#include "common/buildinfo.hh"
#include "common/env.hh"
#include "common/fs.hh"
#include "common/logging.hh"
#include "common/string_utils.hh"
#include "common/table.hh"
#include "device/cost_model.hh"
#include "device/profiler.hh"
#include "device/trace_export.hh"
#include "obs/hwprof.hh"
#include "obs/memtrace.hh"
#include "obs/spans.hh"

namespace gnnperf {

namespace {

// Process ids of the four track groups in the merged file.
constexpr int kSimPid = 1;
constexpr int kHostPid = 2;
constexpr int kMemPid = 3;
constexpr int kProfPid = 4;

// pid-3 thread ids: one row of markers per device.
constexpr int kCudaTid = 1;
constexpr int kHostDevTid = 2;

int
memTid(DeviceKind device)
{
    return device == DeviceKind::Cuda ? kCudaTid : kHostDevTid;
}

/** Span layer id → name via the Profiler's current interning. */
std::string
layerNameOf(int16_t layer)
{
    if (layer < 0)
        return "";
    const auto &names = Profiler::instance().layerNames();
    const auto idx = static_cast<std::size_t>(layer);
    return idx < names.size() ? names[idx] : "";
}

/** One PeakSnapshot as a JSON object. */
std::string
snapshotJson(const PeakSnapshot &snap)
{
    std::string out = strprintf(
        "{\"valid\":%s,\"ts_us\":%.3f,\"phase\":\"%s\","
        "\"layer\":\"%s\",\"span\":\"%s\",\"total_bytes\":%zu,"
        "\"tracked_bytes\":%zu,\"live_blocks\":%zu,\"top_blocks\":[",
        snap.valid ? "true" : "false", snap.tsUs, phaseName(snap.phase),
        jsonEscape(snap.layer).c_str(), jsonEscape(snap.span).c_str(),
        snap.totalBytes, snap.trackedBytes, snap.liveBlockCount);
    for (std::size_t i = 0; i < snap.topBlocks.size(); ++i) {
        const PeakBlockInfo &b = snap.topBlocks[i];
        out += strprintf(
            "%s{\"id\":%llu,\"bytes\":%zu,\"phase\":\"%s\","
            "\"layer\":\"%s\",\"alloc_ts_us\":%.3f}",
            i == 0 ? "" : ",",
            static_cast<unsigned long long>(b.id), b.bytes,
            phaseName(b.phase), jsonEscape(b.layer).c_str(),
            b.allocTsUs);
    }
    out += "]}";
    return out;
}

/** Both peak snapshots of one device as a JSON object. */
std::string
devicePeaksJson(const MemTracer &tracer, DeviceKind device)
{
    return strprintf(
        "{\"logical\":%s,\"reserved\":%s}",
        snapshotJson(tracer.logicalPeak(device)).c_str(),
        snapshotJson(tracer.reservedPeak(device)).c_str());
}

/** Append the pid-2 real host-span slices (and thread names). */
void
appendHostSpans(std::string &out)
{
    const SpanTracer &tracer = SpanTracer::instance();
    const std::vector<SpanRecord> spans = tracer.snapshot();
    const std::vector<std::string> names = tracer.names();

    int32_t max_tid = 0;
    for (const SpanRecord &s : spans)
        max_tid = std::max(max_tid, s.tid);
    out += ",\n" + chromeProcessName(kHostPid, "gnnperf host (real)");
    for (int32_t t = 0; t <= max_tid; ++t) {
        out += ",\n" + chromeThreadName(
                           kHostPid, t + 1,
                           strprintf("host thread %d", t));
    }

    for (const SpanRecord &s : spans) {
        const auto idx = static_cast<std::size_t>(s.nameId);
        const std::string name =
            idx < names.size() ? jsonEscape(names[idx]) : "?";
        out += strprintf(
            ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
            "\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
            "\"args\":{\"layer\":\"%s\"}}",
            name.c_str(), phaseName(s.phase), kHostPid, s.tid + 1,
            s.startUs, s.durUs,
            jsonEscape(layerNameOf(s.layer)).c_str());
    }
}

/** Append the pid-3 memory counter tracks and allocator markers. */
void
appendMemoryTrack(std::string &out)
{
    const std::vector<MemEvent> events = MemTracer::instance().events();

    out += ",\n" + chromeProcessName(kMemPid, "gnnperf memory");
    out += ",\n" + chromeThreadName(kMemPid, kCudaTid, "cuda events");
    out += ",\n" + chromeThreadName(kMemPid, kHostDevTid, "host events");

    for (const MemEvent &ev : events) {
        // Every event samples the post-event levels: one counter
        // point per event gives the exact step curve.
        out += strprintf(
            ",\n{\"name\":\"mem.%s\",\"ph\":\"C\",\"pid\":%d,"
            "\"tid\":%d,\"ts\":%.3f,"
            "\"args\":{\"logical\":%zu,\"reserved\":%zu}}",
            deviceName(ev.device), kMemPid, memTid(ev.device), ev.tsUs,
            ev.logicalBytes, ev.reservedBytes);
        // Alloc/free are the counter steps themselves; the rarer
        // allocator actions additionally get an instant marker.
        if (ev.kind == MemEventKind::Alloc ||
            ev.kind == MemEventKind::Free) {
            continue;
        }
        out += strprintf(
            ",\n{\"name\":\"%s\",\"cat\":\"mem.%s\",\"ph\":\"i\","
            "\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
            "\"args\":{\"bytes\":%zu}}",
            memEventName(ev.kind), deviceName(ev.device), kMemPid,
            memTid(ev.device), ev.tsUs, ev.bytes);
    }
}

/**
 * Append the pid-4 hardware-counter tracks: one cumulative counter
 * point per phase boundary. Emitted only when hwprof collected
 * samples, so hwprof-off traces are unchanged.
 */
void
appendHwprofTrack(std::string &out)
{
    if (!hwprof::enabled())
        return;
    const hwprof::Snapshot snap = hwprof::snapshot();
    if (snap.series.empty())
        return;

    out += ",\n" + chromeProcessName(
                       kProfPid,
                       strprintf("gnnperf hw counters (%s tier)",
                                 hwprof::tierName(snap.tier)));
    out += ",\n" + chromeThreadName(kProfPid, 1, "counters");
    out += ",\n" + chromeThreadName(kProfPid, 2, "rss");

    for (const hwprof::TimedSample &ts : snap.series) {
        if (snap.tier == hwprof::Tier::Hardware) {
            out += strprintf(
                ",\n{\"name\":\"hwprof.counters\",\"ph\":\"C\","
                "\"pid\":%d,\"tid\":1,\"ts\":%.3f,"
                "\"args\":{\"cycles\":%llu,\"instructions\":%llu,"
                "\"cache_misses\":%llu}}",
                kProfPid, ts.tsUs,
                static_cast<unsigned long long>(
                    ts.total[hwprof::kCycles]),
                static_cast<unsigned long long>(
                    ts.total[hwprof::kInstructions]),
                static_cast<unsigned long long>(
                    ts.total[hwprof::kCacheMisses]));
        }
        out += strprintf(
            ",\n{\"name\":\"hwprof.faults\",\"ph\":\"C\","
            "\"pid\":%d,\"tid\":1,\"ts\":%.3f,"
            "\"args\":{\"minor\":%llu,\"major\":%llu,"
            "\"ctx_switches\":%llu}}",
            kProfPid, ts.tsUs,
            static_cast<unsigned long long>(
                ts.total[hwprof::kMinorFaults]),
            static_cast<unsigned long long>(
                ts.total[hwprof::kMajorFaults]),
            static_cast<unsigned long long>(
                ts.total[hwprof::kCtxSwitchesVol] +
                ts.total[hwprof::kCtxSwitchesInvol]));
        out += strprintf(
            ",\n{\"name\":\"hwprof.rss\",\"ph\":\"C\","
            "\"pid\":%d,\"tid\":2,\"ts\":%.3f,"
            "\"args\":{\"bytes\":%zu}}",
            kProfPid, ts.tsUs, ts.rssBytes);
    }
}

/** One table section for a peak snapshot. */
void
addPeakRows(TextTable &table, const char *which,
            const PeakSnapshot &snap)
{
    if (!snap.valid) {
        table.addRow({which, "(no events recorded)", "", "", ""});
        return;
    }
    table.addRow({which,
                  strprintf("peak %s", formatBytes(snap.totalBytes).c_str()),
                  phaseName(snap.phase),
                  snap.layer.empty() ? "-" : snap.layer,
                  snap.span.empty() ? "-" : snap.span});
    for (const PeakBlockInfo &b : snap.topBlocks) {
        table.addRow({"",
                      strprintf("block #%llu %s",
                                static_cast<unsigned long long>(b.id),
                                formatBytes(b.bytes).c_str()),
                      phaseName(b.phase),
                      b.layer.empty() ? "-" : b.layer, ""});
    }
    if (snap.totalBytes > snap.trackedBytes) {
        table.addRow({"",
                      strprintf("untracked %s (pre-trace)",
                                formatBytes(snap.totalBytes -
                                            snap.trackedBytes)
                                    .c_str()),
                      "", "", ""});
    }
}

} // namespace

ExecTrace &
ExecTrace::instance()
{
    // Leaked like the tracers it drives.
    static ExecTrace *trace = new ExecTrace();  // lint:allow leaked singleton
    return *trace;
}

void
ExecTrace::enable()
{
    reset();
    SpanTracer::instance().setEnabled(true);
    MemTracer::instance().setEnabled(true);
    enabled_.store(true, std::memory_order_relaxed);
}

void
ExecTrace::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
    SpanTracer::instance().setEnabled(false);
    MemTracer::instance().setEnabled(false);
}

void
ExecTrace::captureSimulated(const Trace &trace,
                            double dispatch_overhead,
                            const std::string &label)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    simEndUs_ = appendChromeTraceEvents(simEvents_, trace,
                                        CostModel::defaultModel(),
                                        dispatch_overhead, kSimPid,
                                        simEndUs_);
    ++simEpochs_;
    label_ = label;
}

std::size_t
ExecTrace::capturedEpochs() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return simEpochs_;
}

std::string
ExecTrace::toJson() const
{
    const MemTracer &mem = MemTracer::instance();
    const DeviceManager &dm = DeviceManager::instance();

    std::string out = "{\n\"traceEvents\": [\n";
    out += chromeProcessName(kSimPid, "gnnperf simulated") + ",\n";
    out += chromeThreadName(kSimPid, 1, "host dispatch") + ",\n";
    out += chromeThreadName(kSimPid, 2, "gpu stream");
    {
        std::lock_guard<std::mutex> lock(mu_);
        out += simEvents_;
    }
    appendHostSpans(out);
    appendMemoryTrack(out);
    appendHwprofTrack(out);
    out += "\n],\n";

    {
        std::lock_guard<std::mutex> lock(mu_);
        out += strprintf(
            "\"meta\": {\"tool\":\"gnnperf\",\"backend\":\"%s\","
            "\"simulated_epochs\":%zu,\"sim_end_us\":%.3f,"
            "\"span_count\":%zu,\"spans_dropped\":%zu,"
            "\"mem_event_count\":%zu,\"mem_events_dropped\":%zu,"
            "\"provenance\":%s},\n",
            jsonEscape(label_).c_str(), simEpochs_, simEndUs_,
            SpanTracer::instance().recordedCount(),
            SpanTracer::instance().droppedCount(), mem.events().size(),
            mem.droppedCount(), buildinfo::metaJson().c_str());
    }

    // The self-check contract: counter maxima at-or-after the last
    // reset_peak marker per device must equal these numbers exactly.
    out += strprintf(
        "\"stats_peaks\": {"
        "\"cuda\":{\"logical\":%zu,\"reserved\":%zu},"
        "\"host\":{\"logical\":%zu,\"reserved\":%zu}},\n",
        dm.peak(DeviceKind::Cuda), dm.reservedPeak(DeviceKind::Cuda),
        dm.peak(DeviceKind::Host), dm.reservedPeak(DeviceKind::Host));

    out += "\"peak_attribution\": {\"cuda\":" +
           devicePeaksJson(mem, DeviceKind::Cuda) +
           ",\"host\":" + devicePeaksJson(mem, DeviceKind::Host) +
           "}\n}\n";
    return out;
}

void
ExecTrace::writeTo(const std::string &path) const
{
    writeFile(path, toJson());
}

std::string
ExecTrace::peakTable(DeviceKind device) const
{
    const MemTracer &mem = MemTracer::instance();
    TextTable table;
    table.setHeader({"peak", "owner", "phase", "layer", "span"});
    addPeakRows(table, "logical", mem.logicalPeak(device));
    table.addSeparator();
    addPeakRows(table, "reserved", mem.reservedPeak(device));
    return strprintf("%s memory peak attribution\n",
                     deviceName(device)) +
           table.render();
}

void
ExecTrace::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    simEvents_.clear();
    simEndUs_ = 0.0;
    simEpochs_ = 0;
    label_.clear();
    SpanTracer::instance().reset();
    MemTracer::instance().reset();
}

std::string
traceOutputPath(const std::string &value, const std::string &prefix)
{
    if (value != "1")
        return value;
    const std::string dir = envString("GNNPERF_CSV_DIR", "");
    if (dir.empty())
        return "";
    if (!ensureDir(dir))
        gnnperf_fatal("GNNPERF_CSV_DIR=", dir,
                      ": not a directory and could not be created");
    return dir + "/" + prefix + ".trace.json";
}

} // namespace gnnperf
