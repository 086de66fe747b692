#include "obs/roofline.hh"

#include <algorithm>
#include <cmath>

#include "common/buildinfo.hh"
#include "common/string_utils.hh"
#include "common/table.hh"
#include "parallel/thread_pool.hh"

namespace gnnperf {

const char *
boundClassName(BoundClass cls)
{
    switch (cls) {
      case BoundClass::Compute: return "compute";
      case BoundClass::Bandwidth: return "bandwidth";
      case BoundClass::Dispatch: return "dispatch";
    }
    return "?";
}

KernelBound
classifyKernel(const KernelRecord &k, const CostModel &model,
               double dispatch_overhead)
{
    KernelBound b;
    b.computeSeconds = k.flops / model.gpu.flopsPerSec;
    b.memorySeconds = k.bytes / model.gpu.bytesPerSec;
    b.overheadSeconds = model.gpu.kernelOverhead;
    b.dispatchSeconds = dispatch_overhead;
    b.gpuSeconds = model.kernelTime(k);
    b.intensity = k.bytes > 0.0 ? k.flops / k.bytes : 0.0;
    const double work = std::max(b.computeSeconds, b.memorySeconds);
    const double fixed = b.overheadSeconds + b.dispatchSeconds;
    if (work < fixed)
        b.cls = BoundClass::Dispatch;
    else if (b.computeSeconds >= b.memorySeconds)
        b.cls = BoundClass::Compute;
    else
        b.cls = BoundClass::Bandwidth;
    return b;
}

double
MeasuredGroup::ipc() const
{
    return cycles > 0.0 ? instructions / cycles : 0.0;
}

double
MeasuredGroup::missRate() const
{
    return cacheRefs > 0.0 ? cacheMisses / cacheRefs : 0.0;
}

BoundClass
measuredBound(const MeasuredGroup &m)
{
    if (m.windows <= 0.0 ||
        m.instructions / m.windows < kMeasuredDispatchInstrPerWindow)
        return BoundClass::Dispatch;
    if (m.missRate() >= kMeasuredBandwidthMissRate)
        return BoundClass::Bandwidth;
    return BoundClass::Compute;
}

const char *
agreementVerdict(BoundClass modeled, const MeasuredGroup &m)
{
    if (!m.valid || !m.hw)
        return "n/a";
    return measuredBound(m) == modeled ? "agree" : "disagree";
}

double
RooflineGroup::intensity() const
{
    return bytes > 0.0 ? flops / bytes : 0.0;
}

double
RooflineGroup::boundShare(BoundClass cls) const
{
    double total = 0.0;
    for (double s : boundSeconds)
        total += s;
    return total > 0.0
               ? boundSeconds[static_cast<int>(cls)] / total : 0.0;
}

BoundClass
RooflineGroup::dominantBound() const
{
    int best = static_cast<int>(BoundClass::Dispatch);
    for (int c = 0; c < kNumBoundClasses; ++c) {
        if (boundSeconds[c] > boundSeconds[best])
            best = c;
    }
    return static_cast<BoundClass>(best);
}

double
RooflineReport::achievedFlopsFraction() const
{
    if (elapsed <= 0.0 || peakFlopsPerSec <= 0.0)
        return 0.0;
    return (total.flops / elapsed) / peakFlopsPerSec;
}

double
RooflineReport::achievedBandwidthFraction() const
{
    if (elapsed <= 0.0 || peakBytesPerSec <= 0.0)
        return 0.0;
    return (total.bytes / elapsed) / peakBytesPerSec;
}

RooflineAnalyzer::RooflineAnalyzer(const CostModel &model,
                                   double dispatch_overhead,
                                   std::string label)
    : model_(model), dispatch_(dispatch_overhead),
      label_(std::move(label))
{
    total_.name = "total";
}

namespace {

void
addKernelTo(RooflineGroup &g, const KernelRecord &k,
            const KernelBound &b, double frontier_delta)
{
    ++g.launches;
    g.flops += k.flops;
    g.bytes += k.bytes;
    g.gpuSeconds += b.gpuSeconds;
    g.dispatchSeconds += b.dispatchSeconds;
    g.elapsedSeconds += frontier_delta;
    g.boundSeconds[static_cast<int>(b.cls)] +=
        b.gpuSeconds + b.dispatchSeconds;
    ++g.boundLaunches[static_cast<int>(b.cls)];
}

} // namespace

void
RooflineAnalyzer::addTrace(const Trace &trace,
                           const std::vector<std::string> &layer_names)
{
    auto layerKey = [&](int16_t layer) -> std::string {
        if (layer >= 0 &&
            static_cast<std::size_t>(layer) < layer_names.size())
            return layer_names[static_cast<std::size_t>(layer)];
        return "(none)";
    };

    TimelineResult t = Timeline::replay(
        trace, model_, dispatch_, {},
        [&](const RecordTiming &rt) {
            if (rt.entry.isKernel) {
                const KernelRecord &k = rt.entry.kernel;
                const KernelBound b =
                    classifyKernel(k, model_, dispatch_);
                addKernelTo(total_, k, b, rt.frontierDelta);

                RooflineGroup &kg = byKernel_[k.name];
                kg.name = k.name;
                addKernelTo(kg, k, b, rt.frontierDelta);

                RooflineGroup &lg = byLayer_[layerKey(k.layer)];
                lg.name = layerKey(k.layer);
                addKernelTo(lg, k, b, rt.frontierDelta);

                RooflineGroup &pg =
                    byPhase_[static_cast<int>(k.phase)];
                pg.name = phaseName(k.phase);
                addKernelTo(pg, k, b, rt.frontierDelta);
            } else {
                const HostRecord &h = rt.entry.host;
                HostOpGroup &hg =
                    byHostOp_[static_cast<int>(h.kind)];
                if (hg.name.empty())
                    hg.name = hostOpKindName(h.kind);
                ++hg.ops;
                hg.bytes += h.bytes;
                hg.items += h.items;
                hg.seconds += rt.duration;
                hg.elapsedSeconds += rt.frontierDelta;

                // Host ops still advance the frontier inside a layer
                // or phase; charge them so the shares sum to 100%.
                RooflineGroup &lg = byLayer_[layerKey(h.layer)];
                lg.name = layerKey(h.layer);
                lg.elapsedSeconds += rt.frontierDelta;
                RooflineGroup &pg =
                    byPhase_[static_cast<int>(h.phase)];
                pg.name = phaseName(h.phase);
                pg.elapsedSeconds += rt.frontierDelta;
            }
        });

    ++epochs_;
    elapsed_ += t.elapsed;
    gpuBusy_ += t.gpuBusy;
    hostBusy_ += t.hostBusy;
}

RooflineReport
RooflineAnalyzer::report() const
{
    RooflineReport r;
    r.label = label_;
    r.epochs = epochs_;
    r.peakFlopsPerSec = model_.gpu.flopsPerSec;
    r.peakBytesPerSec = model_.gpu.bytesPerSec;
    r.dispatchOverhead = dispatch_;
    r.elapsed = elapsed_;
    r.gpuBusy = gpuBusy_;
    r.hostBusy = hostBusy_;
    r.hostThreads = par::ThreadPool::instance().numThreads();
    r.hostParallelSpeedup = model_.parallel.speedup(r.hostThreads);
    r.total = total_;
    for (const auto &[name, g] : byKernel_)
        r.byKernel.push_back(g);
    for (const auto &[name, g] : byLayer_)
        r.byLayer.push_back(g);
    for (const auto &[idx, g] : byPhase_)
        r.byPhase.push_back(g);
    for (const auto &[idx, g] : byHostOp_)
        r.byHostOp.push_back(g);
    return r;
}

namespace {

MeasuredGroup
toMeasured(const hwprof::Agg &a)
{
    MeasuredGroup m;
    if (a.windows == 0)
        return m;
    m.valid = true;
    m.hw = a.hwValid;
    m.windows = static_cast<double>(a.windows);
    m.instructions = static_cast<double>(a.sum[hwprof::kInstructions]);
    m.cycles = static_cast<double>(a.sum[hwprof::kCycles]);
    m.cacheRefs = static_cast<double>(a.sum[hwprof::kCacheRefs]);
    m.cacheMisses = static_cast<double>(a.sum[hwprof::kCacheMisses]);
    m.branchMisses =
        static_cast<double>(a.sum[hwprof::kBranchMisses]);
    m.stalledCycles =
        static_cast<double>(a.sum[hwprof::kStalledCycles]);
    m.minorFaults = static_cast<double>(a.sum[hwprof::kMinorFaults]);
    m.majorFaults = static_cast<double>(a.sum[hwprof::kMajorFaults]);
    m.ctxSwitchesVol =
        static_cast<double>(a.sum[hwprof::kCtxSwitchesVol]);
    m.ctxSwitchesInvol =
        static_cast<double>(a.sum[hwprof::kCtxSwitchesInvol]);
    return m;
}

void
attachByName(std::vector<RooflineGroup> &groups,
             const std::vector<std::pair<std::string, hwprof::Agg>>
                 &aggs)
{
    for (auto &g : groups) {
        for (const auto &kv : aggs) {
            if (kv.first == g.name) {
                g.measured = toMeasured(kv.second);
                break;
            }
        }
    }
}

} // namespace

void
attachMeasuredCounters(RooflineReport &report,
                       const hwprof::Snapshot &snap)
{
    if (snap.tier == hwprof::Tier::Off || snap.total.windows == 0)
        return;
    report.hwprofTier = snap.tier;
    report.hwprofTierReason = snap.tierReason;
    report.total.measured = toMeasured(snap.total);
    attachByName(report.byKernel, snap.byKernel);
    attachByName(report.byLayer, snap.byLayer);
    for (auto &g : report.byPhase) {
        for (int p = 0; p < kNumPhases; ++p) {
            if (g.name == phaseName(static_cast<Phase>(p))) {
                g.measured = toMeasured(
                    snap.byPhase[static_cast<std::size_t>(p)]);
                break;
            }
        }
    }
}

void
attachMeasuredCounters(RooflineReport &report)
{
    if (!hwprof::enabled())
        return;
    attachMeasuredCounters(report, hwprof::snapshot());
}

RooflineReport
analyzeRoofline(const Trace &trace, const CostModel &model,
                double dispatch_overhead,
                const std::vector<std::string> &layer_names,
                std::string label)
{
    RooflineAnalyzer analyzer(model, dispatch_overhead,
                              std::move(label));
    analyzer.addTrace(trace, layer_names);
    return analyzer.report();
}

namespace {

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15)
        return strprintf("%.0f", v);
    return strprintf("%.9g", v);
}

void
appendGroupJson(std::string &out, const RooflineGroup &g,
                double elapsed, int indent)
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    out += strprintf(
        "{\n%s\"launches\": %zu, \"flops\": %s, \"bytes\": %s,\n"
        "%s\"gpu_s\": %s, \"dispatch_s\": %s, \"elapsed_s\": %s,\n"
        "%s\"elapsed_share\": %s, \"intensity\": %s,\n"
        "%s\"bound\": \"%s\"",
        pad.c_str(), g.launches, num(g.flops).c_str(),
        num(g.bytes).c_str(), pad.c_str(), num(g.gpuSeconds).c_str(),
        num(g.dispatchSeconds).c_str(),
        num(g.elapsedSeconds).c_str(), pad.c_str(),
        num(elapsed > 0.0 ? g.elapsedSeconds / elapsed : 0.0).c_str(),
        num(g.intensity()).c_str(), pad.c_str(),
        boundClassName(g.dominantBound()));
    out += strprintf(",\n%s\"bound_shares\": {", pad.c_str());
    for (int c = 0; c < kNumBoundClasses; ++c) {
        out += strprintf(
            "%s\"%s\": %s", c ? ", " : "",
            boundClassName(static_cast<BoundClass>(c)),
            num(g.boundShare(static_cast<BoundClass>(c))).c_str());
    }
    out += "}";
    // Measured counters, only when the run carried them: hwprof-off
    // output stays byte-identical.
    if (g.measured.valid) {
        const MeasuredGroup &m = g.measured;
        out += strprintf(
            ",\n%s\"hwprof\": {\"windows\": %s, "
            "\"instructions\": %s, \"cycles\": %s,\n"
            "%s  \"cache_refs\": %s, \"cache_misses\": %s, "
            "\"branch_misses\": %s, \"stalled_cycles\": %s,\n"
            "%s  \"minor_faults\": %s, \"major_faults\": %s, "
            "\"ctx_switches_vol\": %s, \"ctx_switches_invol\": %s,\n"
            "%s  \"ipc\": %s, \"miss_rate\": %s, "
            "\"measured_bound\": \"%s\", \"agreement\": \"%s\"}",
            pad.c_str(), num(m.windows).c_str(),
            num(m.instructions).c_str(), num(m.cycles).c_str(),
            pad.c_str(), num(m.cacheRefs).c_str(),
            num(m.cacheMisses).c_str(), num(m.branchMisses).c_str(),
            num(m.stalledCycles).c_str(), pad.c_str(),
            num(m.minorFaults).c_str(), num(m.majorFaults).c_str(),
            num(m.ctxSwitchesVol).c_str(),
            num(m.ctxSwitchesInvol).c_str(), pad.c_str(),
            num(m.ipc()).c_str(), num(m.missRate()).c_str(),
            m.hw ? boundClassName(measuredBound(m)) : "n/a",
            agreementVerdict(g.dominantBound(), m));
    }
    out += "}";
}

void
appendGroupMap(std::string &out, const char *key,
               const std::vector<RooflineGroup> &groups, double elapsed)
{
    out += strprintf("  \"%s\": {", key);
    bool first = true;
    for (const auto &g : groups) {
        out += first ? "\n" : ",\n";
        first = false;
        out += strprintf("    \"%s\": ", jsonEscape(g.name).c_str());
        appendGroupJson(out, g, elapsed, 6);
    }
    out += "\n  }";
}

} // namespace

std::string
rooflineReportToJson(const RooflineReport &r)
{
    std::string out = "{\n";
    out += strprintf("  \"version\": 1,\n");
    out += strprintf("  \"label\": \"%s\",\n",
                     jsonEscape(r.label).c_str());
    out += strprintf("  \"epochs\": %zu,\n", r.epochs);
    out += strprintf(
        "  \"device\": {\"peak_flops_per_sec\": %s, "
        "\"peak_bytes_per_sec\": %s, \"ridge_intensity\": %s, "
        "\"dispatch_overhead_s\": %s},\n",
        num(r.peakFlopsPerSec).c_str(), num(r.peakBytesPerSec).c_str(),
        num(r.ridgeIntensity()).c_str(),
        num(r.dispatchOverhead).c_str());
    out += strprintf(
        "  \"host_parallelism\": {\"threads\": %d, "
        "\"model_speedup\": %s},\n",
        r.hostThreads, num(r.hostParallelSpeedup).c_str());
    out += strprintf(
        "  \"elapsed_s\": %s, \"gpu_busy_s\": %s, "
        "\"host_busy_s\": %s,\n",
        num(r.elapsed).c_str(), num(r.gpuBusy).c_str(),
        num(r.hostBusy).c_str());
    out += strprintf(
        "  \"utilization\": %s, \"arithmetic_intensity\": %s,\n"
        "  \"achieved_flops_frac\": %s, \"achieved_bw_frac\": %s,\n",
        num(r.utilization()).c_str(), num(r.total.intensity()).c_str(),
        num(r.achievedFlopsFraction()).c_str(),
        num(r.achievedBandwidthFraction()).c_str());
    if (r.hwprofTier != hwprof::Tier::Off) {
        // Thresholds ride along so `gnnperf prof check` re-derives the
        // measured_bound/agreement verdicts from the file itself.
        out += strprintf(
            "  \"hwprof\": {\"tier\": \"%s\", \"reason\": \"%s\",\n"
            "    \"thresholds\": {\"bandwidth_miss_rate\": %s, "
            "\"dispatch_instructions_per_window\": %s}},\n",
            hwprof::tierName(r.hwprofTier),
            jsonEscape(r.hwprofTierReason).c_str(),
            num(kMeasuredBandwidthMissRate).c_str(),
            num(kMeasuredDispatchInstrPerWindow).c_str());
    }
    out += "  \"total\": ";
    appendGroupJson(out, r.total, r.elapsed, 4);
    out += ",\n";
    appendGroupMap(out, "kernels", r.byKernel, r.elapsed);
    out += ",\n";
    appendGroupMap(out, "layers", r.byLayer, r.elapsed);
    out += ",\n";
    appendGroupMap(out, "phases", r.byPhase, r.elapsed);
    out += ",\n  \"host_ops\": {";
    bool first = true;
    for (const auto &h : r.byHostOp) {
        out += first ? "\n" : ",\n";
        first = false;
        out += strprintf(
            "    \"%s\": {\"ops\": %zu, \"bytes\": %s, "
            "\"items\": %s, \"seconds\": %s, \"elapsed_share\": %s}",
            jsonEscape(h.name).c_str(), h.ops, num(h.bytes).c_str(),
            num(h.items).c_str(), num(h.seconds).c_str(),
            num(r.elapsed > 0.0 ? h.elapsedSeconds / r.elapsed : 0.0)
                .c_str());
    }
    out += "\n  }\n}\n";
    return out;
}

std::string
rooflineSuiteToJson(const std::vector<RooflineReport> &suite)
{
    std::string out = strprintf(
        "{\n  \"version\": 1,\n  \"meta\": %s,\n  \"reports\": {",
        buildinfo::metaJson().c_str());
    bool first = true;
    for (const auto &r : suite) {
        out += first ? "\n" : ",\n";
        first = false;
        std::string body = rooflineReportToJson(r);
        // Indent the nested report by four spaces for readability.
        std::string indented;
        indented.reserve(body.size());
        for (std::size_t i = 0; i < body.size(); ++i) {
            indented += body[i];
            if (body[i] == '\n' && i + 1 < body.size())
                indented += "    ";
        }
        while (!indented.empty() &&
               (indented.back() == '\n' || indented.back() == ' '))
            indented.pop_back();
        out += strprintf("    \"%s\": %s",
                         jsonEscape(r.label).c_str(), indented.c_str());
    }
    out += "\n  }\n}\n";
    return out;
}

std::string
renderRooflineTable(const std::vector<RooflineReport> &suite)
{
    // Measured columns appear only when at least one report carries
    // hwprof counters, so the table is unchanged on hwprof-off runs.
    bool measured = false;
    for (const auto &r : suite)
        measured = measured || r.total.measured.valid;
    TextTable table;
    std::vector<std::string> header = {
        "Config", ">Elapsed(ms)", ">Util%", ">AI(F/B)", ">Peak-F%",
        ">Peak-BW%", ">Comp%", ">BW%", ">Disp%", ">Kernels",
        ">HostThr", ">HostSpd"};
    if (measured) {
        header.push_back(">M-IPC");
        header.push_back(">M-Miss%");
        header.push_back("HWTier");
    }
    table.setHeader(header);
    for (const auto &r : suite) {
        std::vector<std::string> row = {
            r.label, strprintf("%.2f", r.elapsed * 1e3),
            strprintf("%.1f", r.utilization() * 100.0),
            strprintf("%.2f", r.total.intensity()),
            strprintf("%.1f", r.achievedFlopsFraction() * 100.0),
            strprintf("%.1f", r.achievedBandwidthFraction() * 100.0),
            strprintf("%.1f",
                      r.total.boundShare(BoundClass::Compute) * 100.0),
            strprintf("%.1f",
                      r.total.boundShare(BoundClass::Bandwidth) *
                          100.0),
            strprintf("%.1f",
                      r.total.boundShare(BoundClass::Dispatch) *
                          100.0),
            strprintf("%zu", r.total.launches),
            strprintf("%d", r.hostThreads),
            strprintf("%.2fx", r.hostParallelSpeedup)};
        if (measured) {
            const MeasuredGroup &m = r.total.measured;
            row.push_back(m.valid && m.hw
                              ? strprintf("%.2f", m.ipc())
                              : "-");
            row.push_back(m.valid && m.hw
                              ? strprintf("%.1f", m.missRate() * 100.0)
                              : "-");
            row.push_back(hwprof::tierName(r.hwprofTier));
        }
        table.addRow(row);
    }
    return table.render();
}

std::string
renderRooflineKernels(const RooflineReport &r)
{
    const bool measured = r.total.measured.valid;
    TextTable table;
    std::vector<std::string> header = {"Kernel", ">Launches",
                                       ">GPU(ms)", ">AI(F/B)",
                                       "Bound", ">Elapsed%"};
    if (measured) {
        header.push_back(">M-IPC");
        header.push_back(">M-Miss%");
        header.push_back("Measured");
        header.push_back("Verdict");
    }
    table.setHeader(header);
    // Heaviest kernels first.
    std::vector<const RooflineGroup *> order;
    for (const auto &g : r.byKernel)
        order.push_back(&g);
    std::sort(order.begin(), order.end(),
              [](const RooflineGroup *a, const RooflineGroup *b) {
                  return a->gpuSeconds > b->gpuSeconds;
              });
    for (const RooflineGroup *g : order) {
        std::vector<std::string> row = {
            g->name, strprintf("%zu", g->launches),
            strprintf("%.3f", g->gpuSeconds * 1e3),
            strprintf("%.2f", g->intensity()),
            boundClassName(g->dominantBound()),
            strprintf("%.1f",
                      r.elapsed > 0.0
                          ? g->elapsedSeconds / r.elapsed * 100.0
                          : 0.0)};
        if (measured) {
            const MeasuredGroup &m = g->measured;
            const bool hw = m.valid && m.hw;
            row.push_back(hw ? strprintf("%.2f", m.ipc()) : "-");
            row.push_back(
                hw ? strprintf("%.1f", m.missRate() * 100.0) : "-");
            row.push_back(hw ? boundClassName(measuredBound(m))
                             : "n/a");
            row.push_back(agreementVerdict(g->dominantBound(), m));
        }
        table.addRow(row);
    }
    return table.render();
}

} // namespace gnnperf
