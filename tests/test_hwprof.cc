/**
 * @file
 * Hardware-counter profiler tests: tier fallback, attribution
 * aggregates, numeric neutrality of the gate, and the pid-4 trace
 * tracks. Every test runs in its own process (ctest discovery), so
 * the sticky software-tier demotion never leaks across tests.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/experiment.hh"
#include "device/profiler.hh"
#include "obs/exec_trace.hh"
#include "obs/hwprof.hh"
#include "obs/roofline.hh"
#include "obs/stats.hh"

using namespace gnnperf;

namespace {

NodeDataset
miniCitation()
{
    CitationConfig cfg;
    cfg.name = "MiniCora";
    cfg.numNodes = 200;
    cfg.numUndirectedEdges = 400;
    cfg.numFeatures = 32;
    cfg.numClasses = 3;
    cfg.trainPerClass = 8;
    cfg.valCount = 40;
    cfg.testCount = 60;
    cfg.seed = 11;
    return makeCitation(cfg);
}

/** Touch some pages and branches so counters have work to count. */
double
burnWork()
{
    std::vector<double> v(1 << 16);
    double acc = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<double>(i % 7);
    for (std::size_t i = 0; i < v.size(); ++i)
        acc += v[i] > 3.0 ? v[i] : -v[i];
    return acc;
}

} // namespace

TEST(HwProf, OffByDefault)
{
    EXPECT_FALSE(hwprof::enabled());
    EXPECT_EQ(hwprof::tier(), hwprof::Tier::Off);
    hwprof::Snapshot snap = hwprof::snapshot();
    EXPECT_EQ(snap.total.windows, 0u);
    EXPECT_TRUE(snap.byKernel.empty());
    EXPECT_TRUE(snap.series.empty());
    // The hooks are inert with the gate down.
    hwprof::onKernelRecord("sgemm", Phase::Forward, -1, nullptr);
    hwprof::onPhaseBoundary(Phase::Forward);
    snap = hwprof::snapshot();
    EXPECT_EQ(snap.total.windows, 0u);
}

TEST(HwProf, ConfigureModes)
{
    hwprof::configure("");
    EXPECT_FALSE(hwprof::enabled());
    hwprof::configure("0");
    EXPECT_FALSE(hwprof::enabled());
    hwprof::configure("off");
    EXPECT_FALSE(hwprof::enabled());
    hwprof::configure("sw");
    EXPECT_TRUE(hwprof::enabled());
    EXPECT_EQ(hwprof::tier(), hwprof::Tier::Software);
    hwprof::configure("0");
    EXPECT_FALSE(hwprof::enabled());
}

TEST(HwProfDeathTest, ConfigureRejectsUnknownMode)
{
    // An unknown mode used to switch the profiler on; now it is fatal
    // and names the mode.
    EXPECT_DEATH(hwprof::configure("bogus"),
                 "hwprof: unknown mode 'bogus'");
    EXPECT_DEATH(hwprof::configure("hw"), "unknown mode 'hw'");
}

TEST(HwProf, ForcedSoftwareTierMonotonicCounters)
{
    // The forced-unavailable path: no perf_event_open attempt at all,
    // and the rusage counters still advance monotonically.
    hwprof::forceSoftwareTier();
    hwprof::setEnabled(true);
    EXPECT_EQ(hwprof::tier(), hwprof::Tier::Software);
    EXPECT_FALSE(hwprof::tierReason().empty());

    hwprof::Sample a = hwprof::readThread();
    EXPECT_FALSE(a.hwValid);
    volatile double sink = burnWork();
    (void)sink;
    hwprof::Sample b = hwprof::readThread();
    EXPECT_FALSE(b.hwValid);
    for (int c = hwprof::kFirstSoftwareCounter;
         c < hwprof::kNumCounters; ++c)
        EXPECT_GE(b.v[c], a.v[c]) << hwprof::counterName(c);
    // Hardware slots stay empty on the software tier.
    for (int c = 0; c < hwprof::kFirstSoftwareCounter; ++c) {
        EXPECT_EQ(a.v[c], 0u) << hwprof::counterName(c);
        EXPECT_EQ(b.v[c], 0u) << hwprof::counterName(c);
    }
    EXPECT_GT(hwprof::readRssBytes(), 0u);
    hwprof::setEnabled(false);
}

TEST(HwProf, KernelAttributionAggregates)
{
    hwprof::forceSoftwareTier();
    hwprof::setEnabled(true);
    hwprof::resetAggregates();

    Profiler &prof = Profiler::instance();
    prof.setEnabled(true);
    {
        PhaseScope phase(Phase::Forward);
        recordKernel("sgemm", 1e6, 1e5);
        burnWork();
        recordKernel("sgemm", 1e6, 1e5);
        recordKernel("relu", 1e3, 1e3);
    }
    {
        PhaseScope phase(Phase::Update);
        recordKernel("adam_update", 1e4, 1e4);
    }
    prof.setEnabled(false);
    prof.reset();

    hwprof::Snapshot snap = hwprof::snapshot();
    hwprof::setEnabled(false);

    // 4 kernel windows plus the phase-boundary residual flushes.
    EXPECT_GE(snap.total.windows, 4u);
    uint64_t sgemm = 0, relu = 0, adam = 0;
    for (const auto &kv : snap.byKernel) {
        if (kv.first == "sgemm")
            sgemm = kv.second.windows;
        if (kv.first == "relu")
            relu = kv.second.windows;
        if (kv.first == "adam_update")
            adam = kv.second.windows;
    }
    EXPECT_EQ(sgemm, 2u);
    EXPECT_EQ(relu, 1u);
    EXPECT_EQ(adam, 1u);

    const auto &fwd =
        snap.byPhase[static_cast<std::size_t>(Phase::Forward)];
    const auto &upd =
        snap.byPhase[static_cast<std::size_t>(Phase::Update)];
    EXPECT_GE(fwd.windows, 3u);
    EXPECT_GE(upd.windows, 1u);
    // Phase boundaries also push timed samples for the trace tracks.
    EXPECT_GE(snap.series.size(), 2u);
    EXPECT_GT(snap.rssPeakBytes, 0u);

    // The software tier never claims hardware validity, so the
    // roofline attachment reports no measured bound and no verdict.
    RooflineReport report;
    report.byKernel.push_back(RooflineGroup{});
    report.byKernel.back().name = "sgemm";
    attachMeasuredCounters(report, snap);
    EXPECT_EQ(report.hwprofTier, hwprof::Tier::Software);
    ASSERT_TRUE(report.total.measured.valid);
    EXPECT_FALSE(report.total.measured.hw);
    EXPECT_STREQ(agreementVerdict(BoundClass::Compute,
                                  report.total.measured),
                 "n/a");
    ASSERT_TRUE(report.byKernel[0].measured.valid);
    EXPECT_EQ(report.byKernel[0].measured.windows, 2.0);
}

TEST(HwProf, GateOffKeepsNumericsIdentical)
{
    // The acceptance bar: profiled and unprofiled runs produce
    // bit-identical results — hwprof only ever reads counters.
    NodeDataset ds = miniCitation();
    auto off = runNodeClassification(ds, {ModelKind::GCN},
                                     /*seeds=*/1, /*max_epochs=*/4);

    hwprof::configure("sw");
    ASSERT_TRUE(hwprof::enabled());
    auto on = runNodeClassification(ds, {ModelKind::GCN},
                                    /*seeds=*/1, /*max_epochs=*/4);
    hwprof::setEnabled(false);

    ASSERT_EQ(off.size(), on.size());
    for (std::size_t i = 0; i < off.size(); ++i) {
        EXPECT_EQ(off[i].epochTime, on[i].epochTime);
        EXPECT_EQ(off[i].totalTime, on[i].totalTime);
        EXPECT_EQ(off[i].accuracy.mean, on[i].accuracy.mean);
        EXPECT_EQ(off[i].epochsRun, on[i].epochsRun);
    }
}

TEST(HwProf, ResetClearsAggregatesKeepsTier)
{
    hwprof::configure("sw");
    Profiler &prof = Profiler::instance();
    prof.setEnabled(true);
    {
        PhaseScope phase(Phase::Forward);
        recordKernel("sgemm", 1e6, 1e5);
    }
    prof.setEnabled(false);
    prof.reset();
    EXPECT_GE(hwprof::snapshot().total.windows, 1u);

    hwprof::resetAggregates();
    hwprof::Snapshot snap = hwprof::snapshot();
    EXPECT_EQ(snap.total.windows, 0u);
    EXPECT_TRUE(snap.byKernel.empty());
    EXPECT_TRUE(snap.series.empty());
    EXPECT_EQ(snap.tier, hwprof::Tier::Software);
    hwprof::setEnabled(false);
}

TEST(HwProf, PublishStatsGauges)
{
    hwprof::configure("sw");
    Profiler &prof = Profiler::instance();
    prof.setEnabled(true);
    {
        PhaseScope phase(Phase::Forward);
        recordKernel("sgemm", 1e6, 1e5);
    }
    prof.setEnabled(false);
    prof.reset();

    stats::setSamplingEnabled(true);
    hwprof::publishStats();
    stats::setSamplingEnabled(false);
    hwprof::setEnabled(false);

    // Software tier = 1; windows and fault counters made it through.
    EXPECT_EQ(stats::gauge("hwprof.tier").value(), 1.0);
    EXPECT_GE(stats::gauge("hwprof.windows").value(), 1.0);
    EXPECT_GT(stats::gauge("hwprof.rss_peak_bytes").value(), 0.0);
    EXPECT_EQ(stats::gauge("hwprof.cycles").value(), 0.0);
}

TEST(HwProf, ExecTraceCarriesPid4Tracks)
{
    hwprof::configure("sw");
    hwprof::resetAggregates();
    ExecTrace &trace = ExecTrace::instance();
    trace.enable();

    Profiler &prof = Profiler::instance();
    prof.setEnabled(true);
    {
        PhaseScope phase(Phase::Forward);
        recordKernel("sgemm", 2e6, 1e5);
        burnWork();
    }
    {
        PhaseScope phase(Phase::Update);
        recordKernel("adam_update", 1e4, 4e4);
    }
    prof.setEnabled(false);

    Trace sim;
    sim.addKernel({"sgemm", 2e6, 1e5, Phase::Forward, -1});
    trace.captureSimulated(sim, 30e-6, "unit");
    trace.disable();
    const std::string json = trace.toJson();
    trace.reset();
    prof.reset();
    hwprof::setEnabled(false);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(json, doc, &error)) << error;
    const JsonValue &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());

    std::set<int> pids;
    std::set<std::string> counter_names;
    for (const JsonValue &ev : events.array) {
        pids.insert(static_cast<int>(ev.at("pid").asNumber()));
        if (static_cast<int>(ev.at("pid").asNumber()) == 4 &&
            ev.at("ph").str == "C")
            counter_names.insert(ev.at("name").str);
    }
    EXPECT_TRUE(pids.count(1)) << "simulated track missing";
    EXPECT_TRUE(pids.count(4)) << "hwprof track missing";
    // Software tier: fault and rss counters, no PMU counter events.
    EXPECT_TRUE(counter_names.count("hwprof.faults"));
    EXPECT_TRUE(counter_names.count("hwprof.rss"));
    EXPECT_FALSE(counter_names.count("hwprof.counters"));
    // Provenance meta rides along.
    EXPECT_TRUE(doc.at("meta").at("provenance").at("git").isString());
}

TEST(HwProf, AutoProbeNeverFatalAndTierIsValid)
{
    // On a permissive host this lands on the hardware tier; under a
    // restrictive perf_event_paranoid it demotes to software. Either
    // way it must enable cleanly and read monotonic counters.
    hwprof::configure("1");
    ASSERT_TRUE(hwprof::enabled());
    const hwprof::Tier t = hwprof::tier();
    EXPECT_TRUE(t == hwprof::Tier::Hardware ||
                t == hwprof::Tier::Software)
        << "tier: " << hwprof::tierName(t);

    hwprof::Sample a = hwprof::readThread();
    volatile double sink = burnWork();
    (void)sink;
    hwprof::Sample b = hwprof::readThread();
    EXPECT_EQ(a.hwValid, t == hwprof::Tier::Hardware);
    for (int c = 0; c < hwprof::kNumCounters; ++c)
        EXPECT_GE(b.v[c], a.v[c]) << hwprof::counterName(c);
    if (t == hwprof::Tier::Hardware) {
        // Real work retired real instructions between the reads.
        EXPECT_GT(b.v[hwprof::kInstructions],
                  a.v[hwprof::kInstructions]);
    }
    hwprof::setEnabled(false);
}
