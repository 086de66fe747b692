/**
 * @file
 * Trace export tests: Chrome JSON validity/shape of the simulated
 * track (appendChromeTraceEvents) and of the merged execution trace.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "common/fs.hh"
#include "common/json.hh"
#include "device/allocator.hh"
#include "device/trace_export.hh"
#include "obs/exec_trace.hh"
#include "obs/spans.hh"

using namespace gnnperf;

namespace {

Trace
sampleTrace()
{
    Trace trace;
    trace.addHost({"collate", HostOpKind::MetaBuild, 100.0, 4.0,
                   Phase::DataLoading, -1});
    trace.addKernel({"sgemm", 2e6, 1e5, Phase::Forward, 0});
    trace.addKernel({"sgemm", 4e6, 2e5, Phase::Forward, 1});
    trace.addKernel({"relu", 1e3, 8e3, Phase::Forward, 1});
    trace.addKernel({"adam_update", 1e4, 4e4, Phase::Update, -1});
    return trace;
}

/**
 * The simulated track of a trace as a standalone Chrome JSON array:
 * three metadata events, then the slices appendChromeTraceEvents
 * lays out under pid 1 — the same fragments ExecTrace concatenates.
 */
std::string
chromeJson(const Trace &trace)
{
    std::string json = "[\n";
    json += chromeProcessName(1, "gnnperf simulated") + ",\n";
    json += chromeThreadName(1, 1, "host") + ",\n";
    json += chromeThreadName(1, 2, "gpu stream");
    appendChromeTraceEvents(json, trace, CostModel::defaultModel(), 30e-6,
                            1);
    return json + "\n]\n";
}

} // namespace

TEST(ChromeTrace, BalancedBracketsAndTracks)
{
    const std::string json = chromeJson(sampleTrace());
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json[json.size() - 2], ']');
    int braces = 0;
    for (char c : json) {
        if (c == '{')
            ++braces;
        if (c == '}')
            --braces;
        ASSERT_GE(braces, 0);
    }
    EXPECT_EQ(braces, 0);
    EXPECT_NE(json.find("\"name\":\"host\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"gpu stream\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"sgemm\""), std::string::npos);
    EXPECT_NE(json.find("launch sgemm"), std::string::npos);
}

TEST(ChromeTrace, EventCountMatchesTrace)
{
    const std::string json = chromeJson(sampleTrace());
    // Per kernel: launch slice + kernel slice; per host op: one
    // slice; plus 3 metadata events.
    std::size_t events = 0;
    for (std::size_t pos = 0;
         (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos;
         ++pos)
        ++events;
    EXPECT_EQ(events, 4u * 2u + 1u);
}

TEST(ChromeTrace, TimestampsMonotoneOnHostTrack)
{
    const std::string json = chromeJson(sampleTrace());
    double last_ts = -1.0;
    for (std::size_t pos = 0;
         (pos = json.find("\"tid\":1,\"ts\":", pos)) !=
         std::string::npos; ++pos) {
        const double ts = std::strtod(json.c_str() + pos + 14, nullptr);
        EXPECT_GE(ts, last_ts);
        last_ts = ts;
    }
    EXPECT_GT(last_ts, 0.0);
}

TEST(ChromeTrace, EscapesSpecialCharactersInNames)
{
    Trace trace;
    trace.addKernel({"odd\"name\\kernel", 1e3, 1e3, Phase::Forward, 0});
    trace.addHost({"host\nop", HostOpKind::MetaBuild, 1.0, 1.0,
                   Phase::Other, -1});
    const std::string json = chromeJson(trace);
    // Raw quotes/backslashes/newlines never survive into JSON strings.
    EXPECT_NE(json.find("odd\\\"name\\\\kernel"), std::string::npos);
    EXPECT_NE(json.find("launch odd\\\"name\\\\kernel"),
              std::string::npos);
    EXPECT_NE(json.find("host\\nop"), std::string::npos);
    EXPECT_EQ(json.find("host\nop"), std::string::npos);
    // Still structurally balanced.
    int braces = 0;
    for (char c : json) {
        if (c == '{')
            ++braces;
        if (c == '}')
            --braces;
        ASSERT_GE(braces, 0);
    }
    EXPECT_EQ(braces, 0);
}

TEST(WriteFile, RoundTrip)
{
    const std::string path = "/tmp/gnnperf_test_writefile.txt";
    writeFile(path, "hello\nworld\n");
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "hello\nworld\n");
    std::remove(path.c_str());
}

TEST(WriteFileDeathTest, FatalOnUnwritablePath)
{
    // A directory can never be opened for writing: the single shared
    // artifact writer must die loudly, not skip silently.
    EXPECT_DEATH(writeFile("/tmp", "x"), "cannot open");
}

TEST(ChromeTrace, ParsesWithCommonJson)
{
    const std::string json = chromeJson(sampleTrace());
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(json, doc, &error)) << error;
    ASSERT_TRUE(doc.isArray());
    // 9 slices (see EventCountMatchesTrace) + 3 metadata events.
    EXPECT_EQ(doc.array.size(), 12u);
    for (const JsonValue &ev : doc.array) {
        EXPECT_TRUE(ev.at("name").isString());
        EXPECT_TRUE(ev.at("ph").isString());
        EXPECT_TRUE(ev.at("pid").isNumber());
    }
}

TEST(ExecTraceJson, MergedTraceParsesWithAllTrackGroups)
{
    ExecTrace &trace = ExecTrace::instance();
    trace.enable();
    {
        HostSpan span("unit-span");
        CachingAllocator alloc(DeviceKind::Cuda);
        MemoryBlock *block = alloc.allocate(4096);
        alloc.release(block);
        alloc.emptyCache();
    }
    trace.captureSimulated(sampleTrace(), 30e-6, "unit");
    trace.captureSimulated(sampleTrace(), 30e-6, "unit");
    trace.disable();
    const std::string json = trace.toJson();
    const std::string table = trace.peakTable(DeviceKind::Cuda);
    trace.reset();

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(json, doc, &error)) << error;
    const JsonValue &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());

    // All three synchronized views are present: pid 1 simulated,
    // pid 2 real host spans, pid 3 memory timeline.
    std::set<int> pids;
    for (const JsonValue &ev : events.array)
        pids.insert(static_cast<int>(ev.at("pid").asNumber()));
    EXPECT_TRUE(pids.count(1)) << "simulated track missing";
    EXPECT_TRUE(pids.count(2)) << "host span track missing";
    EXPECT_TRUE(pids.count(3)) << "memory track missing";

    EXPECT_EQ(doc.at("meta").at("simulated_epochs").asNumber(), 2.0);
    EXPECT_TRUE(doc.at("stats_peaks").at("cuda").at("logical")
                    .isNumber());
    const JsonValue &cuda_peak =
        doc.at("peak_attribution").at("cuda").at("logical");
    EXPECT_TRUE(cuda_peak.at("valid").isBool());
    EXPECT_TRUE(cuda_peak.at("top_blocks").isArray());

    // The human-readable peak report names the peak and its owner.
    EXPECT_NE(table.find("peak"), std::string::npos);
    EXPECT_NE(table.find("block #"), std::string::npos);
}

TEST(ExecTraceJson, SimulatedEpochsLayOutBackToBack)
{
    ExecTrace &trace = ExecTrace::instance();
    trace.enable();
    trace.captureSimulated(sampleTrace(), 30e-6, "unit");
    trace.captureSimulated(sampleTrace(), 30e-6, "unit");
    trace.disable();
    const std::string json = trace.toJson();
    trace.reset();

    JsonValue doc;
    ASSERT_TRUE(parseJson(json, doc, nullptr));
    // Equal epochs: the second copy of every slice starts after the
    // first epoch ends, so per-(pid,tid) timestamps never collide.
    std::set<std::pair<double, double>> seen;
    bool collision = false;
    for (const JsonValue &ev : doc.at("traceEvents").array) {
        if (ev.at("ph").str != "X" ||
            static_cast<int>(ev.at("pid").asNumber()) != 1)
            continue;
        const auto key = std::make_pair(ev.at("tid").asNumber(),
                                        ev.at("ts").asNumber());
        collision = collision || !seen.insert(key).second;
    }
    EXPECT_FALSE(collision);
}

TEST(ExecTraceJson, OutputPathResolvesFileOneAndEmpty)
{
    const std::string dir = ::testing::TempDir() + "gnnperf_csv_dir";
    ::unsetenv("GNNPERF_CSV_DIR");
    EXPECT_EQ(traceOutputPath("", "bench"), "");
    EXPECT_EQ(traceOutputPath("out.json", "bench"), "out.json");
    // "1" is a switch, never a file name: without a CSV dir it means
    // no trace at all.
    EXPECT_EQ(traceOutputPath("1", "bench"), "");
    ::setenv("GNNPERF_CSV_DIR", dir.c_str(), 1);
    EXPECT_EQ(traceOutputPath("1", "bench"), dir + "/bench.trace.json");
    EXPECT_TRUE(std::filesystem::is_directory(dir));
    EXPECT_EQ(traceOutputPath("out.json", "bench"), "out.json");
    ::unsetenv("GNNPERF_CSV_DIR");
}

TEST(EnumNames, PhaseNamesExhaustive)
{
    EXPECT_EQ(kNumPhases, 6);
    const char *expected[kNumPhases] = {
        "data_loading", "forward", "backward",
        "update",       "evaluation", "other",
    };
    for (int i = 0; i < kNumPhases; ++i)
        EXPECT_STREQ(phaseName(static_cast<Phase>(i)), expected[i]);
}

TEST(EnumNames, HostOpKindNamesExhaustive)
{
    EXPECT_EQ(kNumHostOpKinds, 5);
    const char *expected[kNumHostOpKinds] = {
        "memcpy", "indexed_gather", "meta_build", "h2d_transfer",
        "dispatch",
    };
    for (int i = 0; i < kNumHostOpKinds; ++i)
        EXPECT_STREQ(hostOpKindName(static_cast<HostOpKind>(i)),
                     expected[i]);
}

TEST(JsonToString, RoundTripIsLossless)
{
    const std::string src =
        "{\"a\":[1,2.5,true,null,\"s\\n\"],\"b\":{\"c\":-3},"
        "\"a\":\"dup\"}";
    JsonValue doc;
    ASSERT_TRUE(parseJson(src, doc, nullptr));
    const std::string once = jsonToString(doc);
    // Integers stay integers, key order and duplicates survive.
    EXPECT_EQ(once, src);
    JsonValue again;
    ASSERT_TRUE(parseJson(once, again, nullptr));
    EXPECT_EQ(jsonToString(again), once);
}
