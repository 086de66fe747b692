/**
 * @file
 * Run-diff engine tests: JSON parser correctness and error handling,
 * numeric flattening, threshold/noise-floor/direction semantics, and
 * the BENCH baseline round trip.
 */

#include <gtest/gtest.h>

#include "common/json.hh"
#include "obs/diff.hh"

using namespace gnnperf;

namespace {

JsonValue
parse(const std::string &text)
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(parseJson(text, doc, &error)) << error;
    return doc;
}

const diff::SeriesDiff *
findSeries(const diff::RunDiff &d, const std::string &name)
{
    for (const auto &s : d.series) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

} // namespace

TEST(JsonParser, ScalarsAndNesting)
{
    JsonValue doc = parse(
        R"({"a": 1.5, "b": [true, null, "x"], "c": {"d": -2e3}})");
    ASSERT_TRUE(doc.isObject());
    EXPECT_DOUBLE_EQ(doc.at("a").asNumber(), 1.5);
    ASSERT_TRUE(doc.at("b").isArray());
    ASSERT_EQ(doc.at("b").array.size(), 3u);
    EXPECT_TRUE(doc.at("b").array[0].boolean);
    EXPECT_TRUE(doc.at("b").array[1].isNull());
    EXPECT_EQ(doc.at("b").array[2].str, "x");
    EXPECT_DOUBLE_EQ(doc.at("c").at("d").asNumber(), -2000.0);
}

TEST(JsonParser, StringEscapes)
{
    JsonValue doc = parse(R"({"s": "a\"b\\c\ndA"})");
    EXPECT_EQ(doc.at("s").str, "a\"b\\c\ndA");
}

TEST(JsonParser, RejectsMalformedInput)
{
    JsonValue doc;
    std::string error;
    EXPECT_FALSE(parseJson("{", doc, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseJson("{\"a\": 1,}", doc, &error));
    EXPECT_FALSE(parseJson("[1, 2] garbage", doc, &error));
    EXPECT_FALSE(parseJson("", doc, &error));
    EXPECT_FALSE(parseJson("nul", doc, &error));
}

TEST(JsonParser, KeepsKeyOrder)
{
    JsonValue doc = parse(R"({"z": 1, "a": 2, "m": 3})");
    ASSERT_EQ(doc.object.size(), 3u);
    EXPECT_EQ(doc.object[0].first, "z");
    EXPECT_EQ(doc.object[1].first, "a");
    EXPECT_EQ(doc.object[2].first, "m");
}

TEST(FlattenNumeric, DottedPathsAndSkips)
{
    JsonValue doc = parse(
        R"({"a": 1, "b": {"c": 2, "d": "skip"}, "e": [10, 20],)"
        R"( "f": true, "g": null})");
    auto flat = diff::flattenNumeric(doc);
    EXPECT_DOUBLE_EQ(flat.at("a"), 1.0);
    EXPECT_DOUBLE_EQ(flat.at("b.c"), 2.0);
    EXPECT_DOUBLE_EQ(flat.at("e.0"), 10.0);
    EXPECT_DOUBLE_EQ(flat.at("e.1"), 20.0);
    EXPECT_DOUBLE_EQ(flat.at("f"), 1.0);
    EXPECT_EQ(flat.count("b.d"), 0u);
    EXPECT_EQ(flat.count("g"), 0u);
}

TEST(CompareRuns, ThresholdSeparatesVerdicts)
{
    JsonValue a = parse(R"({"fast": 1.0, "slow": 1.0, "same": 5.0})");
    JsonValue b = parse(R"({"fast": 0.5, "slow": 1.5, "same": 5.4})");
    diff::RunDiff d = diff::compareRuns(a, b);
    EXPECT_EQ(d.compared, 3u);
    EXPECT_EQ(findSeries(d, "fast")->verdict,
              diff::SeriesVerdict::Improved);
    EXPECT_EQ(findSeries(d, "slow")->verdict,
              diff::SeriesVerdict::Regressed);
    EXPECT_EQ(findSeries(d, "same")->verdict,
              diff::SeriesVerdict::Unchanged);
    EXPECT_FALSE(d.ok());
    EXPECT_EQ(d.regressions(), 1u);
    EXPECT_EQ(d.improvements(), 1u);
}

TEST(CompareRuns, HigherIsBetterFlipsDirection)
{
    JsonValue a = parse(R"({"acc_mean": 0.8, "epoch_s": 1.0})");
    JsonValue b = parse(R"({"acc_mean": 0.4, "epoch_s": 0.5})");
    diff::RunDiff d = diff::compareRuns(a, b);
    EXPECT_EQ(findSeries(d, "acc_mean")->verdict,
              diff::SeriesVerdict::Regressed);
    EXPECT_EQ(findSeries(d, "epoch_s")->verdict,
              diff::SeriesVerdict::Improved);
}

TEST(CompareRuns, NoiseFloorSilencesTinySeries)
{
    JsonValue a = parse(R"({"tiny": 1e-15})");
    JsonValue b = parse(R"({"tiny": 5e-15})");
    diff::RunDiff d = diff::compareRuns(a, b);
    // A 5x move entirely below the noise floor (diff::kNoiseFloor) is
    // still aligned but never regresses the gate.
    EXPECT_EQ(d.compared, 1u);
    ASSERT_NE(findSeries(d, "tiny"), nullptr);
    EXPECT_EQ(findSeries(d, "tiny")->verdict,
              diff::SeriesVerdict::Unchanged);
    EXPECT_TRUE(d.ok());
}

TEST(CompareRuns, OnlyAndIgnoreFilters)
{
    JsonValue a = parse(R"({"x.epoch_s": 1.0, "x.acc": 1.0})");
    JsonValue b = parse(R"({"x.epoch_s": 9.0, "x.acc": 9.0})");
    diff::DiffOptions opts;
    opts.ignore = {"epoch"};
    diff::RunDiff d = diff::compareRuns(a, b, opts);
    EXPECT_EQ(d.compared, 1u);
    EXPECT_EQ(findSeries(d, "x.epoch_s"), nullptr);

    diff::DiffOptions only_opts;
    only_opts.only = {"acc"};
    d = diff::compareRuns(a, b, only_opts);
    EXPECT_EQ(d.compared, 1u);
    EXPECT_NE(findSeries(d, "x.acc"), nullptr);
}

TEST(CompareRuns, AddedAndRemovedSeries)
{
    JsonValue a = parse(R"({"old": 1.0, "both": 1.0})");
    JsonValue b = parse(R"({"new": 1.0, "both": 1.0})");
    diff::RunDiff d = diff::compareRuns(a, b);
    EXPECT_EQ(findSeries(d, "old")->verdict,
              diff::SeriesVerdict::Removed);
    EXPECT_EQ(findSeries(d, "new")->verdict,
              diff::SeriesVerdict::Added);
    // Structural churn is reported but does not fail the gate.
    EXPECT_TRUE(d.ok());
}

TEST(CompareRuns, ZeroBaselineUsesNoiseFloorDenominator)
{
    JsonValue a = parse(R"({"v": 0.0})");
    JsonValue b = parse(R"({"v": 1.0})");
    diff::RunDiff d = diff::compareRuns(a, b);
    ASSERT_NE(findSeries(d, "v"), nullptr);
    EXPECT_EQ(findSeries(d, "v")->verdict,
              diff::SeriesVerdict::Regressed);
}

TEST(RenderRunDiff, ListsChangesAndSummary)
{
    JsonValue a = parse(R"({"slow": 1.0, "same": 1.0})");
    JsonValue b = parse(R"({"slow": 2.0, "same": 1.0})");
    diff::RunDiff d = diff::compareRuns(a, b);
    const std::string out = diff::renderRunDiff(d);
    EXPECT_NE(out.find("slow"), std::string::npos);
    EXPECT_NE(out.find("regressed"), std::string::npos);
    EXPECT_EQ(out.find("same"), std::string::npos);
    const std::string out_all = diff::renderRunDiff(d, /*all=*/true);
    EXPECT_NE(out_all.find("same"), std::string::npos);
}

TEST(BaselineJson, RoundTripsThroughCompare)
{
    const std::string json = diff::baselineToJson(
        "enzymes_small",
        {{"GatedGCN/PyG.epoch_s", 0.0125}, {"stats.kernel.spmm.nnz",
                                            1234.0}});
    JsonValue doc = parse(json);
    EXPECT_EQ(doc.at("bench").str, "enzymes_small");
    EXPECT_DOUBLE_EQ(
        doc.at("series").at("GatedGCN/PyG.epoch_s").asNumber(),
        0.0125);

    // Identical baselines diff clean.
    diff::RunDiff d = diff::compareRuns(doc, doc);
    EXPECT_TRUE(d.ok());
    EXPECT_EQ(d.regressions(), 0u);
    ASSERT_NE(findSeries(d, "series.GatedGCN/PyG.epoch_s"), nullptr);
    EXPECT_EQ(findSeries(d, "series.GatedGCN/PyG.epoch_s")->verdict,
              diff::SeriesVerdict::Unchanged);
}
