/**
 * @file
 * Tests for the common utilities: RNG determinism and distributions,
 * string formatting, table rendering, env knobs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/env.hh"
#include "common/fs.hh"
#include "common/random.hh"
#include "common/string_utils.hh"
#include "common/table.hh"

using namespace gnnperf;

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(9);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = rng.uniformInt(uint64_t{7});
        ASSERT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);  // all buckets hit
}

TEST(Rng, UniformIntInclusiveRange)
{
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        int64_t v = rng.uniformInt(int64_t{-3}, int64_t{3});
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
    }
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double v = rng.normal();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, PoissonMean)
{
    Rng rng(19);
    double sum = 0.0;
    for (int i = 0; i < 5000; ++i)
        sum += static_cast<double>(rng.poisson(4.0));
    EXPECT_NEAR(sum / 5000.0, 4.0, 0.15);
}

TEST(Rng, PoissonLargeMeanUsesApproximation)
{
    Rng rng(21);
    double sum = 0.0;
    for (int i = 0; i < 2000; ++i)
        sum += static_cast<double>(rng.poisson(100.0));
    EXPECT_NEAR(sum / 2000.0, 100.0, 2.0);
}

TEST(Rng, CategoricalRespectsWeights)
{
    Rng rng(23);
    std::vector<double> w{1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 8000; ++i)
        ++counts[rng.categorical(w)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(29);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
    auto orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, ForkGivesIndependentStream)
{
    Rng a(31);
    Rng b = a.fork();
    EXPECT_NE(a.next(), b.next());
}

TEST(StringUtils, Strprintf)
{
    EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(strprintf("%.2f", 1.005), "1.00");
}

TEST(StringUtils, FormatDuration)
{
    EXPECT_EQ(formatDuration(0.0049), "0.0049s");
    EXPECT_EQ(formatDuration(5.82), "5.82s");
    EXPECT_EQ(formatDuration(830.0), "0.23hr");
}

TEST(StringUtils, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(2048), "2.0 KiB");
    EXPECT_EQ(formatBytes(3 * 1024 * 1024), "3.0 MiB");
}

TEST(StringUtils, JoinAndPad)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(padLeft("x", 3), "  x");
    EXPECT_EQ(padRight("x", 3), "x  ");
    EXPECT_EQ(padLeft("xyz", 2), "xyz");
}

TEST(StringUtils, CaseInsensitiveEquals)
{
    EXPECT_TRUE(iequals("DGL", "dgl"));
    EXPECT_FALSE(iequals("DGL", "dg"));
    EXPECT_FALSE(iequals("pyg", "dgl"));
}

TEST(TextTable, RendersHeaderAndRows)
{
    TextTable t;
    t.setHeader({"A", ">B"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "22"});
    std::string out = t.render();
    EXPECT_NE(out.find("| A      |"), std::string::npos);
    EXPECT_NE(out.find("|  1 |"), std::string::npos);  // right aligned
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TextTable, SeparatorRows)
{
    TextTable t;
    t.setHeader({"A"});
    t.addRow({"x"});
    t.addSeparator();
    t.addRow({"y"});
    std::string out = t.render();
    // header sep + 1 mid separator + top + bottom = 4 dashed lines
    int dashes = 0;
    for (std::size_t pos = 0;
         (pos = out.find("+--", pos)) != std::string::npos; ++pos)
        ++dashes;
    EXPECT_EQ(dashes, 4);
}

TEST(Env, IntFallbackAndParse)
{
    ::unsetenv("GNNPERF_TEST_KNOB");
    EXPECT_EQ(envInt("GNNPERF_TEST_KNOB", 5), 5);
    ::setenv("GNNPERF_TEST_KNOB", "12", 1);
    EXPECT_EQ(envInt("GNNPERF_TEST_KNOB", 5), 12);
    ::unsetenv("GNNPERF_TEST_KNOB");
}

TEST(EnvDeathTest, MalformedIntIsFatalAndNamesTheVariable)
{
    // A knob that does not parse must stop the run, not read as 0.
    ::setenv("GNNPERF_TEST_KNOB", "abc", 1);
    EXPECT_DEATH(envInt("GNNPERF_TEST_KNOB", 5),
                 "GNNPERF_TEST_KNOB=abc: not an integer");
    ::setenv("GNNPERF_TEST_KNOB", "12x", 1);
    EXPECT_DEATH(envInt("GNNPERF_TEST_KNOB", 5), "GNNPERF_TEST_KNOB");
    ::unsetenv("GNNPERF_TEST_KNOB");
}

TEST(StringUtils, CsvEscapeFollowsRfc4180)
{
    // Plain fields pass through; a comma, quote or newline quotes the
    // field and doubles embedded quotes.
    EXPECT_EQ(csvEscape("sgemm"), "sgemm");
    EXPECT_EQ(csvEscape("kernel,with\"comma"), "\"kernel,with\"\"comma\"");
    EXPECT_EQ(csvEscape("two\nlines"), "\"two\nlines\"");
}

TEST(StringUtils, StrictNumberParsing)
{
    int64_t i = 7;
    EXPECT_TRUE(parseInt("-5", i));
    EXPECT_EQ(i, -5);
    for (const char *bad : {"", "abc", "3 ", " 3", "3.0", "+3",
                            "99999999999999999999"}) {
        EXPECT_FALSE(parseInt(bad, i)) << bad;
        EXPECT_EQ(i, -5) << bad;
    }
    double d = 0.0;
    EXPECT_TRUE(parseReal("0.25", d));
    EXPECT_DOUBLE_EQ(d, 0.25);
    EXPECT_TRUE(parseReal("1e-3", d));
    EXPECT_DOUBLE_EQ(d, 1e-3);
    for (const char *bad : {"", "x", "0.2x", "inf", "nan", "1e999"})
        EXPECT_FALSE(parseReal(bad, d)) << bad;
}

TEST(Env, ScaleKnob)
{
    ::unsetenv("GNNPERF_SCALE");
    EXPECT_FALSE(fullScale());
    ::setenv("GNNPERF_SCALE", "FULL", 1);
    EXPECT_TRUE(fullScale());
    ::unsetenv("GNNPERF_SCALE");
}

TEST(Env, EpochKnobHonoursScale)
{
    ::unsetenv("GNNPERF_EPOCHS");
    ::unsetenv("GNNPERF_SCALE");
    EXPECT_EQ(envEpochs(10, 200), 10);
    ::setenv("GNNPERF_SCALE", "full", 1);
    EXPECT_EQ(envEpochs(10, 200), 200);
    ::setenv("GNNPERF_EPOCHS", "33", 1);
    EXPECT_EQ(envEpochs(10, 200), 33);
    ::unsetenv("GNNPERF_EPOCHS");
    ::unsetenv("GNNPERF_SCALE");
}

TEST(Fs, EnsureDirCreatesNestedAndIsIdempotent)
{
    const std::string root = ::testing::TempDir() + "gnnperf_fs_test";
    const std::string nested = root + "/a/b/c";
    EXPECT_TRUE(ensureDir(nested));
    EXPECT_TRUE(ensureDir(nested));  // already exists

    std::string payload;
    EXPECT_FALSE(readFile(nested + "/missing.txt", payload));
}

TEST(Fs, EnsureDirRefusesRegularFile)
{
    const std::string path = ::testing::TempDir() + "gnnperf_fs_file";
    FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("x", f);
    std::fclose(f);
    EXPECT_FALSE(ensureDir(path));
    EXPECT_FALSE(ensureDir(path + "/sub"));

    std::string payload;
    EXPECT_TRUE(readFile(path, payload));
    EXPECT_EQ(payload, "x");
    std::remove(path.c_str());
}
