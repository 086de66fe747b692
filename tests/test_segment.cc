/**
 * @file
 * Segment-reduction tests (DGL's pooling primitive).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "common/random.hh"
#include "graph/segment.hh"
#include "parallel/thread_pool.hh"
#include "recycled_block.hh"
#include "tensor/init.hh"
#include "tensor/ops.hh"

using namespace gnnperf;
using namespace gnnperf::graphops;

TEST(Segment, MeanOverRanges)
{
    Tensor x = Tensor::fromVector({1, 2, 3, 4, 5, 6}, {3, 2});
    Tensor out = segmentMean(x, {0, 2, 3});
    EXPECT_FLOAT_EQ(out.at(0, 0), 2.0f);  // (1+3)/2
    EXPECT_FLOAT_EQ(out.at(0, 1), 3.0f);  // (2+4)/2
    EXPECT_FLOAT_EQ(out.at(1, 0), 5.0f);
}

TEST(Segment, SumOverRanges)
{
    Tensor x = Tensor::fromVector({1, 2, 3, 4}, {2, 2});
    Tensor out = segmentSum(x, {0, 2});
    EXPECT_FLOAT_EQ(out.at(0, 0), 4.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1), 6.0f);
}

TEST(Segment, EmptySegmentsAreZero)
{
    Tensor x = Tensor::ones({2, 1});
    Tensor out = segmentMean(x, {0, 0, 2, 2});
    EXPECT_FLOAT_EQ(out.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(out.at(1, 0), 1.0f);
    EXPECT_FLOAT_EQ(out.at(2, 0), 0.0f);
}

TEST(Segment, EveryOutputRowIsWritten)
{
    // segmentSum/Mean allocate their output uninitialised and each
    // pooled chunk zeroes its own rows. Both run into a recycled NaN
    // block at 1 and 4 threads and must give the bytes of a serial run
    // over a zero-filled block; every third segment is empty.
    using testing_util::RecycledBlock;
    const int64_t b = 120, f = 6;
    std::vector<int64_t> ptr{0};
    for (int64_t g = 0; g < b; ++g)
        ptr.push_back(ptr.back() + (g % 3 == 0 ? 0 : 1 + g % 5));
    Rng rng(43);
    const Tensor x = init::normal({ptr.back(), f}, 0.0f, 1.0f, rng);
    for (bool mean : {false, true}) {
        const auto run = [&] {
            return mean ? segmentMean(x, ptr) : segmentSum(x, ptr);
        };
        Tensor ref;
        {
            par::ThreadScope width(1);
            RecycledBlock zeros(b * f, 0.0f);
            ref = run();
            ASSERT_EQ(ref.data(), zeros.address());
        }
        for (int threads : {1, 4}) {
            par::ThreadScope width(threads);
            RecycledBlock block(b * f,
                                std::numeric_limits<float>::quiet_NaN());
            const Tensor out = run();
            ASSERT_EQ(out.data(), block.address());
            EXPECT_EQ(std::memcmp(out.data(), ref.data(), ref.bytes()), 0)
                << (mean ? "mean" : "sum") << " at " << threads
                << " threads";
        }
    }
}

TEST(Segment, MeanBackwardBroadcastsScaled)
{
    Tensor grad = Tensor::fromVector({6, 12}, {2, 1});
    Tensor back = segmentMeanBackward(grad, {0, 3, 4});
    EXPECT_FLOAT_EQ(back.at(0, 0), 2.0f);  // 6/3
    EXPECT_FLOAT_EQ(back.at(2, 0), 2.0f);
    EXPECT_FLOAT_EQ(back.at(3, 0), 12.0f);
}

TEST(Segment, SumBackwardBroadcastsRaw)
{
    Tensor grad = Tensor::fromVector({5}, {1, 1});
    Tensor back = segmentSumBackward(grad, {0, 3});
    for (int64_t i = 0; i < 3; ++i)
        EXPECT_FLOAT_EQ(back.at(i, 0), 5.0f);
}

TEST(Segment, MeanGradientIdentity)
{
    // <g, segmentMean(x)> == <segmentMeanBackward(g), x>.
    Tensor x = Tensor::fromVector({1, 2, 3, 4, 5, 6, 7, 8}, {4, 2});
    std::vector<int64_t> ptr{0, 1, 4};
    Tensor g = Tensor::fromVector({1, -1, 2, 0.5}, {2, 2});
    Tensor fwd = segmentMean(x, ptr);
    Tensor back = segmentMeanBackward(g, ptr);
    double lhs = 0.0, rhs = 0.0;
    for (int64_t i = 0; i < fwd.numel(); ++i)
        lhs += static_cast<double>(g.at(i)) * fwd.at(i);
    for (int64_t i = 0; i < x.numel(); ++i)
        rhs += static_cast<double>(back.at(i)) * x.at(i);
    EXPECT_NEAR(lhs, rhs, 1e-5);
}
