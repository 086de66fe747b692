/**
 * @file
 * Fused GSpMM/GSDDMM kernel tests (the DGL-side primitives) —
 * including the key cross-implementation property: fused kernels must
 * equal the scatter composition on the same graph.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>

#include "common/random.hh"
#include "graph/graph.hh"
#include "graph/scatter.hh"
#include "graph/spmm.hh"
#include "parallel/thread_pool.hh"
#include "recycled_block.hh"
#include "tensor/init.hh"
#include "tensor/ops.hh"

using namespace gnnperf;
using namespace gnnperf::graphops;

namespace {

struct Fixture
{
    std::vector<int64_t> src{0, 1, 2, 2, 3, 0};
    std::vector<int64_t> dst{1, 0, 1, 3, 2, 2};
    int64_t n = 4;
    CsrIndex in, out;
    Tensor x;

    Fixture()
    {
        in = buildInIndex(n, src, dst);
        out = buildOutIndex(n, src, dst);
        Rng rng(3);
        x = init::normal({n, 6}, 0.0f, 1.0f, rng);
    }
};

void
expectClose(const Tensor &a, const Tensor &b, float tol = 1e-5f)
{
    ASSERT_TRUE(a.sameShape(b));
    for (int64_t i = 0; i < a.numel(); ++i)
        ASSERT_NEAR(a.at(i), b.at(i), tol) << "at " << i;
}

} // namespace

TEST(Spmm, CopyUSumMatchesScatter)
{
    Fixture f;
    Tensor fused = spmmCopyUSum(f.in, f.x);
    Tensor gathered = ops::gatherRows(f.x, f.src);
    Tensor scattered = ops::scatterAddRows(gathered, f.dst, f.n);
    expectClose(fused, scattered);
}

TEST(Spmm, CopyUMeanMatchesScatter)
{
    Fixture f;
    Tensor fused = spmmCopyUMean(f.in, f.x);
    Tensor gathered = ops::gatherRows(f.x, f.src);
    Tensor mean = scatterMeanRows(gathered, f.dst, f.n);
    expectClose(fused, mean);
}

TEST(Spmm, CopyUMaxMatchesScatter)
{
    Fixture f;
    std::vector<int64_t> arg_fused;
    Tensor fused = spmmCopyUMax(f.in, f.x, arg_fused);
    Tensor gathered = ops::gatherRows(f.x, f.src);
    std::vector<int64_t> arg_scatter;
    Tensor scattered = scatterMaxRows(gathered, f.dst, f.n,
                                      arg_scatter);
    expectClose(fused, scattered);
}

TEST(Spmm, CopyUMaxBackwardRoutesToSources)
{
    // Two edges into node 0 from nodes 1 and 2; winner per column.
    std::vector<int64_t> src{1, 2}, dst{0, 0};
    CsrIndex in = buildInIndex(3, src, dst);
    Tensor x = Tensor::fromVector({0, 0, 5, 1, 2, 9}, {3, 2});
    std::vector<int64_t> arg;
    Tensor fwd = spmmCopyUMax(in, x, arg);
    EXPECT_FLOAT_EQ(fwd.at(0, 0), 5.0f);  // from node 1
    EXPECT_FLOAT_EQ(fwd.at(0, 1), 9.0f);  // from node 2
    Tensor grad = Tensor::zeros({3, 2});
    grad.set(0, 0, 10.0f);
    grad.set(0, 1, 20.0f);
    Tensor back = spmmCopyUMaxBackward(grad, arg, 3);
    EXPECT_FLOAT_EQ(back.at(1, 0), 10.0f);
    EXPECT_FLOAT_EQ(back.at(2, 1), 20.0f);
    EXPECT_FLOAT_EQ(back.at(0, 0), 0.0f);
}

TEST(Spmm, UMulESumScalarWeights)
{
    Fixture f;
    Rng rng(5);
    Tensor w = init::normal({static_cast<int64_t>(f.src.size()), 1},
                            0.0f, 1.0f, rng);
    Tensor fused = spmmUMulESum(f.in, f.x, w, 1);
    // Reference: gather, scale rows by weight, scatter-add.
    Tensor gathered = ops::gatherRows(f.x, f.src);
    Tensor wcol({static_cast<int64_t>(f.src.size())});
    for (int64_t e = 0; e < wcol.numel(); ++e)
        wcol.set(e, w.at(e, 0));
    Tensor weighted = ops::mulCols(gathered, wcol);
    Tensor expected = ops::scatterAddRows(weighted, f.dst, f.n);
    expectClose(fused, expected);
}

TEST(Spmm, UMulESumMultiHead)
{
    // 2 heads, D=3: head h scales its slice by w[e,h].
    Fixture f;
    const int64_t e_count = static_cast<int64_t>(f.src.size());
    Rng rng(7);
    Tensor w = init::normal({e_count, 2}, 0.0f, 1.0f, rng);
    Tensor fused = spmmUMulESum(f.in, f.x, w, 2);
    // Reference computed per element.
    Tensor expected = Tensor::zeros({f.n, 6});
    for (int64_t e = 0; e < e_count; ++e) {
        for (int64_t h = 0; h < 2; ++h)
            for (int64_t d = 0; d < 3; ++d) {
                const int64_t col = h * 3 + d;
                expected.set(
                    f.dst[static_cast<std::size_t>(e)], col,
                    expected.at(f.dst[static_cast<std::size_t>(e)],
                                col) +
                        w.at(e, h) *
                            f.x.at(f.src[static_cast<std::size_t>(e)],
                                   col));
            }
    }
    expectClose(fused, expected);
}

TEST(Spmm, TransposedBackwardIdentity)
{
    // <y, A x> == <Aᵀ y, x> for copy_u-sum A: validates the
    // out-index backward used by the DGL backend.
    Fixture f;
    Rng rng(9);
    Tensor y = init::normal({f.n, 6}, 0.0f, 1.0f, rng);
    Tensor ax = spmmCopyUSum(f.in, f.x);
    Tensor aty = spmmCopyUSum(f.out, y);
    double lhs = 0.0, rhs = 0.0;
    for (int64_t i = 0; i < ax.numel(); ++i) {
        lhs += static_cast<double>(y.at(i)) * ax.at(i);
        rhs += static_cast<double>(aty.at(i)) * f.x.at(i);
    }
    EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Spmm, EveryOutputRowIsWritten)
{
    // The aggregations allocate their output uninitialised and each
    // pooled chunk zeroes its own rows. Each kernel runs into a
    // recycled NaN block at 1 and 4 threads and must give the bytes of
    // a serial run over a zero-filled block; nodes 0 mod 7 have no
    // in-edges, so their rows are written only by that zeroing.
    using testing_util::RecycledBlock;
    const int64_t n = 300, f = 8, heads = 2;
    Rng rng(41);
    std::vector<int64_t> src, dst;
    for (int e = 0; e < 1200; ++e) {
        const int64_t v = rng.uniformInt(int64_t{0}, n - 1);
        const int64_t u = rng.uniformInt(int64_t{0}, n - 1);
        if (v % 7 != 0) {
            src.push_back(u);
            dst.push_back(v);
        }
    }
    const CsrIndex in = buildInIndex(n, src, dst);
    const Tensor x = init::normal({n, f}, 0.0f, 1.0f, rng);
    const Tensor w = init::normal({static_cast<int64_t>(src.size()), heads},
                                  0.0f, 1.0f, rng);
    std::vector<int64_t> arg;
    const struct
    {
        const char *name;
        std::function<Tensor()> run;
    } kernels[] = {
        {"copy_u_sum", [&] { return spmmCopyUSum(in, x); }},
        {"copy_u_mean", [&] { return spmmCopyUMean(in, x); }},
        {"copy_u_max", [&] { return spmmCopyUMax(in, x, arg); }},
        {"u_mul_e_sum", [&] { return spmmUMulESum(in, x, w, heads); }},
    };
    for (const auto &k : kernels) {
        Tensor ref;
        {
            par::ThreadScope width(1);
            RecycledBlock zeros(n * f, 0.0f);
            ref = k.run();
            ASSERT_EQ(ref.data(), zeros.address()) << k.name;
        }
        for (int64_t v = 0; v < n; v += 7)
            for (int64_t j = 0; j < f; ++j)
                ASSERT_EQ(ref.at(v, j), 0.0f) << k.name;
        for (int threads : {1, 4}) {
            par::ThreadScope width(threads);
            RecycledBlock block(n * f,
                                std::numeric_limits<float>::quiet_NaN());
            const Tensor out = k.run();
            ASSERT_EQ(out.data(), block.address()) << k.name;
            EXPECT_EQ(std::memcmp(out.data(), ref.data(), ref.bytes()), 0)
                << k.name << " at " << threads << " threads";
        }
    }
}

TEST(Sddmm, DotUVMatchesManual)
{
    Fixture f;
    Rng rng(11);
    Tensor b = init::normal({f.n, 6}, 0.0f, 1.0f, rng);
    Tensor dots = sddmmDotUV(f.src, f.dst, f.x, b, 2);
    ASSERT_EQ(dots.dim(0), static_cast<int64_t>(f.src.size()));
    ASSERT_EQ(dots.dim(1), 2);
    for (std::size_t e = 0; e < f.src.size(); ++e) {
        for (int64_t h = 0; h < 2; ++h) {
            double expected = 0.0;
            for (int64_t d = 0; d < 3; ++d)
                expected += static_cast<double>(
                                f.x.at(f.src[e], h * 3 + d)) *
                            b.at(f.dst[e], h * 3 + d);
            EXPECT_NEAR(dots.at(static_cast<int64_t>(e), h), expected,
                        1e-4);
        }
    }
}
