/**
 * @file
 * Matrix multiplication tests: correctness against a reference
 * triple loop, transposed variants, and shapes; byte parity of every
 * GEMM-core ISA path and density route with the scalar reference.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>

#include "common/random.hh"
#include "device/profiler.hh"
#include "parallel/thread_pool.hh"
#include "tensor/init.hh"
#include "tensor/matmul.hh"
#include "tensor/ops.hh"

using namespace gnnperf;

namespace {

Tensor
referenceMatmul(const Tensor &a, const Tensor &b)
{
    const int64_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
    Tensor c = Tensor::zeros({n, m});
    for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < m; ++j) {
            double s = 0.0;
            for (int64_t kk = 0; kk < k; ++kk)
                s += static_cast<double>(a.at(i, kk)) * b.at(kk, j);
            c.set(i, j, static_cast<float>(s));
        }
    return c;
}

void
expectClose(const Tensor &a, const Tensor &b, float tol = 1e-4f)
{
    ASSERT_TRUE(a.sameShape(b));
    for (int64_t i = 0; i < a.numel(); ++i)
        ASSERT_NEAR(a.at(i), b.at(i), tol) << "at " << i;
}

} // namespace

TEST(Matmul, SmallKnownValues)
{
    Tensor a = Tensor::fromVector({1, 2, 3, 4}, {2, 2});
    Tensor b = Tensor::fromVector({5, 6, 7, 8}, {2, 2});
    Tensor c = ops::matmul(a, b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Matmul, RectangularMatchesReference)
{
    Rng rng(3);
    Tensor a = init::normal({17, 9}, 0.0f, 1.0f, rng);
    Tensor b = init::normal({9, 23}, 0.0f, 1.0f, rng);
    expectClose(ops::matmul(a, b), referenceMatmul(a, b));
}

TEST(Matmul, IdentityIsNeutral)
{
    Rng rng(5);
    Tensor a = init::normal({6, 6}, 0.0f, 1.0f, rng);
    Tensor eye = Tensor::zeros({6, 6});
    for (int64_t i = 0; i < 6; ++i)
        eye.set(i, i, 1.0f);
    expectClose(ops::matmul(a, eye), a);
    expectClose(ops::matmul(eye, a), a);
}

TEST(Matmul, TransAMatchesExplicitTranspose)
{
    Rng rng(7);
    Tensor a = init::normal({11, 5}, 0.0f, 1.0f, rng);
    Tensor b = init::normal({11, 8}, 0.0f, 1.0f, rng);
    Tensor expected = ops::matmul(ops::transpose(a), b);
    expectClose(ops::matmulTransA(a, b), expected);
}

TEST(Matmul, TransBMatchesExplicitTranspose)
{
    Rng rng(9);
    Tensor a = init::normal({7, 13}, 0.0f, 1.0f, rng);
    Tensor b = init::normal({10, 13}, 0.0f, 1.0f, rng);
    Tensor expected = ops::matmul(a, ops::transpose(b));
    expectClose(ops::matmulTransB(a, b), expected);
}

TEST(Matmul, ZeroSizedDims)
{
    Tensor a = Tensor::zeros({0, 4});
    Tensor b = Tensor::zeros({4, 3});
    Tensor c = ops::matmul(a, b);
    EXPECT_EQ(c.dim(0), 0);
    EXPECT_EQ(c.dim(1), 3);
}

TEST(Matmul, SparseInputSkipPreservesResult)
{
    // The kernel skips zero a-elements; results must be identical to
    // the reference for sparse inputs (Cora features are mostly 0).
    Rng rng(11);
    Tensor a = Tensor::zeros({20, 30});
    for (int64_t i = 0; i < a.numel(); ++i)
        if (rng.bernoulli(0.05))
            a.set(i, static_cast<float>(rng.normal()));
    Tensor b = init::normal({30, 6}, 0.0f, 1.0f, rng);
    expectClose(ops::matmul(a, b), referenceMatmul(a, b));
}

// ----- GEMM core parity -----------------------------------------------------

namespace {

using ops::detail::GemmIsa;
using ops::detail::GemmOp;
using ops::detail::GemmRoute;

/** Every output-row, column and depth extent: hits each tile tail. */
constexpr int64_t kDims[] = {1, 3, 15, 16, 17, 95, 96, 97, 257};

/**
 * Shapes above 97³ multiply-adds are left out to keep the sweep quick
 * under the sanitizers. Every pair of extents, 257 with 257 included,
 * still meets in some shape.
 */
constexpr int64_t kMaxMacs = 97 * 97 * 97;
constexpr int kParityThreads[] = {1, 4};
constexpr GemmOp kOps[] = {GemmOp::NN, GemmOp::TN, GemmOp::NT};
constexpr GemmRoute kRoutes[] = {GemmRoute::Auto, GemmRoute::Dense,
                                 GemmRoute::Sparse};

/** How much of A is nonzero: all, ReLU-like half, bag-of-words 5%. */
enum class Fill
{
    Dense,
    Relu,
    Sparse,
};

const char *
opName(GemmOp op)
{
    return op == GemmOp::NN ? "NN" : op == GemmOp::TN ? "TN" : "NT";
}

/**
 * The NaN x86 produces for 0·inf and inf − inf. Planting this one in
 * B keeps every NaN of a product on the same bits, so the parity
 * check can compare bytes without depending on which NaN operand an
 * add propagates.
 */
float
defaultNan()
{
    const uint32_t bits = 0xFFC00000u;
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

/** One product's operands in the layout `op` reads them. */
struct Operands
{
    Tensor a, b;
};

/**
 * A and B for output rows × depth × cols. A holds ±0 where `fill`
 * zeroes it and denormals among its values; B holds denormals, and
 * the middle depth index faces inf, −inf and NaN in B against an
 * all-zero slice of A, which the NN and TN paths must skip exactly.
 */
Operands
makeOperands(GemmOp op, int64_t rows, int64_t depth, int64_t cols,
             Fill fill, uint64_t seed)
{
    Rng rng(seed);
    const double keep =
        fill == Fill::Dense ? 1.0 : fill == Fill::Relu ? 0.5 : 0.05;
    const float inf = std::numeric_limits<float>::infinity();
    const float specials[] = {inf, -inf, defaultNan()};
    const int64_t hole = depth / 2;
    // A(r, p) and B(p, c) at their storage positions for `op`.
    Tensor a = op == GemmOp::TN ? Tensor({depth, rows})
                                : Tensor({rows, depth});
    Tensor b = op == GemmOp::NT ? Tensor({cols, depth})
                                : Tensor({depth, cols});
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t p = 0; p < depth; ++p) {
            float v = static_cast<float>(rng.normal());
            if (p == hole || !rng.bernoulli(keep))
                v = (r + p) % 3 == 0 ? -0.0f : 0.0f;
            else if ((r + p) % 23 == 0)
                v = (r % 2 ? -1.0f : 1.0f) * 3.0e-39f;
            if (op == GemmOp::TN)
                a.set(p, r, v);
            else
                a.set(r, p, v);
        }
    for (int64_t p = 0; p < depth; ++p)
        for (int64_t c = 0; c < cols; ++c) {
            float v = static_cast<float>(rng.normal());
            if (p == hole)
                v = specials[c % 3];
            else if ((p + c) % 19 == 0)
                v = std::numeric_limits<float>::denorm_min();
            if (op == GemmOp::NT)
                b.set(c, p, v);
            else
                b.set(p, c, v);
        }
    return {a, b};
}

bool
sameBytes(const Tensor &x, const Tensor &y)
{
    return x.sameShape(y) &&
           std::memcmp(x.data(), y.data(), x.bytes()) == 0;
}

/** The single kernel record `f` emits. */
KernelRecord
recordOf(const std::function<void()> &f)
{
    Profiler &prof = Profiler::instance();
    prof.reset();
    prof.setEnabled(true);
    f();
    prof.setEnabled(false);
    const auto &entries = prof.trace().entries();
    EXPECT_EQ(entries.size(), 1u);
    KernelRecord r = entries.empty() ? KernelRecord{} : entries[0].kernel;
    prof.reset();
    return r;
}

class GemmParity : public ::testing::TestWithParam<GemmIsa>
{
};

} // namespace

TEST_P(GemmParity, EveryShapeRouteAndWidthMatchesScalarBytes)
{
    const GemmIsa isa = GetParam();
    if (!ops::detail::gemmIsaSupported(isa))
        GTEST_SKIP() << ops::detail::gemmIsaName(isa)
                     << " is not supported on this host";
    uint64_t seed = 1;
    for (GemmOp op : kOps)
        for (Fill fill : {Fill::Dense, Fill::Relu, Fill::Sparse})
            for (int64_t rows : kDims)
                for (int64_t depth : kDims)
                    for (int64_t cols : kDims) {
                        if (rows * depth * cols > kMaxMacs)
                            continue;
                        const Operands in =
                            makeOperands(op, rows, depth, cols, fill, seed++);
                        Tensor ref;
                        {
                            par::ThreadScope width(1);
                            ref = ops::detail::gemm(op, in.a, in.b,
                                                    GemmIsa::Scalar,
                                                    GemmRoute::Auto);
                        }
                        for (int threads : kParityThreads) {
                            par::ThreadScope width(threads);
                            for (GemmRoute route : kRoutes) {
                                const Tensor c = ops::detail::gemm(
                                    op, in.a, in.b, isa, route);
                                ASSERT_TRUE(sameBytes(c, ref))
                                    << opName(op) << " rows=" << rows
                                    << " depth=" << depth
                                    << " cols=" << cols << " fill="
                                    << static_cast<int>(fill)
                                    << " threads=" << threads
                                    << " route=" << static_cast<int>(route);
                            }
                        }
                    }
}

INSTANTIATE_TEST_SUITE_P(
    Isa, GemmParity, ::testing::Values(GemmIsa::Avx2, GemmIsa::Avx512),
    [](const ::testing::TestParamInfo<GemmIsa> &info) {
        return std::string(ops::detail::gemmIsaName(info.param));
    });

TEST(GemmParity, ScalarReferenceIsThreadInvariant)
{
    const Operands in = makeOperands(GemmOp::TN, 97, 257, 95,
                                     Fill::Relu, 7);
    Tensor serial;
    for (int threads : kParityThreads) {
        par::ThreadScope width(threads);
        const Tensor c = ops::detail::gemm(GemmOp::TN, in.a, in.b,
                                           GemmIsa::Scalar, GemmRoute::Auto);
        if (threads == 1)
            serial = c;
        EXPECT_TRUE(sameBytes(serial, c));
    }
}

TEST(GemmParity, DispatchedIsaIsNamed)
{
    const std::string isa = ops::gemmIsa();
    EXPECT_TRUE(isa == "avx512" || isa == "avx2" || isa == "scalar") << isa;
    EXPECT_TRUE(ops::detail::gemmIsaSupported(GemmIsa::Scalar));
}

TEST(GemmParity, PublicOpsKeepTheirRecords)
{
    // rows × depth × cols = 33 × 17 × 9 for each product.
    Rng rng(21);
    const int64_t r = 33, d = 17, c = 9;
    const Tensor rd = init::normal({r, d}, 0.0f, 1.0f, rng);
    const Tensor dr = init::normal({d, r}, 0.0f, 1.0f, rng);
    const Tensor dc = init::normal({d, c}, 0.0f, 1.0f, rng);
    const Tensor cd = init::normal({c, d}, 0.0f, 1.0f, rng);
    const double flops = 2.0 * r * d * c;
    const double bytes = static_cast<double>(r * d + d * c + r * c) *
                         sizeof(float);
    const struct
    {
        const char *name;
        std::function<void()> run;
    } cases[] = {
        {"sgemm", [&] { ops::matmul(rd, dc); }},
        {"sgemm_tn", [&] { ops::matmulTransA(dr, dc); }},
        {"sgemm_nt", [&] { ops::matmulTransB(rd, cd); }},
    };
    for (const auto &k : cases) {
        const KernelRecord rec = recordOf(k.run);
        EXPECT_STREQ(rec.name, k.name);
        EXPECT_EQ(rec.flops, flops) << k.name;
        EXPECT_EQ(rec.bytes, bytes) << k.name;
    }
}

TEST(Init, GlorotBounds)
{
    Rng rng(13);
    Tensor w = init::glorotUniform(100, 50, rng);
    const float bound = std::sqrt(6.0f / 150.0f);
    for (int64_t i = 0; i < w.numel(); ++i) {
        ASSERT_GE(w.at(i), -bound);
        ASSERT_LE(w.at(i), bound);
    }
}

TEST(Init, NormalMoments)
{
    Rng rng(15);
    Tensor w = init::normal({200, 50}, 1.0f, 2.0f, rng);
    double sum = 0.0;
    for (int64_t i = 0; i < w.numel(); ++i)
        sum += w.at(i);
    EXPECT_NEAR(sum / w.numel(), 1.0, 0.05);
}
