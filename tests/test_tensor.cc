/**
 * @file
 * Tensor and elementwise-op tests: construction, shape checks, device
 * accounting hooks, and numerical correctness against hand-computed
 * values.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "device/allocator.hh"
#include "device/device.hh"
#include "obs/stats.hh"
#include "parallel/thread_pool.hh"
#include "tensor/ops.hh"
#include "tensor/tensor.hh"

using namespace gnnperf;

TEST(Tensor, ConstructionAndShape)
{
    Tensor t({3, 4});
    EXPECT_EQ(t.rank(), 2);
    EXPECT_EQ(t.dim(0), 3);
    EXPECT_EQ(t.dim(1), 4);
    EXPECT_EQ(t.numel(), 12);
    EXPECT_EQ(t.bytes(), 48u);
    EXPECT_TRUE(t.defined());
}

TEST(Tensor, UndefinedByDefault)
{
    Tensor t;
    EXPECT_FALSE(t.defined());
    EXPECT_EQ(t.numel(), 0);
}

TEST(Tensor, ZerosOnesFull)
{
    Tensor z = Tensor::zeros({2, 2});
    Tensor o = Tensor::ones({2, 2});
    Tensor f = Tensor::full({2, 2}, 3.5f);
    for (int64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(z.at(i), 0.0f);
        EXPECT_EQ(o.at(i), 1.0f);
        EXPECT_EQ(f.at(i), 3.5f);
    }
}

TEST(Tensor, FromVectorAndAt)
{
    Tensor t = Tensor::fromVector({1, 2, 3, 4, 5, 6}, {2, 3});
    EXPECT_EQ(t.at(0, 0), 1.0f);
    EXPECT_EQ(t.at(1, 2), 6.0f);
    t.set(1, 2, 9.0f);
    EXPECT_EQ(t.at(1, 2), 9.0f);
}

TEST(Tensor, CloneIsDeep)
{
    Tensor a = Tensor::ones({2, 2});
    Tensor b = a.clone();
    b.set(0, 5.0f);
    EXPECT_EQ(a.at(0), 1.0f);
    EXPECT_EQ(b.at(0), 5.0f);
}

TEST(Tensor, LargeFillAndCloneRunInThePool)
{
    // Above 64K floats fill and clone are one pooled launch each
    // (par.fill, par.copy); the odd size leaves a partial last chunk.
    par::ThreadScope width(4);
    const bool sampling = stats::samplingEnabled();
    stats::setSamplingEnabled(true);
    stats::Counter &launches = stats::counter("parallel.launches");
    const uint64_t before = launches.value();
    Tensor t({300001});
    t.fill(2.5f);
    for (int64_t i = 0; i < t.numel(); ++i)
        ASSERT_EQ(t.at(i), 2.5f) << "at " << i;
    for (int64_t i = 0; i < t.numel(); i += 4099)
        t.set(i, static_cast<float>(i));
    Tensor c = t.clone();
    EXPECT_NE(c.data(), t.data());
    EXPECT_EQ(std::memcmp(c.data(), t.data(), t.bytes()), 0);
    EXPECT_EQ(launches.value() - before, 2u);

    // Below the grain both stay inline: no launch.
    Tensor small({1000});
    small.fill(1.0f);
    Tensor small_copy = small.clone();
    EXPECT_EQ(small_copy.at(999), 1.0f);
    EXPECT_EQ(launches.value() - before, 2u);
    stats::setSamplingEnabled(sampling);
}

TEST(Tensor, ReshapeSharesStorage)
{
    Tensor a = Tensor::fromVector({1, 2, 3, 4}, {2, 2});
    Tensor b = a.reshape({4});
    b.set(3, 9.0f);
    EXPECT_EQ(a.at(1, 1), 9.0f);
}

TEST(Tensor, CudaAllocationTracked)
{
    auto &dm = DeviceManager::instance();
    const std::size_t before = dm.cudaCurrent();
    {
        Tensor t({100, 10}, DeviceKind::Cuda);
        EXPECT_EQ(dm.cudaCurrent(), before + 4000);
    }
    EXPECT_EQ(dm.cudaCurrent(), before);
}

TEST(Tensor, PeakTracksHighWater)
{
    auto &dm = DeviceManager::instance();
    dm.resetCudaPeak();
    const std::size_t base = dm.cudaPeak();
    {
        Tensor a({1000}, DeviceKind::Cuda);
        Tensor b({1000}, DeviceKind::Cuda);
        EXPECT_GE(dm.cudaPeak(), base + 8000);
    }
    EXPECT_GE(dm.cudaPeak(), base + 8000);  // peak survives frees
}

namespace {

/** Switch both devices to `kind` for one test, then restore. */
class AllocatorGuard
{
  public:
    explicit AllocatorGuard(AllocatorKind kind)
        : saved_(DeviceManager::instance().allocatorKind(
              DeviceKind::Cuda))
    {
        DeviceManager::instance().setAllocator(kind);
    }
    ~AllocatorGuard() { DeviceManager::instance().setAllocator(saved_); }

  private:
    AllocatorKind saved_;
};

} // namespace

TEST(TensorAliasing, CloneAllocatesFreshBlock)
{
    AllocatorGuard guard(AllocatorKind::Caching);
    Tensor a = Tensor::ones({16, 16});
    Tensor b = a.clone();
    EXPECT_NE(a.data(), b.data());
}

TEST(TensorAliasing, ReshapeSharesBlock)
{
    AllocatorGuard guard(AllocatorKind::Caching);
    Tensor a = Tensor::ones({4, 4});
    Tensor v = a.reshape({16});
    EXPECT_EQ(a.data(), v.data());
}

TEST(TensorAliasing, DyingViewDoesNotReturnLiveBlockToPool)
{
    AllocatorGuard guard(AllocatorKind::Caching);
    auto &dm = DeviceManager::instance();
    dm.emptyCaches();
    Tensor a = Tensor::ones({64, 64});
    {
        Tensor view = a.reshape({4096});
        EXPECT_EQ(view.data(), a.data());
    }
    // The view died but `a` still holds the storage: a same-size
    // allocation must come from fresh memory, not a's block.
    Tensor c({64, 64});
    EXPECT_NE(c.data(), a.data());
    EXPECT_EQ(a.at(0), 1.0f); // a's contents untouched
}

TEST(TensorAliasing, BlockReturnsToPoolOnlyAfterLastAliasDies)
{
    AllocatorGuard guard(AllocatorKind::Caching);
    auto &dm = DeviceManager::instance();
    dm.emptyCaches();
    const std::size_t hits0 =
        dm.stats(DeviceKind::Cuda).cacheHits;
    const float *old_ptr = nullptr;
    {
        Tensor a = Tensor::ones({32, 32});
        Tensor view = a.reshape({1024});
        old_ptr = a.data();
    }
    // Both aliases are gone: the block is back in the pool and a
    // same-size allocation reuses it.
    Tensor b({32, 32});
    EXPECT_EQ(b.data(), old_ptr);
    EXPECT_GT(dm.stats(DeviceKind::Cuda).cacheHits, hits0);
}

TEST(Tensor, HostNotCountedAsCuda)
{
    auto &dm = DeviceManager::instance();
    const std::size_t before = dm.cudaCurrent();
    Tensor t({64, 64}, DeviceKind::Host);
    EXPECT_EQ(dm.cudaCurrent(), before);
}

TEST(Tensor, ToDeviceCopies)
{
    Tensor h = Tensor::fromVector({1, 2, 3}, {3}, DeviceKind::Host);
    Tensor d = h.to(DeviceKind::Cuda);
    EXPECT_EQ(d.device(), DeviceKind::Cuda);
    EXPECT_EQ(d.at(2), 3.0f);
    // Same-device to() is a cheap shared copy.
    Tensor d2 = d.to(DeviceKind::Cuda);
    d2.set(0, 7.0f);
    EXPECT_EQ(d.at(0), 7.0f);
}

TEST(Ops, AddSubMulDiv)
{
    Tensor a = Tensor::fromVector({1, 2, 3, 4}, {2, 2});
    Tensor b = Tensor::fromVector({4, 3, 2, 1}, {2, 2});
    EXPECT_EQ(ops::add(a, b).at(0), 5.0f);
    EXPECT_EQ(ops::sub(a, b).at(3), 3.0f);
    EXPECT_EQ(ops::mul(a, b).at(1), 6.0f);
    EXPECT_EQ(ops::div(a, b).at(2), 1.5f);
}

TEST(Ops, AddRowsBroadcastsBias)
{
    Tensor x = Tensor::fromVector({1, 2, 3, 4}, {2, 2});
    Tensor b = Tensor::fromVector({10, 20}, {2});
    Tensor y = ops::addRows(x, b);
    EXPECT_EQ(y.at(0, 0), 11.0f);
    EXPECT_EQ(y.at(1, 1), 24.0f);
}

TEST(Ops, MulColsAndDivCols)
{
    Tensor x = Tensor::fromVector({1, 2, 3, 4}, {2, 2});
    Tensor s = Tensor::fromVector({2, 4}, {2});
    Tensor m = ops::mulCols(x, s);
    EXPECT_EQ(m.at(0, 1), 4.0f);
    EXPECT_EQ(m.at(1, 0), 12.0f);
    Tensor d = ops::divCols(x, s);
    EXPECT_FLOAT_EQ(d.at(1, 1), 1.0f);
}

TEST(Ops, InPlaceOps)
{
    Tensor a = Tensor::fromVector({1, 2}, {2});
    Tensor b = Tensor::fromVector({3, 4}, {2});
    ops::addInPlace(a, b);
    EXPECT_EQ(a.at(1), 6.0f);
    ops::addScaledInPlace(a, b, -2.0f);
    EXPECT_EQ(a.at(0), -2.0f);
}

TEST(Ops, Activations)
{
    Tensor x = Tensor::fromVector({-1.0f, 0.0f, 2.0f}, {3});
    EXPECT_EQ(ops::relu(x).at(0), 0.0f);
    EXPECT_EQ(ops::relu(x).at(2), 2.0f);
    EXPECT_NEAR(ops::sigmoid(x).at(2), 1.0 / (1.0 + std::exp(-2.0)),
                1e-6);
    EXPECT_NEAR(ops::tanhT(x).at(0), std::tanh(-1.0), 1e-6);
    EXPECT_NEAR(ops::elu(x).at(0), std::exp(-1.0) - 1.0, 1e-6);
    EXPECT_FLOAT_EQ(ops::leakyRelu(x, 0.1f).at(0), -0.1f);
    EXPECT_FLOAT_EQ(ops::leakyRelu(x, 0.1f).at(2), 2.0f);
}

TEST(Ops, ExpLogSqrtSquareReciprocal)
{
    Tensor x = Tensor::fromVector({1.0f, 4.0f}, {2});
    EXPECT_NEAR(ops::expT(x).at(0), std::exp(1.0), 1e-5);
    EXPECT_NEAR(ops::logT(x).at(1), std::log(4.0), 1e-6);
    EXPECT_FLOAT_EQ(ops::sqrtT(x).at(1), 2.0f);
    EXPECT_FLOAT_EQ(ops::square(x).at(1), 16.0f);
    EXPECT_FLOAT_EQ(ops::reciprocal(x).at(1), 0.25f);
}

TEST(Ops, Reductions)
{
    Tensor x = Tensor::fromVector({1, 2, 3, 4, 5, 6}, {2, 3});
    Tensor cols = ops::sumRows(x);  // per-column sums
    EXPECT_EQ(cols.at(0), 5.0f);
    EXPECT_EQ(cols.at(2), 9.0f);
    Tensor rows = ops::sumCols(x);  // per-row sums
    EXPECT_EQ(rows.at(0), 6.0f);
    EXPECT_EQ(rows.at(1), 15.0f);
    EXPECT_FLOAT_EQ(ops::sumAll(x).at(0), 21.0f);
    EXPECT_FLOAT_EQ(ops::meanAll(x).at(0), 3.5f);
    Tensor mean = ops::meanRows(x);
    EXPECT_FLOAT_EQ(mean.at(1), 3.5f);
    Tensor var = ops::varRows(x, mean);
    EXPECT_FLOAT_EQ(var.at(0), 2.25f);  // values {1,4}
}

TEST(Ops, ArgmaxRows)
{
    Tensor x = Tensor::fromVector({1, 9, 2, 8, 3, 4}, {2, 3});
    auto arg = ops::argmaxRows(x);
    EXPECT_EQ(arg[0], 1);
    EXPECT_EQ(arg[1], 0);
}

TEST(Ops, SoftmaxRowsSumToOne)
{
    Tensor x = Tensor::fromVector({1, 2, 3, 100, 100, 100}, {2, 3});
    Tensor s = ops::softmaxRows(x);
    for (int64_t i = 0; i < 2; ++i) {
        float sum = s.at(i, 0) + s.at(i, 1) + s.at(i, 2);
        EXPECT_NEAR(sum, 1.0f, 1e-5);
    }
    EXPECT_NEAR(s.at(1, 0), 1.0f / 3.0f, 1e-5);
    EXPECT_GT(s.at(0, 2), s.at(0, 0));
}

TEST(Ops, LogSoftmaxMatchesSoftmax)
{
    Tensor x = Tensor::fromVector({0.5f, -1.0f, 2.0f}, {1, 3});
    Tensor ls = ops::logSoftmaxRows(x);
    Tensor s = ops::softmaxRows(x);
    for (int64_t j = 0; j < 3; ++j)
        EXPECT_NEAR(std::exp(ls.at(0, j)), s.at(0, j), 1e-5);
}

TEST(Ops, ConcatSliceTranspose)
{
    Tensor a = Tensor::fromVector({1, 2, 3, 4}, {2, 2});
    Tensor b = Tensor::fromVector({5, 6}, {2, 1});
    Tensor c = ops::concatCols(a, b);
    EXPECT_EQ(c.dim(1), 3);
    EXPECT_EQ(c.at(0, 2), 5.0f);
    Tensor s = ops::sliceCols(c, 1, 3);
    EXPECT_EQ(s.at(1, 0), 4.0f);
    Tensor r = ops::sliceRows(a, 1, 2);
    EXPECT_EQ(r.at(0, 1), 4.0f);
    Tensor t = ops::transpose(a);
    EXPECT_EQ(t.at(0, 1), 3.0f);
}

TEST(Ops, GatherAndScatterAddRows)
{
    Tensor x = Tensor::fromVector({1, 2, 3, 4, 5, 6}, {3, 2});
    std::vector<int64_t> idx{2, 0, 2};
    Tensor g = ops::gatherRows(x, idx);
    EXPECT_EQ(g.at(0, 0), 5.0f);
    EXPECT_EQ(g.at(1, 1), 2.0f);
    Tensor s = ops::scatterAddRows(g, idx, 3);
    EXPECT_EQ(s.at(0, 0), 1.0f);   // from idx 1
    EXPECT_EQ(s.at(2, 0), 10.0f);  // 5+5
    EXPECT_EQ(s.at(1, 0), 0.0f);   // untouched
}

TEST(Ops, L2NormalizeRows)
{
    Tensor x = Tensor::fromVector({3, 4, 0, 0}, {2, 2});
    Tensor n = ops::l2NormalizeRows(x);
    EXPECT_NEAR(n.at(0, 0), 0.6f, 1e-5);
    EXPECT_NEAR(n.at(0, 1), 0.8f, 1e-5);
    EXPECT_EQ(n.at(1, 0), 0.0f);  // zero row stays finite
}

TEST(Ops, DropoutMaskAndScale)
{
    Tensor x = Tensor::ones({1000});
    Tensor mask;
    Tensor y = ops::dropout(x, 0.5f, mask, 42);
    int64_t kept = 0;
    for (int64_t i = 0; i < 1000; ++i) {
        if (y.at(i) != 0.0f) {
            EXPECT_FLOAT_EQ(y.at(i), 2.0f);  // inverted scaling
            ++kept;
        }
    }
    EXPECT_NEAR(static_cast<double>(kept), 500.0, 60.0);
}

TEST(Ops, MaximumAndAllFinite)
{
    Tensor a = Tensor::fromVector({1, 5}, {2});
    Tensor b = Tensor::fromVector({3, 2}, {2});
    Tensor m = ops::maximum(a, b);
    EXPECT_EQ(m.at(0), 3.0f);
    EXPECT_EQ(m.at(1), 5.0f);
    EXPECT_TRUE(ops::allFinite(m));
    Tensor bad = Tensor::fromVector({1.0f, INFINITY}, {2});
    EXPECT_FALSE(ops::allFinite(bad));
}
