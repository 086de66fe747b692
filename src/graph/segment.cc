#include "graph/segment.hh"

#include <algorithm>

#include "common/logging.hh"
#include "device/profiler.hh"
#include "obs/stats.hh"
#include "parallel/thread_pool.hh"
#include "parallel/write_check.hh"

namespace gnnperf {
namespace graphops {

namespace {

Tensor
segmentReduce(const Tensor &x, const std::vector<int64_t> &ptr,
              bool mean, const char *name)
{
    gnnperf_assert(x.rank() == 2, "segmentReduce on rank ", x.rank());
    gnnperf_assert(!ptr.empty() && ptr.front() == 0 &&
                   ptr.back() == x.dim(0),
                   "segmentReduce: bad segment pointer");
    const int64_t b = static_cast<int64_t>(ptr.size()) - 1;
    static stats::Counter &calls = stats::counter("kernel.segment.calls");
    static stats::Counter &segments =
        stats::counter("kernel.segment.segments");
    calls.inc();
    segments.inc(static_cast<uint64_t>(b));
    const int64_t f = x.dim(1);
    Tensor out({b, f}, x.device());
    const float *px = x.data();
    float *po = out.data();
    // Segment-parallel: each graph owns its output row, which its chunk
    // zeroes before accumulating. Graph sizes in a batch are power-law
    // skewed, so a small grain leaves room for stealing.
    par::parallelFor(
        "par.segment_reduce", 0, b, 16,
        [&](int64_t gb, int64_t ge, int) {
            std::fill(po + gb * f, po + ge * f, 0.0f);
            for (int64_t g = gb; g < ge; ++g) {
                float *dst = po + g * f;
                const int64_t begin = ptr[static_cast<std::size_t>(g)];
                const int64_t end = ptr[static_cast<std::size_t>(g) + 1];
                for (int64_t i = begin; i < end; ++i) {
                    const float *row = px + i * f;
                    for (int64_t j = 0; j < f; ++j)
                        dst[j] += row[j];
                }
                if (mean && end > begin) {
                    const float inv =
                        1.0f / static_cast<float>(end - begin);
                    for (int64_t j = 0; j < f; ++j)
                        dst[j] *= inv;
                }
            }
        });
    recordKernel(name, static_cast<double>(x.numel()),
                 static_cast<double>(x.bytes()) +
                     static_cast<double>(out.bytes()));
    return out;
}

Tensor
segmentBroadcast(const Tensor &grad, const std::vector<int64_t> &ptr,
                 bool mean, const char *name)
{
    gnnperf_assert(grad.rank() == 2, "segmentBroadcast on rank ",
                   grad.rank());
    gnnperf_assert(static_cast<int64_t>(ptr.size()) == grad.dim(0) + 1,
                   "segmentBroadcast: bad segment pointer");
    const int64_t b = grad.dim(0);
    const int64_t f = grad.dim(1);
    const int64_t n = ptr.back();
    Tensor out = Tensor::zeros({n, f}, grad.device());
    const float *pg = grad.data();
    float *po = out.data();
    // Segments are disjoint node ranges, so per-graph chunks write
    // disjoint output rows. The launch iterates graphs but writes the
    // ptr-derived *node-row* ranges, so checked builds verify those
    // ranges tile [0, n) exactly — a non-monotonic segment pointer
    // aborts here instead of racing.
    par::WriteSet ws(name, n);
    par::parallelFor(
        "par.segment_bcast", 0, b, 16,
        [&](int64_t gb, int64_t ge, int slot) {
            for (int64_t g = gb; g < ge; ++g) {
                const int64_t begin = ptr[static_cast<std::size_t>(g)];
                const int64_t end = ptr[static_cast<std::size_t>(g) + 1];
                const float scale =
                    mean && end > begin
                        ? 1.0f / static_cast<float>(end - begin) : 1.0f;
                const float *row = pg + g * f;
                for (int64_t i = begin; i < end; ++i) {
                    float *dst = po + i * f;
                    for (int64_t j = 0; j < f; ++j)
                        dst[j] = row[j] * scale;
                }
                if (end > begin)
                    ws.note(slot, begin, end);
            }
        });
    recordKernel(name, static_cast<double>(out.numel()),
                 static_cast<double>(grad.bytes()) +
                     static_cast<double>(out.bytes()));
    return out;
}

} // namespace

Tensor
segmentMean(const Tensor &x, const std::vector<int64_t> &ptr)
{
    return segmentReduce(x, ptr, true, "segment_mean");
}

Tensor
segmentSum(const Tensor &x, const std::vector<int64_t> &ptr)
{
    return segmentReduce(x, ptr, false, "segment_sum");
}

Tensor
segmentMeanBackward(const Tensor &grad, const std::vector<int64_t> &ptr)
{
    return segmentBroadcast(grad, ptr, true, "segment_mean_bwd");
}

Tensor
segmentSumBackward(const Tensor &grad, const std::vector<int64_t> &ptr)
{
    return segmentBroadcast(grad, ptr, false, "segment_sum_bwd");
}

} // namespace graphops
} // namespace gnnperf
