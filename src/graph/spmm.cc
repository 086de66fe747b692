#include "graph/spmm.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "device/profiler.hh"
#include "obs/stats.hh"
#include "parallel/thread_pool.hh"

namespace gnnperf {
namespace graphops {

namespace {

void
recordSpmm(const char *name, int64_t edges, int64_t f, int64_t n,
           double flops_per_edge_elem)
{
    static stats::Counter &calls = stats::counter("kernel.spmm.calls");
    static stats::Counter &nnz = stats::counter("kernel.spmm.nnz");
    static stats::Distribution &rows =
        stats::distribution("kernel.spmm.rows");
    calls.inc();
    nnz.inc(static_cast<uint64_t>(edges));
    rows.sample(static_cast<double>(n));
    recordKernel(name,
                 flops_per_edge_elem * static_cast<double>(edges) * f,
                 static_cast<double>(edges * f + n * f) * sizeof(float) +
                     static_cast<double>(edges) * 2.0 * sizeof(int64_t));
}

} // namespace

Tensor
spmmCopyUSum(const CsrIndex &in_index, const Tensor &x)
{
    gnnperf_assert(x.rank() == 2, "spmmCopyUSum on rank ", x.rank());
    const int64_t n = in_index.numNodes();
    const int64_t f = x.dim(1);
    Tensor out({n, f}, x.device());
    const float *px = x.data();
    float *po = out.data();
    // Row-parallel: each destination node owns its output row and its
    // CSR neighbour order, so any thread count is byte-identical. The
    // output starts uninitialised; a chunk zeroes its own rows.
    par::parallelFor(
        "par.spmm_sum", 0, n, 32, [&](int64_t vb, int64_t ve, int) {
            std::fill(po + vb * f, po + ve * f, 0.0f);
            for (int64_t v = vb; v < ve; ++v) {
                float *dst = po + v * f;
                for (int64_t k = in_index.ptr[v]; k < in_index.ptr[v + 1];
                     ++k) {
                    const float *row =
                        px +
                        in_index.neighbor[static_cast<std::size_t>(k)] * f;
                    for (int64_t j = 0; j < f; ++j)
                        dst[j] += row[j];
                }
            }
        });
    recordSpmm("gspmm_copy_u_sum", in_index.numEdges(), f, n, 1.0);
    return out;
}

Tensor
spmmCopyUMean(const CsrIndex &in_index, const Tensor &x)
{
    gnnperf_assert(x.rank() == 2, "spmmCopyUMean on rank ", x.rank());
    const int64_t n = in_index.numNodes();
    const int64_t f = x.dim(1);
    Tensor out({n, f}, x.device());
    const float *px = x.data();
    float *po = out.data();
    par::parallelFor(
        "par.spmm_mean", 0, n, 32, [&](int64_t vb, int64_t ve, int) {
            std::fill(po + vb * f, po + ve * f, 0.0f);
            for (int64_t v = vb; v < ve; ++v) {
                float *dst = po + v * f;
                const int64_t begin = in_index.ptr[v],
                              end = in_index.ptr[v + 1];
                for (int64_t k = begin; k < end; ++k) {
                    const float *row =
                        px +
                        in_index.neighbor[static_cast<std::size_t>(k)] * f;
                    for (int64_t j = 0; j < f; ++j)
                        dst[j] += row[j];
                }
                if (end > begin) {
                    const float inv =
                        1.0f / static_cast<float>(end - begin);
                    for (int64_t j = 0; j < f; ++j)
                        dst[j] *= inv;
                }
            }
        });
    recordSpmm("gspmm_copy_u_mean", in_index.numEdges(), f, n, 1.0);
    return out;
}

Tensor
spmmCopyUMax(const CsrIndex &in_index, const Tensor &x,
             std::vector<int64_t> &arg_src)
{
    gnnperf_assert(x.rank() == 2, "spmmCopyUMax on rank ", x.rank());
    const int64_t n = in_index.numNodes();
    const int64_t f = x.dim(1);
    Tensor out({n, f}, x.device());
    arg_src.assign(static_cast<std::size_t>(n * f), -1);
    const float *px = x.data();
    float *po = out.data();
    int64_t *parg = arg_src.data();
    par::parallelFor(
        "par.spmm_max", 0, n, 32, [&](int64_t vb, int64_t ve, int) {
            for (int64_t v = vb; v < ve; ++v) {
                float *dst = po + v * f;
                int64_t *arg = parg + v * f;
                const int64_t begin = in_index.ptr[v],
                              end = in_index.ptr[v + 1];
                // An isolated node's row is 0; the others start at -inf.
                const float init =
                    begin == end ? 0.0f
                                 : -std::numeric_limits<float>::infinity();
                for (int64_t j = 0; j < f; ++j)
                    dst[j] = init;
                for (int64_t k = begin; k < end; ++k) {
                    const int64_t u =
                        in_index.neighbor[static_cast<std::size_t>(k)];
                    const float *row = px + u * f;
                    for (int64_t j = 0; j < f; ++j) {
                        if (row[j] > dst[j]) {
                            dst[j] = row[j];
                            arg[j] = u;
                        }
                    }
                }
            }
        });
    recordSpmm("gspmm_copy_u_max", in_index.numEdges(), f, n, 1.0);
    return out;
}

Tensor
spmmCopyUMaxBackward(const Tensor &grad,
                     const std::vector<int64_t> &arg_src,
                     int64_t num_src_rows)
{
    const int64_t n = grad.dim(0), f = grad.dim(1);
    gnnperf_assert(static_cast<int64_t>(arg_src.size()) == n * f,
                   "spmmCopyUMaxBackward: argmax size mismatch");
    Tensor out = Tensor::zeros({num_src_rows, f}, grad.device());
    const float *pg = grad.data();
    float *po = out.data();
    // Stays serial: the argmax scatter writes arbitrary source rows, so
    // a race-free parallel version would re-scan the whole argmax table
    // per output range — all cost, no speedup at these sizes.
    for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < f; ++j) {
            const int64_t u = arg_src[static_cast<std::size_t>(i * f + j)];
            if (u >= 0)
                po[u * f + j] += pg[i * f + j];
        }
    }
    recordKernel("gspmm_copy_u_max_bwd",
                 static_cast<double>(grad.numel()),
                 2.0 * static_cast<double>(grad.bytes()));
    return out;
}

Tensor
spmmUMulESum(const CsrIndex &in_index, const Tensor &x, const Tensor &w,
             int64_t heads)
{
    gnnperf_assert(x.rank() == 2 && w.rank() == 2,
                   "spmmUMulESum: rank mismatch");
    gnnperf_assert(w.dim(1) == heads, "spmmUMulESum: weight heads ",
                   w.dim(1), " != ", heads);
    gnnperf_assert(x.dim(1) % heads == 0,
                   "spmmUMulESum: feature width ", x.dim(1),
                   " not divisible by ", heads);
    gnnperf_assert(w.dim(0) == in_index.numEdges(),
                   "spmmUMulESum: ", w.dim(0), " weights for ",
                   in_index.numEdges(), " edges");
    const int64_t n = in_index.numNodes();
    const int64_t f = x.dim(1);
    const int64_t d = f / heads;
    Tensor out({n, f}, x.device());
    const float *px = x.data();
    const float *pw = w.data();
    float *po = out.data();
    par::parallelFor(
        "par.spmm_u_mul_e", 0, n, 32, [&](int64_t vb, int64_t ve, int) {
            std::fill(po + vb * f, po + ve * f, 0.0f);
            for (int64_t v = vb; v < ve; ++v) {
                float *dst = po + v * f;
                for (int64_t k = in_index.ptr[v]; k < in_index.ptr[v + 1];
                     ++k) {
                    const int64_t u =
                        in_index.neighbor[static_cast<std::size_t>(k)];
                    const int64_t e =
                        in_index.edgeId[static_cast<std::size_t>(k)];
                    const float *row = px + u * f;
                    const float *we = pw + e * heads;
                    for (int64_t h = 0; h < heads; ++h) {
                        const float s = we[h];
                        const int64_t base = h * d;
                        for (int64_t j = 0; j < d; ++j)
                            dst[base + j] += s * row[base + j];
                    }
                }
            }
        });
    recordSpmm("gspmm_u_mul_e_sum", in_index.numEdges(), f, n, 2.0);
    return out;
}

Tensor
sddmmDotUV(const std::vector<int64_t> &src,
           const std::vector<int64_t> &dst, const Tensor &a,
           const Tensor &b, int64_t heads)
{
    gnnperf_assert(a.rank() == 2 && b.rank() == 2 &&
                   a.dim(1) == b.dim(1), "sddmmDotUV: shape mismatch");
    gnnperf_assert(a.dim(1) % heads == 0,
                   "sddmmDotUV: width not divisible by heads");
    gnnperf_assert(src.size() == dst.size(), "sddmmDotUV: COO mismatch");
    const int64_t e = static_cast<int64_t>(src.size());
    const int64_t f = a.dim(1);
    const int64_t d = f / heads;
    static stats::Counter &calls = stats::counter("kernel.sddmm.calls");
    static stats::Counter &nnz = stats::counter("kernel.sddmm.nnz");
    calls.inc();
    nnz.inc(static_cast<uint64_t>(e));
    Tensor out({e, heads}, a.device());
    const float *pa = a.data();
    const float *pb = b.data();
    float *po = out.data();
    // Edge-parallel: each edge owns its output element.
    par::parallelFor(
        "par.sddmm_dot", 0, e, 128, [&](int64_t eb, int64_t ee, int) {
            for (int64_t i = eb; i < ee; ++i) {
                const float *ra =
                    pa + src[static_cast<std::size_t>(i)] * f;
                const float *rb =
                    pb + dst[static_cast<std::size_t>(i)] * f;
                for (int64_t h = 0; h < heads; ++h) {
                    float s = 0.0f;
                    const int64_t base = h * d;
                    for (int64_t j = 0; j < d; ++j)
                        s += ra[base + j] * rb[base + j];
                    po[i * heads + h] = s;
                }
            }
        });
    recordKernel("gsddmm_dot_uv", 2.0 * static_cast<double>(e * f),
                 2.0 * static_cast<double>(e * f) * sizeof(float) +
                     static_cast<double>(out.bytes()));
    return out;
}

} // namespace graphops
} // namespace gnnperf
