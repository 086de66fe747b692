#include "tensor/ops.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>

#include "common/logging.hh"
#include "common/random.hh"
#include "device/profiler.hh"
#include "obs/stats.hh"
#include "parallel/thread_pool.hh"

namespace gnnperf {
namespace ops {

namespace {

/** Elementwise grain: chunks below this are cheaper run inline. */
constexpr int64_t kElemGrain = 16384;

/** Emit a kernel record for an elementwise op over n elements. */
void
recordElementwise(const char *name, int64_t n, double flops_per_elem,
                  double tensors_touched)
{
    recordKernel(name, flops_per_elem * static_cast<double>(n),
                 tensors_touched * static_cast<double>(n) *
                     sizeof(float));
}

/** Rows per chunk targeting ~kElemGrain elements for f-wide rows. */
int64_t
rowGrain(int64_t f)
{
    return std::max<int64_t>(1, kElemGrain / std::max<int64_t>(f, 1));
}

void
checkSameShape(const Tensor &a, const Tensor &b, const char *op)
{
    gnnperf_assert(a.sameShape(b), op, ": shape mismatch ",
                   a.describe(), " vs ", b.describe());
}

/** out[i] = f(a[i]) for i in [0, n). */
template <typename F>
inline void
rowLoop(const float *a, float *out, int64_t n, F f)
{
    for (int64_t i = 0; i < n; ++i)
        out[i] = f(a[i]);
}

/** out[i] = f(a[i], b[i]) for i in [0, n). */
template <typename F>
inline void
rowLoop(const float *a, const float *b, float *out, int64_t n, F f)
{
    for (int64_t i = 0; i < n; ++i)
        out[i] = f(a[i], b[i]);
}

/**
 * c ? t : f as a bit select, so GCC vectorizes it: with a plain `?:`
 * it sinks the multiply feeding `f` into a branch and, since the
 * multiply may trap, keeps the loop scalar.
 */
inline float
select(bool c, float t, float f)
{
    const uint32_t mask = 0u - static_cast<uint32_t>(c);
    return std::bit_cast<float>((std::bit_cast<uint32_t>(t) & mask) |
                                (std::bit_cast<uint32_t>(f) & ~mask));
}

/** Registered name and per-element FLOPs of a kind. */
struct KindInfo
{
    const char *name;
    double flops;
};

/** Indexed by EwUnary, in declaration order. */
constexpr KindInfo kUnaryInfo[] = {
    {"scale", 1.0}, {"add_scalar", 1.0}, {"relu", 1.0},
    {"sigmoid", 4.0}, {"tanh", 4.0}, {"elu", 3.0},
    {"leaky_relu", 1.0}, {"exp", 4.0}, {"log", 4.0},
    {"sqrt", 2.0}, {"square", 1.0}, {"reciprocal", 2.0},
};

/** Indexed by EwBinary, in declaration order. */
constexpr KindInfo kBinaryInfo[] = {
    {"add", 1.0}, {"sub", 1.0}, {"mul", 1.0}, {"div", 1.0},
    {"maximum", 1.0}, {"relu_bwd", 1.0}, {"sigmoid_bwd", 3.0},
    {"tanh_bwd", 3.0}, {"leaky_relu_bwd", 1.0},
};

static_assert(std::size(kUnaryInfo) ==
              static_cast<std::size_t>(EwUnary::Reciprocal) + 1);
static_assert(std::size(kBinaryInfo) ==
              static_cast<std::size_t>(EwBinary::LeakyReluGrad) + 1);

} // namespace

Tensor
add(const Tensor &a, const Tensor &b)
{
    return ewBinary(a, b, EwBinary::Add);
}

Tensor
sub(const Tensor &a, const Tensor &b)
{
    return ewBinary(a, b, EwBinary::Sub);
}

Tensor
mul(const Tensor &a, const Tensor &b)
{
    return ewBinary(a, b, EwBinary::Mul);
}

Tensor
div(const Tensor &a, const Tensor &b)
{
    return ewBinary(a, b, EwBinary::Div);
}

Tensor
addRows(const Tensor &a, const Tensor &b)
{
    gnnperf_assert(a.rank() == 2 && b.rank() == 1 &&
                   a.dim(1) == b.dim(0),
                   "addRows: ", a.describe(), " + ", b.describe());
    Tensor out(a.shape(), a.device());
    const int64_t n = a.dim(0), f = a.dim(1);
    const float *pa = a.data();
    const float *pb = b.data();
    float *po = out.data();
    par::parallelFor("par.add_bias", 0, n, rowGrain(f),
                     [&](int64_t ib, int64_t ie, int) {
                         for (int64_t i = ib; i < ie; ++i)
                             for (int64_t j = 0; j < f; ++j)
                                 po[i * f + j] = pa[i * f + j] + pb[j];
                     });
    recordElementwise("add_bias", n * f, 1.0, 2.0);
    return out;
}

Tensor
mulRows(const Tensor &a, const Tensor &b, const char *name)
{
    gnnperf_assert(a.rank() == 2 && b.rank() == 1 &&
                   a.dim(1) == b.dim(0),
                   name, ": ", a.describe(), " * ", b.describe());
    Tensor out(a.shape(), a.device());
    const int64_t n = a.dim(0), f = a.dim(1);
    const float *pa = a.data();
    const float *pb = b.data();
    float *po = out.data();
    par::parallelFor("par.mul_rows", 0, n, rowGrain(f),
                     [&](int64_t ib, int64_t ie, int) {
                         for (int64_t i = ib; i < ie; ++i)
                             for (int64_t j = 0; j < f; ++j)
                                 po[i * f + j] = pa[i * f + j] * pb[j];
                     });
    recordElementwise(name, n * f, 1.0, 2.0);
    return out;
}

Tensor
mulCols(const Tensor &a, const Tensor &b)
{
    gnnperf_assert(a.rank() == 2 && b.rank() == 1 &&
                   a.dim(0) == b.dim(0),
                   "mulCols: ", a.describe(), " * ", b.describe());
    Tensor out(a.shape(), a.device());
    const int64_t n = a.dim(0), f = a.dim(1);
    const float *pa = a.data();
    const float *pb = b.data();
    float *po = out.data();
    par::parallelFor("par.mul_cols", 0, n, rowGrain(f),
                     [&](int64_t ib, int64_t ie, int) {
                         for (int64_t i = ib; i < ie; ++i) {
                             const float s = pb[i];
                             for (int64_t j = 0; j < f; ++j)
                                 po[i * f + j] = pa[i * f + j] * s;
                         }
                     });
    recordElementwise("mul_cols", n * f, 1.0, 2.0);
    return out;
}

Tensor
divCols(const Tensor &a, const Tensor &b)
{
    gnnperf_assert(a.rank() == 2 && b.rank() == 1 &&
                   a.dim(0) == b.dim(0),
                   "divCols: ", a.describe(), " / ", b.describe());
    Tensor out(a.shape(), a.device());
    const int64_t n = a.dim(0), f = a.dim(1);
    const float *pa = a.data();
    const float *pb = b.data();
    float *po = out.data();
    par::parallelFor("par.div_cols", 0, n, rowGrain(f),
                     [&](int64_t ib, int64_t ie, int) {
                         for (int64_t i = ib; i < ie; ++i) {
                             const float s = 1.0f / pb[i];
                             for (int64_t j = 0; j < f; ++j)
                                 po[i * f + j] = pa[i * f + j] * s;
                         }
                     });
    recordElementwise("div_cols", n * f, 1.0, 2.0);
    return out;
}

void
addInPlace(Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "add_");
    float *pa = a.data();
    const float *pb = b.data();
    const int64_t n = a.numel();
    par::parallelFor("par.add_inplace", 0, n, kElemGrain,
                     [&](int64_t b2, int64_t e2, int) {
                         for (int64_t i = b2; i < e2; ++i)
                             pa[i] += pb[i];
                     });
    recordElementwise("add_", n, 1.0, 3.0);
}

void
addScaledInPlace(Tensor &a, const Tensor &b, float s)
{
    checkSameShape(a, b, "axpy_");
    float *pa = a.data();
    const float *pb = b.data();
    const int64_t n = a.numel();
    par::parallelFor("par.axpy", 0, n, kElemGrain,
                     [&](int64_t b2, int64_t e2, int) {
                         for (int64_t i = b2; i < e2; ++i)
                             pa[i] += s * pb[i];
                     });
    recordElementwise("axpy_", n, 2.0, 3.0);
}

Tensor
scale(const Tensor &a, float s)
{
    return ewUnary(a, EwUnary::Scale, s);
}

Tensor
addScalar(const Tensor &a, float s)
{
    return ewUnary(a, EwUnary::AddScalar, s);
}

Tensor
relu(const Tensor &a)
{
    return ewUnary(a, EwUnary::Relu);
}

Tensor
sigmoid(const Tensor &a)
{
    return ewUnary(a, EwUnary::Sigmoid);
}

Tensor
tanhT(const Tensor &a)
{
    return ewUnary(a, EwUnary::Tanh);
}

Tensor
elu(const Tensor &a, float alpha)
{
    return ewUnary(a, EwUnary::Elu, alpha);
}

Tensor
leakyRelu(const Tensor &a, float slope)
{
    return ewUnary(a, EwUnary::LeakyRelu, slope);
}

Tensor
expT(const Tensor &a)
{
    return ewUnary(a, EwUnary::Exp);
}

Tensor
logT(const Tensor &a)
{
    return ewUnary(a, EwUnary::Log);
}

Tensor
sqrtT(const Tensor &a)
{
    return ewUnary(a, EwUnary::Sqrt);
}

Tensor
square(const Tensor &a)
{
    return ewUnary(a, EwUnary::Square);
}

Tensor
reciprocal(const Tensor &a, float eps)
{
    return ewUnary(a, EwUnary::Reciprocal, eps);
}

Tensor
eluGrad(const Tensor &g, const Tensor &x, const Tensor &y, float alpha)
{
    checkSameShape(g, x, "elu_bwd");
    checkSameShape(g, y, "elu_bwd");
    Tensor out(g.shape(), g.device());
    const float *pg = g.data();
    const float *px = x.data();
    const float *py = y.data();
    float *po = out.data();
    par::parallelFor("par.elu_bwd", 0, g.numel(), kElemGrain,
                     [&](int64_t b, int64_t e, int) {
                         for (int64_t i = b; i < e; ++i) {
                             const float d =
                                 px[i] > 0.0f ? 1.0f : py[i] + alpha;
                             po[i] = pg[i] * d;
                         }
                     });
    recordElementwise("elu_bwd", g.numel(), 2.0, 3.0);
    return out;
}

Tensor
sumRows(const Tensor &a)
{
    gnnperf_assert(a.rank() == 2, "sumRows on rank ", a.rank());
    const int64_t n = a.dim(0), f = a.dim(1);
    Tensor out = Tensor::zeros({f}, a.device());
    const float *pa = a.data();
    float *po = out.data();
    // Column partition: each chunk owns a column range and accumulates
    // it over all rows in unchanged i order — byte-identical to the
    // serial scan. One chunk per thread (every chunk reads all rows).
    par::parallelFor(
        "par.col_sum", 0, f, par::grainFor(f, 1),
        [&](int64_t jb, int64_t je, int) {
            for (int64_t i = 0; i < n; ++i)
                for (int64_t j = jb; j < je; ++j)
                    po[j] += pa[i * f + j];
        });
    recordKernel("col_sum", static_cast<double>(n * f),
                 static_cast<double>((n * f + f) * sizeof(float)));
    return out;
}

Tensor
meanRows(const Tensor &a)
{
    Tensor s = sumRows(a);
    const float inv = a.dim(0) > 0 ? 1.0f / a.dim(0) : 0.0f;
    float *p = s.data();
    for (int64_t j = 0; j < s.numel(); ++j)
        p[j] *= inv;
    return s;
}

Tensor
varRows(const Tensor &a, const Tensor &mean)
{
    gnnperf_assert(a.rank() == 2 && mean.rank() == 1 &&
                   a.dim(1) == mean.dim(0), "varRows: shape mismatch");
    const int64_t n = a.dim(0), f = a.dim(1);
    Tensor out = Tensor::zeros({f}, a.device());
    const float *pa = a.data();
    const float *pm = mean.data();
    float *po = out.data();
    const float inv = n > 0 ? 1.0f / n : 0.0f;
    // Column partition, like sumRows; the final scale is per-column so
    // it can live inside the chunk without reordering any accumulation.
    par::parallelFor(
        "par.col_var", 0, f, par::grainFor(f, 1),
        [&](int64_t jb, int64_t je, int) {
            for (int64_t i = 0; i < n; ++i) {
                for (int64_t j = jb; j < je; ++j) {
                    float d = pa[i * f + j] - pm[j];
                    po[j] += d * d;
                }
            }
            for (int64_t j = jb; j < je; ++j)
                po[j] *= inv;
        });
    recordKernel("col_var", 3.0 * static_cast<double>(n * f),
                 static_cast<double>((n * f + 2 * f) * sizeof(float)));
    return out;
}

Tensor
sumCols(const Tensor &a)
{
    gnnperf_assert(a.rank() == 2, "sumCols on rank ", a.rank());
    const int64_t n = a.dim(0), f = a.dim(1);
    Tensor out = Tensor::zeros({n}, a.device());
    const float *pa = a.data();
    float *po = out.data();
    par::parallelFor("par.row_sum", 0, n, rowGrain(f),
                     [&](int64_t ib, int64_t ie, int) {
                         for (int64_t i = ib; i < ie; ++i) {
                             float s = 0.0f;
                             for (int64_t j = 0; j < f; ++j)
                                 s += pa[i * f + j];
                             po[i] = s;
                         }
                     });
    recordKernel("row_sum", static_cast<double>(n * f),
                 static_cast<double>((n * f + n) * sizeof(float)));
    return out;
}

Tensor
sumAll(const Tensor &a)
{
    const float *pa = a.data();
    double s = 0.0;
    for (int64_t i = 0; i < a.numel(); ++i)
        s += pa[i];
    recordKernel("sum_all", static_cast<double>(a.numel()),
                 static_cast<double>(a.bytes()));
    return Tensor::scalar(static_cast<float>(s), a.device());
}

Tensor
meanAll(const Tensor &a)
{
    Tensor s = sumAll(a);
    if (a.numel() > 0)
        s.set(0, s.at(0) / static_cast<float>(a.numel()));
    return s;
}

std::vector<int64_t>
argmaxRows(const Tensor &a)
{
    gnnperf_assert(a.rank() == 2, "argmaxRows on rank ", a.rank());
    const int64_t n = a.dim(0), f = a.dim(1);
    std::vector<int64_t> out(static_cast<std::size_t>(n));
    const float *pa = a.data();
    int64_t *po = out.data();
    par::parallelFor(
        "par.argmax", 0, n, rowGrain(f),
        [&](int64_t ib, int64_t ie, int) {
            for (int64_t i = ib; i < ie; ++i) {
                int64_t best = 0;
                float bestv = pa[i * f];
                for (int64_t j = 1; j < f; ++j) {
                    if (pa[i * f + j] > bestv) {
                        bestv = pa[i * f + j];
                        best = j;
                    }
                }
                po[i] = best;
            }
        });
    recordKernel("argmax", static_cast<double>(n * f),
                 static_cast<double>(a.bytes()));
    return out;
}

Tensor
softmaxRows(const Tensor &a)
{
    gnnperf_assert(a.rank() == 2, "softmaxRows on rank ", a.rank());
    const int64_t n = a.dim(0), f = a.dim(1);
    Tensor out(a.shape(), a.device());
    const float *pa = a.data();
    float *po = out.data();
    par::parallelFor(
        "par.softmax", 0, n, rowGrain(f),
        [&](int64_t ib, int64_t ie, int) {
            for (int64_t i = ib; i < ie; ++i) {
                float mx = pa[i * f];
                for (int64_t j = 1; j < f; ++j)
                    mx = std::max(mx, pa[i * f + j]);
                float denom = 0.0f;
                for (int64_t j = 0; j < f; ++j) {
                    float e = std::exp(pa[i * f + j] - mx);
                    po[i * f + j] = e;
                    denom += e;
                }
                const float inv = 1.0f / denom;
                for (int64_t j = 0; j < f; ++j)
                    po[i * f + j] *= inv;
            }
        });
    recordKernel("softmax", 5.0 * static_cast<double>(n * f),
                 2.0 * static_cast<double>(a.bytes()));
    return out;
}

Tensor
logSoftmaxRows(const Tensor &a)
{
    gnnperf_assert(a.rank() == 2, "logSoftmaxRows on rank ", a.rank());
    const int64_t n = a.dim(0), f = a.dim(1);
    Tensor out(a.shape(), a.device());
    const float *pa = a.data();
    float *po = out.data();
    par::parallelFor(
        "par.log_softmax", 0, n, rowGrain(f),
        [&](int64_t ib, int64_t ie, int) {
            for (int64_t i = ib; i < ie; ++i) {
                float mx = pa[i * f];
                for (int64_t j = 1; j < f; ++j)
                    mx = std::max(mx, pa[i * f + j]);
                float denom = 0.0f;
                for (int64_t j = 0; j < f; ++j)
                    denom += std::exp(pa[i * f + j] - mx);
                const float lse = std::log(denom) + mx;
                for (int64_t j = 0; j < f; ++j)
                    po[i * f + j] = pa[i * f + j] - lse;
            }
        });
    recordKernel("log_softmax", 5.0 * static_cast<double>(n * f),
                 2.0 * static_cast<double>(a.bytes()));
    return out;
}

Tensor
concatCols(const Tensor &a, const Tensor &b)
{
    gnnperf_assert(a.rank() == 2 && b.rank() == 2 &&
                   a.dim(0) == b.dim(0),
                   "concatCols: ", a.describe(), " ++ ", b.describe());
    const int64_t n = a.dim(0), fa = a.dim(1), fb = b.dim(1);
    Tensor out({n, fa + fb}, a.device());
    const float *pa = a.data();
    const float *pb = b.data();
    float *po = out.data();
    for (int64_t i = 0; i < n; ++i) {
        std::memcpy(po + i * (fa + fb), pa + i * fa,
                    static_cast<std::size_t>(fa) * sizeof(float));
        std::memcpy(po + i * (fa + fb) + fa, pb + i * fb,
                    static_cast<std::size_t>(fb) * sizeof(float));
    }
    recordKernel("concat", 0.0,
                 2.0 * static_cast<double>(out.bytes()));
    return out;
}

Tensor
sliceCols(const Tensor &a, int64_t begin, int64_t end)
{
    gnnperf_assert(a.rank() == 2 && begin >= 0 && end <= a.dim(1) &&
                   begin <= end, "sliceCols: bad range [", begin, ",",
                   end, ") of ", a.describe());
    const int64_t n = a.dim(0), f = a.dim(1), w = end - begin;
    Tensor out({n, w}, a.device());
    const float *pa = a.data();
    float *po = out.data();
    for (int64_t i = 0; i < n; ++i)
        std::memcpy(po + i * w, pa + i * f + begin,
                    static_cast<std::size_t>(w) * sizeof(float));
    recordKernel("slice_cols", 0.0,
                 2.0 * static_cast<double>(out.bytes()));
    return out;
}

Tensor
sliceColsGrad(const Tensor &g, int64_t f, int64_t begin)
{
    gnnperf_assert(g.rank() == 2 && begin >= 0 && begin + g.dim(1) <= f,
                   "slice_cols_bwd: ", g.describe(), " into ", f,
                   " columns at ", begin);
    const int64_t n = g.dim(0), w = g.dim(1);
    Tensor full = Tensor::zeros({n, f}, g.device());
    const float *pg = g.data();
    float *pf = full.data();
    par::parallelFor("par.slice_cols_bwd", 0, n, rowGrain(f),
                     [&](int64_t ib, int64_t ie, int) {
                         for (int64_t i = ib; i < ie; ++i)
                             for (int64_t j = 0; j < w; ++j)
                                 pf[i * f + begin + j] = pg[i * w + j];
                     });
    recordKernel("slice_cols_bwd", 0.0,
                 2.0 * static_cast<double>(g.bytes()));
    return full;
}

Tensor
sumColsGrad(const Tensor &g, int64_t f)
{
    gnnperf_assert(g.rank() == 1, "row_sum_bwd: ", g.describe());
    const int64_t n = g.dim(0);
    Tensor out({n, f}, g.device());
    const float *pg = g.data();
    float *po = out.data();
    par::parallelFor("par.row_sum_bwd", 0, n, rowGrain(f),
                     [&](int64_t ib, int64_t ie, int) {
                         for (int64_t i = ib; i < ie; ++i)
                             for (int64_t j = 0; j < f; ++j)
                                 po[i * f + j] = pg[i];
                     });
    recordKernel("row_sum_bwd", 0.0,
                 2.0 * static_cast<double>(out.bytes()));
    return out;
}

Tensor
sliceRows(const Tensor &a, int64_t begin, int64_t end)
{
    gnnperf_assert(a.rank() == 2 && begin >= 0 && end <= a.dim(0) &&
                   begin <= end, "sliceRows: bad range");
    const int64_t f = a.dim(1), h = end - begin;
    Tensor out({h, f}, a.device());
    std::memcpy(out.data(), a.data() + begin * f,
                static_cast<std::size_t>(h * f) * sizeof(float));
    recordKernel("slice_rows", 0.0,
                 2.0 * static_cast<double>(out.bytes()));
    return out;
}

Tensor
transpose(const Tensor &a)
{
    gnnperf_assert(a.rank() == 2, "transpose on rank ", a.rank());
    const int64_t n = a.dim(0), f = a.dim(1);
    Tensor out({f, n}, a.device());
    const float *pa = a.data();
    float *po = out.data();
    for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < f; ++j)
            po[j * n + i] = pa[i * f + j];
    recordKernel("transpose", 0.0,
                 2.0 * static_cast<double>(a.bytes()));
    return out;
}

Tensor
gatherRows(const Tensor &a, const std::vector<int64_t> &idx)
{
    gnnperf_assert(a.rank() == 2, "gatherRows on rank ", a.rank());
    Tensor out({static_cast<int64_t>(idx.size()), a.dim(1)},
               a.device());
    gatherRowsInto(out, a, idx);
    return out;
}

Tensor
scatterAddRows(const Tensor &src, const std::vector<int64_t> &idx,
               int64_t num_rows)
{
    gnnperf_assert(src.rank() == 2, "scatterAddRows on rank ",
                   src.rank());
    Tensor out({num_rows, src.dim(1)}, src.device());
    scatterAddRowsInto(out, src, idx);
    return out;
}

const char *
ewUnaryName(EwUnary k)
{
    return kUnaryInfo[static_cast<std::size_t>(k)].name;
}

const char *
ewBinaryName(EwBinary k)
{
    return kBinaryInfo[static_cast<std::size_t>(k)].name;
}

double
ewUnaryFlops(EwUnary k)
{
    return kUnaryInfo[static_cast<std::size_t>(k)].flops;
}

double
ewBinaryFlops(EwBinary k)
{
    return kBinaryInfo[static_cast<std::size_t>(k)].flops;
}

void
ewUnaryRow(EwUnary k, float p, const float *a, float *out, int64_t n)
{
    switch (k) {
      case EwUnary::Scale:
        return rowLoop(a, out, n, [p](float x) { return p * x; });
      case EwUnary::AddScalar:
        return rowLoop(a, out, n, [p](float x) { return x + p; });
      case EwUnary::Relu:
        return rowLoop(a, out, n,
                       [](float x) { return x > 0.0f ? x : 0.0f; });
      case EwUnary::Sigmoid:
        return rowLoop(a, out, n, [](float x) {
            return 1.0f / (1.0f + std::exp(-x));
        });
      case EwUnary::Tanh:
        return rowLoop(a, out, n, [](float x) { return std::tanh(x); });
      case EwUnary::Elu:
        return rowLoop(a, out, n, [p](float x) {
            return x > 0.0f ? x : p * (std::exp(x) - 1.0f);
        });
      case EwUnary::LeakyRelu:
        return rowLoop(a, out, n, [p](float x) {
            return select(x > 0.0f, x, p * x);
        });
      case EwUnary::Exp:
        return rowLoop(a, out, n, [](float x) { return std::exp(x); });
      case EwUnary::Log:
        return rowLoop(a, out, n, [](float x) { return std::log(x); });
      case EwUnary::Sqrt:
        return rowLoop(a, out, n, [](float x) { return std::sqrt(x); });
      case EwUnary::Square:
        return rowLoop(a, out, n, [](float x) { return x * x; });
      case EwUnary::Reciprocal:
        return rowLoop(a, out, n,
                       [p](float x) { return 1.0f / (x + p); });
    }
}

void
ewBinaryRow(EwBinary k, float p, const float *a, const float *b,
            float *out, int64_t n)
{
    switch (k) {
      case EwBinary::Add:
        return rowLoop(a, b, out, n,
                       [](float x, float y) { return x + y; });
      case EwBinary::Sub:
        return rowLoop(a, b, out, n,
                       [](float x, float y) { return x - y; });
      case EwBinary::Mul:
        return rowLoop(a, b, out, n,
                       [](float x, float y) { return x * y; });
      case EwBinary::Div:
        return rowLoop(a, b, out, n,
                       [](float x, float y) { return x / y; });
      case EwBinary::Maximum:
        return rowLoop(a, b, out, n,
                       [](float x, float y) { return x > y ? x : y; });
      case EwBinary::ReluGrad:
        return rowLoop(a, b, out, n, [](float g, float x) {
            return x > 0.0f ? g : 0.0f;
        });
      case EwBinary::SigmoidGrad:
        return rowLoop(a, b, out, n, [](float g, float y) {
            return g * y * (1.0f - y);
        });
      case EwBinary::TanhGrad:
        return rowLoop(a, b, out, n, [](float g, float y) {
            return g * (1.0f - y * y);
        });
      case EwBinary::LeakyReluGrad:
        return rowLoop(a, b, out, n, [p](float g, float x) {
            return select(x > 0.0f, g, p * g);
        });
    }
}

void
ewUnaryInto(Tensor &out, const Tensor &a, EwUnary k, float p)
{
    checkSameShape(out, a, ewUnaryName(k));
    const float *pa = a.data();
    float *po = out.data();
    const int64_t n = a.numel();
    par::parallelFor("par.unary_op", 0, n, kElemGrain,
                     [&](int64_t b, int64_t e, int) {
                         ewUnaryRow(k, p, pa + b, po + b, e - b);
                     });
    recordElementwise(ewUnaryName(k), n, ewUnaryFlops(k), 2.0);
}

void
ewBinaryInto(Tensor &out, const Tensor &a, const Tensor &b, EwBinary k,
             float p)
{
    checkSameShape(a, b, ewBinaryName(k));
    checkSameShape(out, a, ewBinaryName(k));
    const float *pa = a.data();
    const float *pb = b.data();
    float *po = out.data();
    const int64_t n = a.numel();
    par::parallelFor("par.binary_op", 0, n, kElemGrain,
                     [&](int64_t b2, int64_t e2, int) {
                         ewBinaryRow(k, p, pa + b2, pb + b2, po + b2,
                                     e2 - b2);
                     });
    recordElementwise(ewBinaryName(k), n, ewBinaryFlops(k), 3.0);
}

Tensor
ewUnary(const Tensor &a, EwUnary k, float p)
{
    Tensor out(a.shape(), a.device());
    ewUnaryInto(out, a, k, p);
    return out;
}

Tensor
ewBinary(const Tensor &a, const Tensor &b, EwBinary k, float p)
{
    Tensor out(a.shape(), a.device());
    ewBinaryInto(out, a, b, k, p);
    return out;
}

void
gatherRowsInto(Tensor &out, const Tensor &a,
               const std::vector<int64_t> &idx)
{
    gnnperf_assert(a.rank() == 2, "gatherRows on rank ", a.rank());
    const int64_t f = a.dim(1);
    const int64_t e = static_cast<int64_t>(idx.size());
    gnnperf_assert(out.rank() == 2 && out.dim(0) == e &&
                   out.dim(1) == f,
                   "gatherRowsInto: bad output ", out.describe());
    const float *pa = a.data();
    float *po = out.data();
    // Validate up front so workers never panic off the main thread.
    for (int64_t i = 0; i < e; ++i) {
        const int64_t r = idx[static_cast<std::size_t>(i)];
        gnnperf_assert(r >= 0 && r < a.dim(0), "gatherRows: index ", r,
                       " out of ", a.dim(0));
    }
    par::parallelFor(
        "par.gather_rows", 0, e, rowGrain(f),
        [&](int64_t ib, int64_t ie, int) {
            for (int64_t i = ib; i < ie; ++i)
                std::memcpy(po + i * f,
                            pa + idx[static_cast<std::size_t>(i)] * f,
                            static_cast<std::size_t>(f) * sizeof(float));
        });
    recordKernel("gather_rows", 0.0,
                 2.0 * static_cast<double>(out.bytes()));
}

void
scatterAddRowsInto(Tensor &out, const Tensor &src,
                   const std::vector<int64_t> &idx)
{
    gnnperf_assert(src.rank() == 2, "scatterAddRows on rank ",
                   src.rank());
    gnnperf_assert(static_cast<int64_t>(idx.size()) == src.dim(0),
                   "scatterAddRows: ", idx.size(), " indices for ",
                   src.dim(0), " rows");
    const int64_t f = src.dim(1);
    const int64_t num_rows = out.dim(0);
    gnnperf_assert(out.rank() == 2 && out.dim(1) == f,
                   "scatterAddRowsInto: bad output ", out.describe());
    static stats::Counter &calls = stats::counter("kernel.scatter.calls");
    static stats::Distribution &rows =
        stats::distribution("kernel.scatter.rows");
    calls.inc();
    rows.sample(static_cast<double>(num_rows));
    const float *ps = src.data();
    float *po = out.data();
    const int64_t ne = static_cast<int64_t>(idx.size());
    for (std::size_t e = 0; e < idx.size(); ++e)
        gnnperf_assert(idx[e] >= 0 && idx[e] < num_rows,
                       "scatterAddRows: index ", idx[e], " out of ",
                       num_rows);
    // Output-range partition (see scatterMaxRows): each chunk zeroes
    // its own output rows, then scans the full index vector in edge
    // order but only accumulates rows in its range, so per-row float
    // addition order matches the serial scan.
    par::parallelFor(
        "par.scatter_add", 0, num_rows, par::grainFor(num_rows, 1),
        [&](int64_t rb, int64_t re, int) {
            std::memset(po + rb * f, 0,
                        static_cast<std::size_t>((re - rb) * f) *
                            sizeof(float));
            for (int64_t e = 0; e < ne; ++e) {
                const int64_t r = idx[static_cast<std::size_t>(e)];
                if (r < rb || r >= re)
                    continue;
                const float *row = ps + e * f;
                float *dst = po + r * f;
                for (int64_t j = 0; j < f; ++j)
                    dst[j] += row[j];
            }
        });
    recordKernel("scatter_add", static_cast<double>(src.numel()),
                 2.0 * static_cast<double>(src.bytes()) +
                     static_cast<double>(out.bytes()));
}

Tensor
rowNorms(const Tensor &a, float eps)
{
    gnnperf_assert(a.rank() == 2, "rowNorms on rank ", a.rank());
    const int64_t n = a.dim(0), f = a.dim(1);
    Tensor out({n}, a.device());
    const float *pa = a.data();
    float *po = out.data();
    par::parallelFor(
        "par.row_norm", 0, n, rowGrain(f),
        [&](int64_t ib, int64_t ie, int) {
            for (int64_t i = ib; i < ie; ++i) {
                float s = 0.0f;
                for (int64_t j = 0; j < f; ++j)
                    s += pa[i * f + j] * pa[i * f + j];
                po[i] = std::sqrt(s + eps);
            }
        });
    recordKernel("row_norm", 2.0 * static_cast<double>(n * f),
                 static_cast<double>(a.bytes()));
    return out;
}

Tensor
l2NormalizeRows(const Tensor &a, float eps)
{
    Tensor norms = rowNorms(a, eps);
    return divCols(a, norms);
}

Tensor
maximum(const Tensor &a, const Tensor &b)
{
    return ewBinary(a, b, EwBinary::Maximum);
}

Tensor
dropout(const Tensor &a, float p, Tensor &mask, uint64_t seed)
{
    gnnperf_assert(p >= 0.0f && p < 1.0f, "dropout: bad p=", p);
    mask = Tensor(a.shape(), a.device());
    Tensor out(a.shape(), a.device());
    Rng rng(seed);
    const float scale = 1.0f / (1.0f - p);
    const float *pa = a.data();
    float *pm = mask.data();
    float *po = out.data();
    const int64_t n = a.numel();
    // The RNG stream is sequential, so the mask is generated serially
    // (identical draws at every thread count); only the elementwise
    // apply runs on the pool.
    for (int64_t i = 0; i < n; ++i)
        pm[i] = rng.uniform() >= p ? scale : 0.0f;
    par::parallelFor("par.dropout_apply", 0, n, kElemGrain,
                     [&](int64_t b, int64_t e, int) {
                         for (int64_t i = b; i < e; ++i)
                             po[i] = pa[i] * pm[i];
                     });
    recordElementwise("dropout", n, 2.0, 3.0);
    return out;
}

bool
allFinite(const Tensor &a)
{
    const float *pa = a.data();
    for (int64_t i = 0; i < a.numel(); ++i)
        if (!std::isfinite(pa[i]))
            return false;
    return true;
}

} // namespace ops
} // namespace gnnperf
