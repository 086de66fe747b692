#include "tensor/matmul.hh"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "common/buildinfo.hh"
#include "common/logging.hh"
#include "device/profiler.hh"
#include "parallel/thread_pool.hh"

// The SIMD paths use GCC's per-function target pragmas; other
// compilers and hosts run the scalar reference loops.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define GNNPERF_GEMM_X86 1
#include <immintrin.h>
#else
#define GNNPERF_GEMM_X86 0
#endif

namespace gnnperf {
namespace ops {

using detail::GemmIsa;
using detail::GemmOp;
using detail::GemmRoute;

namespace {

void
recordGemm(const char *name, int64_t n, int64_t k, int64_t m)
{
    recordKernel(name, 2.0 * static_cast<double>(n) * k * m,
                 static_cast<double>(n * k + k * m + n * m) *
                     sizeof(float));
}

// ----- scalar reference ----------------------------------------------------
//
// The historical loops, unchanged: the numerics every SIMD path must
// reproduce byte for byte, and the dispatched path on hosts without
// AVX2.

void
scalarNN(const float *pa, const float *pb, float *pc, int64_t n,
         int64_t k, int64_t m)
{
    // Output-row parallel: each C row is accumulated by one chunk in
    // the same kk order as the serial loop.
    par::parallelFor(
        "par.sgemm", 0, n, 16, [&](int64_t ib, int64_t ie, int) {
            for (int64_t i = ib; i < ie; ++i) {
                float *crow = pc + i * m;
                for (int64_t kk = 0; kk < k; ++kk) {
                    const float aik = pa[i * k + kk];
                    if (aik == 0.0f)
                        continue;
                    const float *brow = pb + kk * m;
                    for (int64_t j = 0; j < m; ++j)
                        crow[j] += aik * brow[j];
                }
            }
        });
}

void
scalarTN(const float *pa, const float *pb, float *pc, int64_t n,
         int64_t k, int64_t m)
{
    // C[kk, j] = sum_i A[i, kk] * B[i, j], i ascending; each chunk owns
    // a kk range and runs the full i loop.
    par::parallelFor(
        "par.sgemm_tn", 0, k, par::grainFor(k, 1),
        [&](int64_t kb, int64_t ke, int) {
            for (int64_t i = 0; i < n; ++i) {
                const float *arow = pa + i * k;
                const float *brow = pb + i * m;
                for (int64_t kk = kb; kk < ke; ++kk) {
                    const float aik = arow[kk];
                    if (aik == 0.0f)
                        continue;
                    float *crow = pc + kk * m;
                    for (int64_t j = 0; j < m; ++j)
                        crow[j] += aik * brow[j];
                }
            }
        });
}

void
scalarNT(const float *pa, const float *pb, float *pc, int64_t n,
         int64_t m, int64_t k)
{
    // C[i, kk] = dot(A[i, :], B[kk, :]), j ascending, no zero skip.
    par::parallelFor(
        "par.sgemm_nt", 0, n, 16, [&](int64_t ib, int64_t ie, int) {
            for (int64_t i = ib; i < ie; ++i) {
                const float *arow = pa + i * m;
                float *crow = pc + i * k;
                for (int64_t kk = 0; kk < k; ++kk) {
                    const float *brow = pb + kk * m;
                    float s = 0.0f;
                    for (int64_t j = 0; j < m; ++j)
                        s += arow[j] * brow[j];
                    crow[kk] = s;
                }
            }
        });
}

// ----- the GEMM core -------------------------------------------------------

/**
 * One product in core form: C[r, j] += Σ_p A(r, p) · B[p, j] over
 * rows × cols × depth, with A(r, p) = a[r·ars + p·aps] and B rows
 * unit-stride at pitch ldb. NN is A as stored; TN reads A transposed
 * (ars = 1, aps = K); NT reads B through a packed transpose.
 */
struct GemmArgs
{
    float *c;
    int64_t ldc;
    const float *a;
    int64_t ars, aps;
    const float *b;
    int64_t ldb;
    int64_t rows, cols, depth;
    bool skipZeros;  ///< NN, TN: exact zeros of A contribute nothing
};

#if GNNPERF_GEMM_X86

/** Output rows per dense tile. */
constexpr int kTileRows = 4;

/**
 * Depth per pass: a tile is stored and reloaded between passes, so the
 * A strip and B panel of one pass stay cache-resident across the tiles
 * of a chunk.
 */
constexpr int64_t kDepthChunk = 256;

/**
 * Density routing: a skip-zero product takes the sparse route when at
 * most this share of the sampled A entries are nonzero. Both routes
 * give the same bytes, so this is a speed threshold only.
 */
constexpr int64_t kSparseNonzeroPct = 30;

/** Rows of A sampled, evenly spaced, for the density decision. */
constexpr int64_t kDensitySampleRows = 64;

/** Pick the route for `g` from the nonzero share of sampled A rows. */
GemmRoute
routeFor(const Tensor &a, const GemmArgs &g, GemmRoute route)
{
    if (!g.skipZeros)
        return GemmRoute::Dense;
    if (route != GemmRoute::Auto)
        return route;
    const int64_t rows = a.dim(0), cols = a.dim(1);
    const int64_t samples = std::min(rows, kDensitySampleRows);
    const float *pa = a.data();
    int64_t nonzeros = 0;
    for (int64_t s = 0; s < samples; ++s) {
        const float *row = pa + s * rows / samples * cols;
        for (int64_t j = 0; j < cols; ++j)
            nonzeros += row[j] != 0.0f;
    }
    return nonzeros * 100 <= kSparseNonzeroPct * samples * cols
               ? GemmRoute::Sparse
               : GemmRoute::Dense;
}

#pragma GCC push_options
#pragma GCC target("avx512f")
namespace avx512 {

struct Simd
{
    static constexpr int64_t W = 16;
    static constexpr int kDenseV = 4;
    static constexpr int kSparseV = 16;
    using Vec = __m512;

    static __mmask16
    tail(int64_t n)
    {
        return n >= W ? __mmask16(0xFFFF)
                      : static_cast<__mmask16>((1u << n) - 1u);
    }
    static Vec load(const float *p) { return _mm512_loadu_ps(p); }
    static Vec
    load(const float *p, __mmask16 t)
    {
        return _mm512_maskz_loadu_ps(t, p);
    }
    static void store(float *p, Vec v) { _mm512_storeu_ps(p, v); }
    static void
    store(float *p, Vec v, __mmask16 t)
    {
        _mm512_mask_storeu_ps(p, t, v);
    }
    static Vec set1(float x) { return _mm512_set1_ps(x); }
    static Vec mul(Vec x, Vec y) { return _mm512_mul_ps(x, y); }
    static Vec add(Vec x, Vec y) { return _mm512_add_ps(x, y); }
    /** Lanes where x != 0; NaN counts as nonzero, as in `a == 0`. */
    static __mmask16
    nonzero(Vec x)
    {
        return _mm512_cmp_ps_mask(x, _mm512_setzero_ps(), _CMP_NEQ_UQ);
    }
    static Vec
    addWhere(__mmask16 keep, Vec acc, Vec x)
    {
        return _mm512_mask_add_ps(acc, keep, acc, x);
    }
    /** Bit i set where p[i] != 0, for i < n <= W. */
    static uint32_t
    nonzeroBits(const float *p, int64_t n)
    {
        return nonzero(load(p, tail(n)));
    }
};

#include "tensor/gemm_kernel.inc"

} // namespace avx512
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {

struct Simd
{
    static constexpr int64_t W = 8;
    static constexpr int kDenseV = 2;
    static constexpr int kSparseV = 12;
    using Vec = __m256;

    static __m256i
    tail(int64_t n)
    {
        return _mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int>(std::min<int64_t>(n, W))),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    }
    static Vec load(const float *p) { return _mm256_loadu_ps(p); }
    static Vec
    load(const float *p, __m256i t)
    {
        return _mm256_maskload_ps(p, t);
    }
    static void store(float *p, Vec v) { _mm256_storeu_ps(p, v); }
    static void
    store(float *p, Vec v, __m256i t)
    {
        _mm256_maskstore_ps(p, t, v);
    }
    static Vec set1(float x) { return _mm256_set1_ps(x); }
    static Vec mul(Vec x, Vec y) { return _mm256_mul_ps(x, y); }
    static Vec add(Vec x, Vec y) { return _mm256_add_ps(x, y); }
    /** Lanes where x != 0; NaN counts as nonzero, as in `a == 0`. */
    static Vec
    nonzero(Vec x)
    {
        return _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_NEQ_UQ);
    }
    static Vec
    addWhere(Vec keep, Vec acc, Vec x)
    {
        return _mm256_blendv_ps(acc, _mm256_add_ps(acc, x), keep);
    }
    /** Bit i set where p[i] != 0, for i < n <= W. */
    static uint32_t
    nonzeroBits(const float *p, int64_t n)
    {
        return static_cast<uint32_t>(
            _mm256_movemask_ps(nonzero(load(p, tail(n)))));
    }
};

#include "tensor/gemm_kernel.inc"

} // namespace avx2
#pragma GCC pop_options

/**
 * Run `g` on the pool through one ISA's core, chunked over output rows
 * exactly as the scalar loop of the same product is, so the pool's
 * launch and task counts do not depend on the ISA. `a` is the A tensor
 * the density routing samples.
 */
void
runCore(const char *name, const Tensor &a, const GemmArgs &g, GemmIsa isa,
        GemmRoute route, int64_t grain)
{
    const GemmRoute resolved = routeFor(a, g, route);
    par::parallelFor(name, 0, g.rows, grain,
                     [&](int64_t rb, int64_t re, int) {
                         if (isa == GemmIsa::Avx512)
                             avx512::gemmRows(g, rb, re, resolved);
                         else
                             avx2::gemmRows(g, rb, re, resolved);
                     });
}
#else
void
runCore(const char *, const Tensor &, const GemmArgs &, GemmIsa, GemmRoute,
        int64_t)
{
    gnnperf_panic("gemm: this build has no SIMD path");
}
#endif // GNNPERF_GEMM_X86

GemmIsa
detectIsa()
{
#if GNNPERF_GEMM_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return GemmIsa::Avx512;
    if (__builtin_cpu_supports("avx2"))
        return GemmIsa::Avx2;
#endif
    return GemmIsa::Scalar;
}

/** Resolved once per process; also stamps the `gemm_isa` run fact. */
GemmIsa
dispatchedIsa()
{
    static const GemmIsa isa = [] {
        const GemmIsa best = detectIsa();
        buildinfo::setRunFact("gemm_isa", detail::gemmIsaName(best));
        return best;
    }();
    return isa;
}

/**
 * Bᵀ of a [rows, cols] matrix, packed into this thread's scratch. It
 * copies 16×16 blocks: walking a whole row of B would store to `cols`
 * lines `rows` floats apart, and at a power-of-two `rows` those lines
 * share a few L1 sets (a 256-wide pack ran ~3× slower).
 */
const float *
packTransposed(const float *b, int64_t rows, int64_t cols)
{
    constexpr int64_t kBlock = 16;
    thread_local std::vector<float> scratch;
    scratch.resize(static_cast<std::size_t>(rows * cols));
    float *out = scratch.data();
    for (int64_t r0 = 0; r0 < rows; r0 += kBlock)
        for (int64_t c0 = 0; c0 < cols; c0 += kBlock) {
            const int64_t r1 = std::min(rows, r0 + kBlock);
            const int64_t c1 = std::min(cols, c0 + kBlock);
            for (int64_t r = r0; r < r1; ++r)
                for (int64_t c = c0; c < c1; ++c)
                    out[c * rows + r] = b[r * cols + c];
        }
    return out;
}

} // namespace

namespace detail {

bool
gemmIsaSupported(GemmIsa isa)
{
    switch (isa) {
      case GemmIsa::Scalar:
        return true;
      case GemmIsa::Avx2:
        return dispatchedIsa() != GemmIsa::Scalar;
      case GemmIsa::Avx512:
        return dispatchedIsa() == GemmIsa::Avx512;
    }
    return false;
}

const char *
gemmIsaName(GemmIsa isa)
{
    switch (isa) {
      case GemmIsa::Scalar:
        return "scalar";
      case GemmIsa::Avx2:
        return "avx2";
      case GemmIsa::Avx512:
        return "avx512";
    }
    return "?";
}

Tensor
gemm(GemmOp op, const Tensor &a, const Tensor &b, GemmIsa isa,
     GemmRoute route)
{
    gnnperf_assert(gemmIsaSupported(isa), "gemm: ", gemmIsaName(isa),
                   " is not supported on this host");
    const float *pa = a.data();
    const float *pb = b.data();
    switch (op) {
      case GemmOp::NN: {
          gnnperf_assert(a.rank() == 2 && b.rank() == 2 &&
                             a.dim(1) == b.dim(0),
                         "matmul: ", a.describe(), " x ", b.describe());
          const int64_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
          Tensor c = Tensor::zeros({n, m}, a.device());
          if (isa == GemmIsa::Scalar)
              scalarNN(pa, pb, c.data(), n, k, m);
          else
              runCore("par.sgemm", a,
                      {c.data(), m, pa, k, 1, pb, m, n, m, k, true},
                      isa, route, 16);
          recordGemm("sgemm", n, k, m);
          return c;
      }
      case GemmOp::TN: {
          gnnperf_assert(a.rank() == 2 && b.rank() == 2 &&
                             a.dim(0) == b.dim(0),
                         "matmulTransA: ",
                         a.describe(), "^T x ", b.describe());
          const int64_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
          Tensor c = Tensor::zeros({k, m}, a.device());
          if (isa == GemmIsa::Scalar)
              scalarTN(pa, pb, c.data(), n, k, m);
          else
              runCore("par.sgemm_tn", a,
                      {c.data(), m, pa, 1, k, pb, m, k, m, n, true},
                      isa, route, par::grainFor(k, 1));
          recordGemm("sgemm_tn", k, n, m);
          return c;
      }
      case GemmOp::NT: {
          gnnperf_assert(a.rank() == 2 && b.rank() == 2 &&
                             a.dim(1) == b.dim(1),
                         "matmulTransB: ",
                         a.describe(), " x ", b.describe(), "^T");
          const int64_t n = a.dim(0), m = a.dim(1), k = b.dim(0);
          Tensor c = Tensor::zeros({n, k}, a.device());
          if (isa == GemmIsa::Scalar) {
              scalarNT(pa, pb, c.data(), n, m, k);
          } else {
              // Vectorize across output columns kk: B is read as the
              // packed [m, k] panel Bᵀ.
              const float *bt = packTransposed(pb, k, m);
              runCore("par.sgemm_nt", a,
                      {c.data(), k, pa, m, 1, bt, k, n, k, m, false},
                      isa, route, 16);
          }
          recordGemm("sgemm_nt", n, m, k);
          return c;
      }
    }
    return Tensor();
}

} // namespace detail

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    return detail::gemm(GemmOp::NN, a, b, dispatchedIsa(), GemmRoute::Auto);
}

Tensor
matmulTransA(const Tensor &a, const Tensor &b)
{
    return detail::gemm(GemmOp::TN, a, b, dispatchedIsa(), GemmRoute::Auto);
}

Tensor
matmulTransB(const Tensor &a, const Tensor &b)
{
    return detail::gemm(GemmOp::NT, a, b, dispatchedIsa(), GemmRoute::Auto);
}

const char *
gemmIsa()
{
    return detail::gemmIsaName(dispatchedIsa());
}

} // namespace ops
} // namespace gnnperf
