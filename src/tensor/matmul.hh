/**
 * @file
 * Dense matrix multiplication (the cuBLAS sgemm stand-in).
 *
 * All three products run on one GEMM core (docs/CORRECTNESS.md, "GEMM
 * core"): a register-blocked microkernel vectorized across output
 * columns, dispatched once per process to AVX-512, AVX2 or the scalar
 * reference loops. Every path keeps each output element's exact
 * accumulation chain — start from 0, add the products in ascending
 * depth order, separate multiply and add, skip exact zeros of A on
 * the NN and TN products — so the results are byte-identical on every
 * ISA and at every pool width.
 */

#ifndef GNNPERF_TENSOR_MATMUL_HH
#define GNNPERF_TENSOR_MATMUL_HH

#include "tensor/tensor.hh"

namespace gnnperf {
namespace ops {

/** C[N,M] = A[N,K] · B[K,M]. */
Tensor matmul(const Tensor &a, const Tensor &b);

/** C[K,M] = Aᵀ[K,N] · B[N,M] for A stored as [N,K]. */
Tensor matmulTransA(const Tensor &a, const Tensor &b);

/** C[N,K] = A[N,M] · Bᵀ[M,K] for B stored as [K,M]. */
Tensor matmulTransB(const Tensor &a, const Tensor &b);

/**
 * The instruction set the GEMM core dispatched to in this process:
 * "avx512", "avx2" or "scalar". Also pushed into the JSON `meta`
 * block as the `gemm_isa` run fact.
 */
const char *gemmIsa();

namespace detail {

/** Instruction sets the GEMM core has a path for. */
enum class GemmIsa
{
    Scalar,  ///< the reference loops; runs where no SIMD path does
    Avx2,
    Avx512,
};

/**
 * How a block of the skip-zero products (NN, TN) is computed. Auto is
 * the density routing; tests force one route to prove both give the
 * same bytes. NT never skips, so it ignores the route.
 */
enum class GemmRoute
{
    Auto,
    Dense,   ///< register-blocked tile, zeros masked out of the add
    Sparse,  ///< one row held in registers, exact zeros skipped
};

/** The three products: C = A·B, Aᵀ·B and A·Bᵀ. */
enum class GemmOp
{
    NN,
    TN,
    NT,
};

/** True when this build and host can run `isa`. */
bool gemmIsaSupported(GemmIsa isa);

/** "scalar", "avx2" or "avx512". */
const char *gemmIsaName(GemmIsa isa);

/**
 * Run one product on a chosen path, recording it exactly as the public
 * entry points do. Test-only: the public functions call this with the
 * dispatched ISA and GemmRoute::Auto. `isa` must be supported.
 */
Tensor gemm(GemmOp op, const Tensor &a, const Tensor &b, GemmIsa isa,
            GemmRoute route);

} // namespace detail
} // namespace ops
} // namespace gnnperf

#endif // GNNPERF_TENSOR_MATMUL_HH
