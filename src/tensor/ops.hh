/**
 * @file
 * Forward tensor kernels.
 *
 * Every function really computes its result on the host CPU and emits
 * one KernelRecord (name, FLOPs, bytes moved) to the Profiler, which is
 * how the timing model learns what a GPU deployment would have
 * executed. Autograd wrappers (autograd/functions.hh) compose these.
 *
 * Elementwise kernels have one code path: a per-kind row core
 * (ewUnaryRow / ewBinaryRow) that the eager entry points, the `Into`
 * variants used by the recorded-IR executor (src/ir) and its fused
 * row launches all call, so graph mode is bit-identical to eager.
 *
 * Naming note: `xxxInto` variants write into a preallocated output;
 * they serve the recorded-IR executor, whose memory planner places
 * the output before the launch.
 */

#ifndef GNNPERF_TENSOR_OPS_HH
#define GNNPERF_TENSOR_OPS_HH

#include <cstdint>
#include <vector>

#include "tensor/tensor.hh"

namespace gnnperf {
namespace ops {

// ----- elementwise kinds ---------------------------------------------------

/**
 * Unary elementwise kinds. The float parameter `p` is the factor of
 * Scale, the addend of AddScalar, ELU's α, LeakyRelu's slope and
 * Reciprocal's ε; the other kinds ignore it.
 */
enum class EwUnary
{
    Scale,      ///< p * x
    AddScalar,  ///< x + p
    Relu,
    Sigmoid,
    Tanh,
    Elu,
    LeakyRelu,
    Exp,
    Log,
    Sqrt,
    Square,
    Reciprocal, ///< 1 / (x + p)
};

/**
 * Binary elementwise kinds, out = f(x, y). The gradient kinds take the
 * upstream gradient as x and the saved forward tensor as y: the input
 * for ReluGrad and LeakyReluGrad (slope p), the output for SigmoidGrad
 * and TanhGrad.
 */
enum class EwBinary
{
    Add,
    Sub,
    Mul,
    Div,
    Maximum,
    ReluGrad,
    SigmoidGrad,
    TanhGrad,
    LeakyReluGrad,
};

/** Registered kernel name for an elementwise kind. */
const char *ewUnaryName(EwUnary k);
const char *ewBinaryName(EwBinary k);

/** Per-element FLOP cost recorded for the kind. */
double ewUnaryFlops(EwUnary k);
double ewBinaryFlops(EwBinary k);

/**
 * The elementwise row core: out[i] = f(a[i]) (or f(a[i], b[i])) for
 * i in [0, n). Switches on the kind once, then runs that kind's loop.
 * Every elementwise launch — eager, replayed or fused — goes through
 * these two functions.
 */
void ewUnaryRow(EwUnary k, float p, const float *a, float *out,
                int64_t n);
void ewBinaryRow(EwBinary k, float p, const float *a, const float *b,
                 float *out, int64_t n);

/** out = unary(a) elementwise; out must match a's shape. */
void ewUnaryInto(Tensor &out, const Tensor &a, EwUnary k, float p);

/** out = a ∘ b elementwise; all three shapes must match. */
void ewBinaryInto(Tensor &out, const Tensor &a, const Tensor &b,
                  EwBinary k, float p = 0.0f);

/** Allocate the output, then ewUnaryInto / ewBinaryInto. */
Tensor ewUnary(const Tensor &a, EwUnary k, float p = 0.0f);
Tensor ewBinary(const Tensor &a, const Tensor &b, EwBinary k,
                float p = 0.0f);

// ----- elementwise binary ------------------------------------------------

/** c = a + b (same shape). */
Tensor add(const Tensor &a, const Tensor &b);

/** c = a - b (same shape). */
Tensor sub(const Tensor &a, const Tensor &b);

/** c = a * b elementwise (same shape). */
Tensor mul(const Tensor &a, const Tensor &b);

/** c = a / b elementwise (same shape). */
Tensor div(const Tensor &a, const Tensor &b);

/** c[i,j] = a[i,j] + b[j]  — row-broadcast add (bias). */
Tensor addRows(const Tensor &a, const Tensor &b);

/**
 * c[i,j] = a[i,j] * b[j]  — row-broadcast multiply, recorded as
 * `name` (mul_rowvec, or mul_rowvec_bwd for its input gradient).
 */
Tensor mulRows(const Tensor &a, const Tensor &b, const char *name);

/** c[i,j] = a[i,j] * b[i]  — column-broadcast multiply. */
Tensor mulCols(const Tensor &a, const Tensor &b);

/** c[i,j] = a[i,j] / b[i]  — column-broadcast divide. */
Tensor divCols(const Tensor &a, const Tensor &b);

/** a += b in place (same shape). */
void addInPlace(Tensor &a, const Tensor &b);

/** a += s * b in place (axpy). */
void addScaledInPlace(Tensor &a, const Tensor &b, float s);

// ----- elementwise unary -------------------------------------------------

/** c = s * a. */
Tensor scale(const Tensor &a, float s);

/** c = a + s. */
Tensor addScalar(const Tensor &a, float s);

Tensor relu(const Tensor &a);
Tensor sigmoid(const Tensor &a);
Tensor tanhT(const Tensor &a);
Tensor elu(const Tensor &a, float alpha = 1.0f);
Tensor leakyRelu(const Tensor &a, float slope = 0.2f);
Tensor expT(const Tensor &a);
Tensor logT(const Tensor &a);
Tensor sqrtT(const Tensor &a);
Tensor square(const Tensor &a);
Tensor reciprocal(const Tensor &a, float eps = 0.0f);

/**
 * ELU input gradient g * (x > 0 ? 1 : y + α) from the input x and the
 * output y. Three operands, so it keeps its own loop beside the
 * binary core.
 */
Tensor eluGrad(const Tensor &g, const Tensor &x, const Tensor &y,
               float alpha);

// ----- reductions ----------------------------------------------------------

/** Column sums: [N,F] → [F]. */
Tensor sumRows(const Tensor &a);

/** Column means: [N,F] → [F]. */
Tensor meanRows(const Tensor &a);

/** Column variance (biased): [N,F] → [F]. */
Tensor varRows(const Tensor &a, const Tensor &mean);

/** Per-row sums: [N,F] → [N]. */
Tensor sumCols(const Tensor &a);

/** Sum of all elements → scalar [1]. */
Tensor sumAll(const Tensor &a);

/** Mean of all elements → scalar [1]. */
Tensor meanAll(const Tensor &a);

/** Per-row argmax of a rank-2 tensor. */
std::vector<int64_t> argmaxRows(const Tensor &a);

// ----- softmax -------------------------------------------------------------

/** Row-wise softmax of a rank-2 tensor. */
Tensor softmaxRows(const Tensor &a);

/** Row-wise log-softmax of a rank-2 tensor. */
Tensor logSoftmaxRows(const Tensor &a);

// ----- shaping -------------------------------------------------------------

/** Concatenate along columns: [N,Fa] ++ [N,Fb] → [N,Fa+Fb]. */
Tensor concatCols(const Tensor &a, const Tensor &b);

/** Take columns [begin, end) of a rank-2 tensor. */
Tensor sliceCols(const Tensor &a, int64_t begin, int64_t end);

/**
 * Gradient of sliceCols: g [N, W] written into columns [begin,
 * begin + W) of a zero [N, f] tensor, recorded as slice_cols_bwd.
 */
Tensor sliceColsGrad(const Tensor &g, int64_t f, int64_t begin);

/**
 * Gradient of sumCols: the per-row g [N] broadcast across f columns,
 * recorded as row_sum_bwd.
 */
Tensor sumColsGrad(const Tensor &g, int64_t f);

/** Take rows [begin, end) of a rank-2 tensor. */
Tensor sliceRows(const Tensor &a, int64_t begin, int64_t end);

/** Transpose a rank-2 tensor. */
Tensor transpose(const Tensor &a);

/** Gather rows: out[e] = a[idx[e]]. */
Tensor gatherRows(const Tensor &a, const std::vector<int64_t> &idx);

/** Scatter-add rows: out[idx[e]] += src[e]; out has `num_rows` rows. */
Tensor scatterAddRows(const Tensor &src, const std::vector<int64_t> &idx,
                      int64_t num_rows);

// ----- preallocated-output (`Into`) variants -----------------------------
//
// Used by the recorded-IR executor (src/ir/executor.cc): the memory
// planner preallocates `out` ahead of the launch, and each variant runs
// the exact eager kernel — same parallelFor launch name, grain and
// KernelRecord — into it, so an unfused replayed node is
// indistinguishable from its eager counterpart.

/** out[e] = a[idx[e]]; out must be [idx.size(), a.dim(1)]. */
void gatherRowsInto(Tensor &out, const Tensor &a,
                    const std::vector<int64_t> &idx);

/**
 * out[idx[e]] += src[e] after zero-filling out in-kernel (each output
 * chunk clears its own rows, so no separate fill pass is needed and
 * the accumulation order matches the eager kernel exactly).
 */
void scatterAddRowsInto(Tensor &out, const Tensor &src,
                        const std::vector<int64_t> &idx);

/** L2-normalise each row (zero rows stay zero). */
Tensor l2NormalizeRows(const Tensor &a, float eps = 1e-12f);

/** Per-row L2 norms: [N,F] → [N]. */
Tensor rowNorms(const Tensor &a, float eps = 1e-12f);

// ----- misc ----------------------------------------------------------------

/** Elementwise maximum of two tensors. */
Tensor maximum(const Tensor &a, const Tensor &b);

/** Dropout forward: returns masked/scaled copy, fills `mask`. */
Tensor dropout(const Tensor &a, float p, Tensor &mask, uint64_t seed);

/** True when all finite (used by tests and loss guards). */
bool allFinite(const Tensor &a);

} // namespace ops
} // namespace gnnperf

#endif // GNNPERF_TENSOR_OPS_HH
