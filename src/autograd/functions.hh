/**
 * @file
 * Differentiable operations on Var.
 *
 * Each function computes its forward value with the tensor kernels in
 * tensor/ops.hh (which emit kernel trace records) and registers a
 * backward closure that computes input gradients with further real
 * kernels. The 14 recordable ops (elementwise unary and binary,
 * gatherRows, scatterAddRows) get their forward from the ir entry
 * points (ir/ir.hh), which record it in graph mode or run it now;
 * each is one Var::makeOp call. Activation gradients run on the
 * gradient kinds of the elementwise core (ops::EwBinary::ReluGrad,
 * …) on the thread pool. Graph-structure ops (message passing,
 * pooling, edge softmax) are NOT here — they are backend-specific and
 * live in src/backends/{pyg,dgl}.
 */

#ifndef GNNPERF_AUTOGRAD_FUNCTIONS_HH
#define GNNPERF_AUTOGRAD_FUNCTIONS_HH

#include <cstdint>
#include <vector>

#include "autograd/variable.hh"

namespace gnnperf {
namespace fn {

// ----- linear algebra ------------------------------------------------------

/** c = a · b. */
Var matmul(const Var &a, const Var &b);

// ----- arithmetic ----------------------------------------------------------

Var add(const Var &a, const Var &b);
Var sub(const Var &a, const Var &b);
Var mul(const Var &a, const Var &b);

/** a / b elementwise (same shape). */
Var divElem(const Var &a, const Var &b);

/** x * s where s is a trainable scalar Var of shape [1] (GIN's ε). */
Var mulScalarVar(const Var &x, const Var &s);
Var scale(const Var &a, float s);
Var addScalar(const Var &a, float s);
Var neg(const Var &a);

/** x[N,F] + b[F] broadcast over rows (bias add). */
Var addBias(const Var &x, const Var &b);

/** x[N,F] - v[F] broadcast over rows. */
Var subRowVec(const Var &x, const Var &v);

/** x[N,F] * v[F] broadcast over rows. */
Var mulRowVec(const Var &x, const Var &v);

/** x[N,F] * s[N] broadcast over columns. */
Var mulCols(const Var &x, const Var &s);

/** x[N,F] / s[N] broadcast over columns. */
Var divCols(const Var &x, const Var &s);

// ----- activations -----------------------------------------------------------

Var relu(const Var &a);
Var sigmoid(const Var &a);
Var tanhV(const Var &a);
Var elu(const Var &a, float alpha = 1.0f);
Var leakyRelu(const Var &a, float slope = 0.2f);
Var expV(const Var &a);
Var logV(const Var &a);
Var square(const Var &a);

// ----- shaping ----------------------------------------------------------------

Var concatCols(const Var &a, const Var &b);
Var sliceCols(const Var &a, int64_t begin, int64_t end);
Var reshape(const Var &a, std::vector<int64_t> shape);

/** out[e] = x[idx[e]] (row gather; backward is scatter-add). */
Var gatherRows(const Var &x, const std::vector<int64_t> &idx);

/** out[idx[e]] += x[e] (row scatter-add; backward is gather). */
Var scatterAddRows(const Var &x, const std::vector<int64_t> &idx,
                   int64_t num_rows);

// ----- reductions / normalisation ------------------------------------------

/** Per-row sums: [N,F] → [N]. */
Var sumCols(const Var &a);

/** Sum / mean of all elements → scalar Var. */
Var sumAll(const Var &a);
Var meanAll(const Var &a);

/** Row-wise log-softmax. */
Var logSoftmax(const Var &a);

/** Row-wise L2 normalisation (GraphSAGE's projection to the unit ball). */
Var l2NormalizeRows(const Var &a, float eps = 1e-6f);

// ----- regularisation ---------------------------------------------------------

/**
 * Inverted dropout. Active only when `training`; a fresh mask is drawn
 * from `seed` each call.
 */
Var dropout(const Var &a, float p, bool training, uint64_t seed);

} // namespace fn
} // namespace gnnperf

#endif // GNNPERF_AUTOGRAD_FUNCTIONS_HH
