#include "autograd/functions.hh"

#include "common/logging.hh"
#include "device/profiler.hh"
#include "ir/ir.hh"
#include "tensor/matmul.hh"
#include "tensor/ops.hh"

namespace gnnperf {
namespace fn {

using autograd::Node;
using ops::EwBinary;
using ops::EwUnary;

namespace {

using BackwardFn = std::function<void(Node &)>;

/**
 * Operand reference for the ir entry points. Reads the tape node
 * directly — going through value() would force a flush and defeat
 * the recording.
 */
ir::ValRef
refOf(const Var &v)
{
    gnnperf_assert(v.defined(), "op on undefined Var");
    const auto &node = v.node();
    return ir::ValRef{node->irSlot, &node->value};
}

Var
unaryVar(EwUnary k, float p, const Var &a, BackwardFn bwd)
{
    return Var::makeOp(ops::ewUnaryName(k), ir::unary(k, p, refOf(a)),
                       {a}, std::move(bwd));
}

Var
binaryVar(EwBinary k, const Var &a, const Var &b, BackwardFn bwd)
{
    return Var::makeOp(ops::ewBinaryName(k),
                       ir::binary(k, refOf(a), refOf(b)), {a, b},
                       std::move(bwd));
}

/**
 * Backward of an activation whose derivative is a gradient kind of
 * the binary core: dx = kind(dy, saved), where `saved` is the
 * activation's input or output tensor.
 */
BackwardFn
activationGrad(EwBinary k, float p, bool saved_is_output)
{
    return [k, p, saved_is_output](Node &n) {
        if (!n.inputs[0]->requiresGrad)
            return;
        const Tensor &saved =
            saved_is_output ? n.value : n.inputs[0]->value;
        n.inputs[0]->accumulateGrad(ops::ewBinary(n.grad, saved, k, p));
    };
}

} // namespace

Var
matmul(const Var &a, const Var &b)
{
    Tensor out = ops::matmul(a.value(), b.value());
    Tensor av = a.value(), bv = b.value();
    return Var::makeOp("matmul", std::move(out), {a, b},
        [av, bv](Node &n) {
            // dA = dC · Bᵀ ; dB = Aᵀ · dC
            if (n.inputs[0]->requiresGrad)
                n.inputs[0]->accumulateGrad(
                    ops::matmulTransB(n.grad, bv));
            if (n.inputs[1]->requiresGrad)
                n.inputs[1]->accumulateGrad(
                    ops::matmulTransA(av, n.grad));
        });
}

Var
add(const Var &a, const Var &b)
{
    return binaryVar(EwBinary::Add, a, b, [](Node &n) {
        if (n.inputs[0]->requiresGrad)
            n.inputs[0]->accumulateGrad(n.grad);
        if (n.inputs[1]->requiresGrad)
            n.inputs[1]->accumulateGrad(n.grad);
    });
}

Var
sub(const Var &a, const Var &b)
{
    return binaryVar(EwBinary::Sub, a, b, [](Node &n) {
        if (n.inputs[0]->requiresGrad)
            n.inputs[0]->accumulateGrad(n.grad);
        if (n.inputs[1]->requiresGrad)
            n.inputs[1]->accumulateGrad(ops::scale(n.grad, -1.0f));
    });
}

Var
mul(const Var &a, const Var &b)
{
    return binaryVar(EwBinary::Mul, a, b, [](Node &n) {
        if (n.inputs[0]->requiresGrad)
            n.inputs[0]->accumulateGrad(
                ops::mul(n.grad, n.inputs[1]->value));
        if (n.inputs[1]->requiresGrad)
            n.inputs[1]->accumulateGrad(
                ops::mul(n.grad, n.inputs[0]->value));
    });
}

Var
divElem(const Var &a, const Var &b)
{
    return binaryVar(EwBinary::Div, a, b, [](Node &n) {
        Tensor inv = ops::reciprocal(n.inputs[1]->value);
        if (n.inputs[0]->requiresGrad)
            n.inputs[0]->accumulateGrad(ops::mul(n.grad, inv));
        if (n.inputs[1]->requiresGrad) {
            // db = -g * a / b^2
            Tensor inv2 = ops::mul(inv, inv);
            n.inputs[1]->accumulateGrad(ops::scale(
                ops::mul(ops::mul(n.grad, n.inputs[0]->value), inv2),
                -1.0f));
        }
    });
}

Var
mulScalarVar(const Var &x, const Var &s)
{
    gnnperf_assert(s.numel() == 1, "mulScalarVar: non-scalar factor");
    Tensor xv = x.value();
    const float sv = s.item();
    return Var::makeOp("mul_scalar_var", ops::scale(xv, sv), {x, s},
        [xv, sv](Node &n) {
            if (n.inputs[0]->requiresGrad)
                n.inputs[0]->accumulateGrad(ops::scale(n.grad, sv));
            if (n.inputs[1]->requiresGrad) {
                n.inputs[1]->accumulateGrad(
                    ops::sumAll(ops::mul(n.grad, xv)));
            }
        });
}

Var
scale(const Var &a, float s)
{
    return unaryVar(EwUnary::Scale, s, a, [s](Node &n) {
        if (n.inputs[0]->requiresGrad)
            n.inputs[0]->accumulateGrad(ops::scale(n.grad, s));
    });
}

Var
addScalar(const Var &a, float s)
{
    return unaryVar(EwUnary::AddScalar, s, a, [](Node &n) {
        if (n.inputs[0]->requiresGrad)
            n.inputs[0]->accumulateGrad(n.grad);
    });
}

Var
neg(const Var &a)
{
    return scale(a, -1.0f);
}

Var
addBias(const Var &x, const Var &b)
{
    return Var::makeOp("add_bias", ops::addRows(x.value(), b.value()),
        {x, b},
        [](Node &n) {
            if (n.inputs[0]->requiresGrad)
                n.inputs[0]->accumulateGrad(n.grad);
            if (n.inputs[1]->requiresGrad)
                n.inputs[1]->accumulateGrad(ops::sumRows(n.grad));
        });
}

Var
subRowVec(const Var &x, const Var &v)
{
    Tensor neg_v = ops::scale(v.value(), -1.0f);
    return Var::makeOp("sub_rowvec",
        ops::addRows(x.value(), neg_v), {x, v},
        [](Node &n) {
            if (n.inputs[0]->requiresGrad)
                n.inputs[0]->accumulateGrad(n.grad);
            if (n.inputs[1]->requiresGrad)
                n.inputs[1]->accumulateGrad(
                    ops::scale(ops::sumRows(n.grad), -1.0f));
        });
}

Var
mulRowVec(const Var &x, const Var &v)
{
    Tensor xc = x.value(), vc = v.value();
    return Var::makeOp("mul_rowvec", ops::mulRows(xc, vc, "mul_rowvec"),
        {x, v},
        [xc, vc](Node &n) {
            // dX = dO * v (row broadcast)
            if (n.inputs[0]->requiresGrad)
                n.inputs[0]->accumulateGrad(
                    ops::mulRows(n.grad, vc, "mul_rowvec_bwd"));
            // dv = colsum(dO * x)
            if (n.inputs[1]->requiresGrad)
                n.inputs[1]->accumulateGrad(
                    ops::sumRows(ops::mul(n.grad, xc)));
        });
}

Var
mulCols(const Var &x, const Var &s)
{
    Tensor xc = x.value(), sc = s.value();
    return Var::makeOp("mul_cols", ops::mulCols(xc, sc), {x, s},
        [xc, sc](Node &n) {
            if (n.inputs[0]->requiresGrad)
                n.inputs[0]->accumulateGrad(ops::mulCols(n.grad, sc));
            if (n.inputs[1]->requiresGrad)
                n.inputs[1]->accumulateGrad(
                    ops::sumCols(ops::mul(n.grad, xc)));
        });
}

Var
divCols(const Var &x, const Var &s)
{
    Tensor inv = ops::reciprocal(s.value());
    Tensor xc = x.value(), sc = s.value(), invc = inv;
    return Var::makeOp("div_cols", ops::mulCols(x.value(), inv), {x, s},
        [xc, invc](Node &n) {
            if (n.inputs[0]->requiresGrad)
                n.inputs[0]->accumulateGrad(ops::mulCols(n.grad, invc));
            if (n.inputs[1]->requiresGrad) {
                // ds_i = -sum_j g_ij x_ij / s_i^2
                Tensor num = ops::sumCols(ops::mul(n.grad, xc));
                Tensor inv2 = ops::mul(invc, invc);
                Tensor g = ops::scale(ops::mul(num, inv2), -1.0f);
                n.inputs[1]->accumulateGrad(g);
            }
        });
}

Var
relu(const Var &a)
{
    return unaryVar(EwUnary::Relu, 0.0f, a,
                   activationGrad(EwBinary::ReluGrad, 0.0f, false));
}

Var
sigmoid(const Var &a)
{
    return unaryVar(EwUnary::Sigmoid, 0.0f, a,
                   activationGrad(EwBinary::SigmoidGrad, 0.0f, true));
}

Var
tanhV(const Var &a)
{
    return unaryVar(EwUnary::Tanh, 0.0f, a,
                   activationGrad(EwBinary::TanhGrad, 0.0f, true));
}

Var
elu(const Var &a, float alpha)
{
    return unaryVar(EwUnary::Elu, alpha, a, [alpha](Node &n) {
        if (n.inputs[0]->requiresGrad)
            n.inputs[0]->accumulateGrad(ops::eluGrad(
                n.grad, n.inputs[0]->value, n.value, alpha));
    });
}

Var
leakyRelu(const Var &a, float slope)
{
    return unaryVar(EwUnary::LeakyRelu, slope, a,
                   activationGrad(EwBinary::LeakyReluGrad, slope, false));
}

Var
expV(const Var &a)
{
    return unaryVar(EwUnary::Exp, 0.0f, a, [](Node &n) {
        if (n.inputs[0]->requiresGrad)
            n.inputs[0]->accumulateGrad(ops::mul(n.grad, n.value));
    });
}

Var
logV(const Var &a)
{
    Tensor av = a.value();
    return Var::makeOp("log", ops::logT(av), {a},
        [av](Node &n) {
            if (n.inputs[0]->requiresGrad)
                n.inputs[0]->accumulateGrad(
                    ops::mul(n.grad, ops::reciprocal(av)));
        });
}

Var
square(const Var &a)
{
    Tensor av = a.value();
    return Var::makeOp("square", ops::square(av), {a},
        [av](Node &n) {
            if (n.inputs[0]->requiresGrad)
                n.inputs[0]->accumulateGrad(
                    ops::scale(ops::mul(n.grad, av), 2.0f));
        });
}

Var
concatCols(const Var &a, const Var &b)
{
    const int64_t fa = a.dim(1);
    const int64_t fb = b.dim(1);
    return Var::makeOp("concat",
        ops::concatCols(a.value(), b.value()), {a, b},
        [fa, fb](Node &n) {
            if (n.inputs[0]->requiresGrad)
                n.inputs[0]->accumulateGrad(
                    ops::sliceCols(n.grad, 0, fa));
            if (n.inputs[1]->requiresGrad)
                n.inputs[1]->accumulateGrad(
                    ops::sliceCols(n.grad, fa, fa + fb));
        });
}

Var
sliceCols(const Var &a, int64_t begin, int64_t end)
{
    const int64_t f = a.dim(1);
    return Var::makeOp("slice_cols",
        ops::sliceCols(a.value(), begin, end), {a},
        [begin, f](Node &n) {
            if (n.inputs[0]->requiresGrad)
                n.inputs[0]->accumulateGrad(
                    ops::sliceColsGrad(n.grad, f, begin));
        });
}

Var
reshape(const Var &a, std::vector<int64_t> shape)
{
    std::vector<int64_t> orig = a.value().shape();
    return Var::makeOp("reshape", a.value().reshape(std::move(shape)),
        {a},
        [orig](Node &n) {
            if (n.inputs[0]->requiresGrad)
                n.inputs[0]->accumulateGrad(n.grad.reshape(orig));
        });
}

Var
gatherRows(const Var &x, const std::vector<int64_t> &idx)
{
    const int64_t num_rows = x.dim(0);
    // One copy of the index vector, shared by the op and the closure.
    ir::Index shared = ir::sharedIndex(idx);
    return Var::makeOp("gather_rows", ir::gather(refOf(x), shared), {x},
        [shared, num_rows](Node &n) {
            if (n.inputs[0]->requiresGrad)
                n.inputs[0]->accumulateGrad(
                    ops::scatterAddRows(n.grad, *shared, num_rows));
        });
}

Var
scatterAddRows(const Var &x, const std::vector<int64_t> &idx,
               int64_t num_rows)
{
    ir::Index shared = ir::sharedIndex(idx);
    return Var::makeOp("scatter_add_rows",
        ir::scatterAdd(refOf(x), shared, num_rows), {x},
        [shared](Node &n) {
            if (n.inputs[0]->requiresGrad)
                n.inputs[0]->accumulateGrad(
                    ops::gatherRows(n.grad, *shared));
        });
}

Var
sumCols(const Var &a)
{
    const int64_t f = a.dim(1);
    return Var::makeOp("row_sum", ops::sumCols(a.value()), {a},
        [f](Node &n) {
            if (n.inputs[0]->requiresGrad)
                n.inputs[0]->accumulateGrad(ops::sumColsGrad(n.grad, f));
        });
}

Var
sumAll(const Var &a)
{
    std::vector<int64_t> shape = a.value().shape();
    return Var::makeOp("sum_all", ops::sumAll(a.value()), {a},
        [shape](Node &n) {
            if (!n.inputs[0]->requiresGrad)
                return;
            n.inputs[0]->accumulateGrad(
                Tensor::full(shape, n.grad.at(0), n.grad.device()));
        });
}

Var
meanAll(const Var &a)
{
    std::vector<int64_t> shape = a.value().shape();
    const float inv = a.numel() > 0
        ? 1.0f / static_cast<float>(a.numel()) : 0.0f;
    return Var::makeOp("mean_all", ops::meanAll(a.value()), {a},
        [shape, inv](Node &n) {
            if (!n.inputs[0]->requiresGrad)
                return;
            n.inputs[0]->accumulateGrad(
                Tensor::full(shape, n.grad.at(0) * inv,
                             n.grad.device()));
        });
}

Var
logSoftmax(const Var &a)
{
    Tensor out = ops::logSoftmaxRows(a.value());
    Tensor oc = out;
    return Var::makeOp("log_softmax", std::move(out), {a},
        [oc](Node &n) {
            if (!n.inputs[0]->requiresGrad)
                return;
            // dX = dY - softmax(x) * rowsum(dY)
            Tensor soft = ops::expT(oc);
            Tensor row = ops::sumCols(n.grad);
            Tensor g = ops::sub(n.grad, ops::mulCols(soft, row));
            n.inputs[0]->accumulateGrad(g);
        });
}

Var
l2NormalizeRows(const Var &a, float eps)
{
    Tensor av = a.value();
    Tensor norms = ops::rowNorms(av, eps);
    Tensor out = ops::divCols(av, norms);
    Tensor oc = out, nc = norms;
    return Var::makeOp("l2_normalize", std::move(out), {a},
        [oc, nc](Node &n) {
            if (!n.inputs[0]->requiresGrad)
                return;
            // dX = (dY - y * rowsum(dY ∘ y)) / norm
            Tensor dots = ops::sumCols(ops::mul(n.grad, oc));
            Tensor g = ops::sub(n.grad, ops::mulCols(oc, dots));
            n.inputs[0]->accumulateGrad(ops::divCols(g, nc));
        });
}

Var
dropout(const Var &a, float p, bool training, uint64_t seed)
{
    if (!training || p <= 0.0f)
        return a;
    Tensor mask;
    Tensor out = ops::dropout(a.value(), p, mask, seed);
    Tensor mc = mask;
    return Var::makeOp("dropout", std::move(out), {a},
        [mc](Node &n) {
            if (n.inputs[0]->requiresGrad)
                n.inputs[0]->accumulateGrad(ops::mul(n.grad, mc));
        });
}

} // namespace fn
} // namespace gnnperf
