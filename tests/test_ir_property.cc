/**
 * @file
 * Elementwise single-path properties.
 *
 *  - Kind parity: for every EwUnary and EwBinary kind (including the
 *    activation-gradient kinds), the eager entry point, the `Into`
 *    kernel and a one-member fused row launch give byte-equal outputs
 *    at 1 and 4 threads, on inputs with NaN, ±0, ±inf and denormals;
 *    each kind's name is registered and its Profiler record matches
 *    the kernel's documented FLOP and byte counts.
 *  - Random op DAGs: graphs of 10–40 recordable `fn::` ops (plus
 *    matmul and concatCols as graph breaks) built from fixed seeds
 *    give byte-equal forward values and leaf gradients eager vs graph
 *    mode at 1 and 4 threads.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "autograd/functions.hh"
#include "common/random.hh"
#include "device/kernel_registry.hh"
#include "device/profiler.hh"
#include "ir/executor.hh"
#include "ir/ir.hh"
#include "ir/op_graph.hh"
#include "parallel/thread_pool.hh"
#include "tensor/ops.hh"

using namespace gnnperf;
using ops::EwBinary;
using ops::EwUnary;

namespace {

constexpr int64_t kSizes[] = {1, 16383, 16384, 3 * 16384 + 5};
constexpr int kThreads[] = {1, 4};

const EwUnary kUnaryKinds[] = {
    EwUnary::Scale, EwUnary::AddScalar, EwUnary::Relu, EwUnary::Sigmoid,
    EwUnary::Tanh,  EwUnary::Elu,       EwUnary::LeakyRelu,
    EwUnary::Exp,   EwUnary::Log,       EwUnary::Sqrt,
    EwUnary::Square, EwUnary::Reciprocal,
};

const EwBinary kBinaryKinds[] = {
    EwBinary::Add,      EwBinary::Sub,         EwBinary::Mul,
    EwBinary::Div,      EwBinary::Maximum,     EwBinary::ReluGrad,
    EwBinary::SigmoidGrad, EwBinary::TanhGrad, EwBinary::LeakyReluGrad,
};

bool
sameBytes(const Tensor &a, const Tensor &b)
{
    return a.sameShape(b) &&
           std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

/**
 * n values cycling through the IEEE special cases (quiet NaN, ±0,
 * ±inf, ± denormals) and ordinary values of both signs; `shift`
 * staggers the cycle so two operands meet in every combination.
 */
Tensor
specialTensor(int64_t n, int shift)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float specials[] = {
        std::numeric_limits<float>::quiet_NaN(),
        0.0f, -0.0f, inf, -inf,
        std::numeric_limits<float>::denorm_min(),
        -3.0e-39f,
        std::numeric_limits<float>::min(),
    };
    const int64_t ns = static_cast<int64_t>(std::size(specials));
    Tensor t({n}, DeviceKind::Cuda);
    for (int64_t i = 0; i < n; ++i) {
        const int64_t c = (i + shift) % (ns + 9);
        t.set(i, c < ns ? specials[c]
                        : 0.37f * static_cast<float>(c - ns - 4) +
                              1e-3f * static_cast<float>(i % 101));
    }
    return t;
}

/** Unary parameter used for each kind (ignored by most). */
float
unaryParam(EwUnary k)
{
    switch (k) {
      case EwUnary::Scale:
        return -1.5f;
      case EwUnary::AddScalar:
        return 0.25f;
      case EwUnary::Elu:
        return 0.7f;
      case EwUnary::LeakyRelu:
        return 0.2f;
      case EwUnary::Reciprocal:
        return 1e-3f;
      default:
        return 0.0f;
    }
}

/** The eager tensor entry point for a unary kind. */
Tensor
eagerUnary(EwUnary k, const Tensor &a, float p)
{
    switch (k) {
      case EwUnary::Scale:
        return ops::scale(a, p);
      case EwUnary::AddScalar:
        return ops::addScalar(a, p);
      case EwUnary::Relu:
        return ops::relu(a);
      case EwUnary::Sigmoid:
        return ops::sigmoid(a);
      case EwUnary::Tanh:
        return ops::tanhT(a);
      case EwUnary::Elu:
        return ops::elu(a, p);
      case EwUnary::LeakyRelu:
        return ops::leakyRelu(a, p);
      case EwUnary::Exp:
        return ops::expT(a);
      case EwUnary::Log:
        return ops::logT(a);
      case EwUnary::Sqrt:
        return ops::sqrtT(a);
      case EwUnary::Square:
        return ops::square(a);
      case EwUnary::Reciprocal:
        return ops::reciprocal(a, p);
    }
    return Tensor();
}

/** The forward activation whose backward is gradient kind `k`. */
Var
activationFor(EwBinary k, const Var &x, float p)
{
    switch (k) {
      case EwBinary::ReluGrad:
        return fn::relu(x);
      case EwBinary::SigmoidGrad:
        return fn::sigmoid(x);
      case EwBinary::TanhGrad:
        return fn::tanhV(x);
      default:
        return fn::leakyRelu(x, p);
    }
}

bool
isGradKind(EwBinary k)
{
    return k == EwBinary::ReluGrad || k == EwBinary::SigmoidGrad ||
           k == EwBinary::TanhGrad || k == EwBinary::LeakyReluGrad;
}

/**
 * The eager path for a binary kind: the named tensor entry point, or
 * for a gradient kind the activation's own backward closure (seeded
 * with `a` as the upstream gradient, `b` as the activation input).
 */
Tensor
eagerBinary(EwBinary k, const Tensor &a, const Tensor &b, float p)
{
    switch (k) {
      case EwBinary::Add:
        return ops::add(a, b);
      case EwBinary::Sub:
        return ops::sub(a, b);
      case EwBinary::Mul:
        return ops::mul(a, b);
      case EwBinary::Div:
        return ops::div(a, b);
      case EwBinary::Maximum:
        return ops::maximum(a, b);
      default:
        break;
    }
    Var x(b, /*requires_grad=*/true);
    Var y = activationFor(k, x, p);
    y.backward(a);
    return x.grad();
}

/** The second operand the gradient kind reads: input or output. */
Tensor
savedOperand(EwBinary k, const Tensor &x)
{
    switch (k) {
      case EwBinary::SigmoidGrad:
        return ops::sigmoid(x);
      case EwBinary::TanhGrad:
        return ops::tanhT(x);
      default:
        return x;
    }
}

/** Run one recorded node as a one-member fused row launch. */
Tensor
fusedRow(ir::OpNode node, const Tensor &a, const Tensor *b,
         std::vector<int64_t> shape)
{
    ir::OpGraph g;
    auto external = [&](const Tensor &t) {
        ir::Value v;
        v.shape = shape;
        v.tensor = t.reshape(shape);
        g.values.push_back(std::move(v));
        return static_cast<int32_t>(g.values.size() - 1);
    };
    node.a = external(a);
    if (b)
        node.b = external(*b);
    ir::Value out;
    out.shape = shape;
    out.producer = 0;
    out.tensor = Tensor(shape, DeviceKind::Cuda);
    node.out = static_cast<int32_t>(g.values.size());
    g.values.push_back(std::move(out));
    g.nodes.push_back(node);
    ir::FusionGroup grp;
    grp.nodeIds = {0};
    grp.rows = shape[0];
    ir::executeFused(g, grp);
    return g.values.back().tensor.reshape(a.shape());
}

/** Fused row layouts checked: width 1, and width 64 when it fits. */
std::vector<std::vector<int64_t>>
fusedLayouts(int64_t n)
{
    std::vector<std::vector<int64_t>> out = {{n}};
    if (n % 64 == 0)
        out.push_back({n / 64, 64});
    return out;
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

struct Expected
{
    const char *name;
    double flopsPerElem;
    double tensorsTouched;  ///< bytes = this × n × sizeof(float)
};

/** The records each kernel emitted before it moved onto the core. */
Expected
expectedUnary(EwUnary k)
{
    switch (k) {
      case EwUnary::Scale:
        return {"scale", 1.0, 2.0};
      case EwUnary::AddScalar:
        return {"add_scalar", 1.0, 2.0};
      case EwUnary::Relu:
        return {"relu", 1.0, 2.0};
      case EwUnary::Sigmoid:
        return {"sigmoid", 4.0, 2.0};
      case EwUnary::Tanh:
        return {"tanh", 4.0, 2.0};
      case EwUnary::Elu:
        return {"elu", 3.0, 2.0};
      case EwUnary::LeakyRelu:
        return {"leaky_relu", 1.0, 2.0};
      case EwUnary::Exp:
        return {"exp", 4.0, 2.0};
      case EwUnary::Log:
        return {"log", 4.0, 2.0};
      case EwUnary::Sqrt:
        return {"sqrt", 2.0, 2.0};
      case EwUnary::Square:
        return {"square", 1.0, 2.0};
      case EwUnary::Reciprocal:
        return {"reciprocal", 2.0, 2.0};
    }
    return {"?", 0.0, 0.0};
}

Expected
expectedBinary(EwBinary k)
{
    switch (k) {
      case EwBinary::Add:
        return {"add", 1.0, 3.0};
      case EwBinary::Sub:
        return {"sub", 1.0, 3.0};
      case EwBinary::Mul:
        return {"mul", 1.0, 3.0};
      case EwBinary::Div:
        return {"div", 1.0, 3.0};
      case EwBinary::Maximum:
        return {"maximum", 1.0, 3.0};
      case EwBinary::ReluGrad:
        return {"relu_bwd", 1.0, 3.0};
      case EwBinary::SigmoidGrad:
        return {"sigmoid_bwd", 3.0, 3.0};
      case EwBinary::TanhGrad:
        return {"tanh_bwd", 3.0, 3.0};
      case EwBinary::LeakyReluGrad:
        return {"leaky_relu_bwd", 1.0, 3.0};
    }
    return {"?", 0.0, 0.0};
}

void
expectRecord(const KernelRecord &r, const Expected &e, int64_t n)
{
    EXPECT_STREQ(r.name, e.name);
    EXPECT_EQ(r.flops, e.flopsPerElem * static_cast<double>(n));
    EXPECT_EQ(r.bytes, e.tensorsTouched * static_cast<double>(n) *
                           static_cast<double>(sizeof(float)));
}

} // namespace

TEST(KindParity, UnaryEagerIntoAndFusedRowAgree)
{
    for (EwUnary k : kUnaryKinds) {
        const float p = unaryParam(k);
        const std::string name = ops::ewUnaryName(k);
        EXPECT_TRUE(kernelRegistered(name.c_str())) << name;
        for (int64_t n : kSizes) {
            const Tensor a = specialTensor(n, 0);
            for (int threads : kThreads) {
                par::ThreadScope width(threads);
                SCOPED_TRACE(name + " n=" + std::to_string(n) +
                             " threads=" + std::to_string(threads));
                const Tensor eager = eagerUnary(k, a, p);
                Tensor into(a.shape(), a.device());
                ops::ewUnaryInto(into, a, k, p);
                EXPECT_TRUE(sameBytes(eager, into));
                ir::OpNode node;
                node.kind = ir::OpKind::Unary;
                node.ukind = k;
                node.param = p;
                for (const auto &shape : fusedLayouts(n))
                    EXPECT_TRUE(
                        sameBytes(eager, fusedRow(node, a, nullptr, shape)))
                        << "fused row width " << shape.back();
            }
            const Expected e = expectedUnary(k);
            expectRecord(recordOf([&] { eagerUnary(k, a, p); }), e, n);
            Tensor into(a.shape(), a.device());
            expectRecord(
                recordOf([&] { ops::ewUnaryInto(into, a, k, p); }), e, n);
        }
    }
}

TEST(KindParity, BinaryEagerIntoAndFusedRowAgree)
{
    for (EwBinary k : kBinaryKinds) {
        const float p = k == EwBinary::LeakyReluGrad ? 0.2f : 0.0f;
        const std::string name = ops::ewBinaryName(k);
        EXPECT_TRUE(kernelRegistered(name.c_str())) << name;
        for (int64_t n : kSizes) {
            const Tensor a = specialTensor(n, 0);
            const Tensor x = specialTensor(n, 5);
            // Gradient kinds read the activation's input or output.
            const Tensor b = isGradKind(k) ? savedOperand(k, x) : x;
            for (int threads : kThreads) {
                par::ThreadScope width(threads);
                SCOPED_TRACE(name + " n=" + std::to_string(n) +
                             " threads=" + std::to_string(threads));
                const Tensor eager = eagerBinary(k, a, x, p);
                Tensor into(a.shape(), a.device());
                ops::ewBinaryInto(into, a, b, k, p);
                EXPECT_TRUE(sameBytes(eager, into));
                ir::OpNode node;
                node.kind = ir::OpKind::Binary;
                node.bkind = k;
                node.param = p;
                for (const auto &shape : fusedLayouts(n))
                    EXPECT_TRUE(
                        sameBytes(eager, fusedRow(node, a, &b, shape)))
                        << "fused row width " << shape.back();
            }
            const Expected e = expectedBinary(k);
            Tensor into(a.shape(), a.device());
            expectRecord(
                recordOf([&] { ops::ewBinaryInto(into, a, b, k, p); }), e,
                n);
            if (!isGradKind(k))
                expectRecord(recordOf([&] { eagerBinary(k, a, x, p); }),
                             e, n);
        }
    }
}

TEST(KindParity, GradientLoopsKeepTheirRecords)
{
    const int64_t rows = 300, cols = 7, n = rows * cols;
    const Tensor g = specialTensor(n, 0).reshape({rows, cols});
    const Tensor x = specialTensor(n, 3).reshape({rows, cols});
    const Tensor y = ops::elu(x, 0.7f);
    expectRecord(recordOf([&] { ops::eluGrad(g, x, y, 0.7f); }),
                 {"elu_bwd", 2.0, 3.0}, n);
    const Tensor v = specialTensor(cols, 2);
    expectRecord(recordOf([&] { ops::mulRows(x, v, "mul_rowvec"); }),
                 {"mul_rowvec", 1.0, 2.0}, n);
    expectRecord(recordOf([&] { ops::mulRows(g, v, "mul_rowvec_bwd"); }),
                 {"mul_rowvec_bwd", 1.0, 2.0}, n);
    EXPECT_TRUE(kernelRegistered("elu_bwd"));
    EXPECT_TRUE(kernelRegistered("mul_rowvec_bwd"));

    // The pooled loops match their serial selves at every width.
    Tensor serial_elu, serial_rows;
    for (int threads : kThreads) {
        par::ThreadScope width(threads);
        const Tensor elu = ops::eluGrad(g, x, y, 0.7f);
        const Tensor rowvec = ops::mulRows(x, v, "mul_rowvec");
        if (threads == 1) {
            serial_elu = elu;
            serial_rows = rowvec;
        }
        EXPECT_TRUE(sameBytes(serial_elu, elu));
        EXPECT_TRUE(sameBytes(serial_rows, rowvec));
    }
}

// ----- random op DAGs -------------------------------------------------------

namespace {

/** RAII mode switch: always restores eager. */
class ModeScope
{
  public:
    explicit ModeScope(ir::IrMode m) { ir::setMode(m); }
    ~ModeScope() { ir::setMode(ir::IrMode::Eager); }
};

/** Forward values and leaf gradients of one DAG run. */
struct DagRun
{
    std::vector<Tensor> values;
    std::vector<Tensor> grads;
    uint64_t recorded = 0;
};

Tensor
randomTensor(Rng &rng, std::vector<int64_t> shape, float scale)
{
    Tensor t(std::move(shape), DeviceKind::Cuda);
    for (int64_t i = 0; i < t.numel(); ++i)
        t.set(i, scale * static_cast<float>(rng.uniform(-1.0, 1.0)));
    return t;
}

/**
 * Build and run the DAG for `seed`: leaves of [rows, 8] that require
 * gradients, then 10–40 ops drawn from the 14 recordable fn:: ops
 * plus matmul and concatCols (graph breaks). Operands that could
 * overflow (exp, mul, div's denominator) are squashed first, so the
 * values stay finite and the gradients informative.
 */
DagRun
runDag(uint64_t seed, ir::IrMode mode, int threads)
{
    ModeScope m(mode);
    par::ThreadScope width(threads);
    Rng rng(seed);
    constexpr int64_t kWidth = 8;
    const int64_t row_choices[] = {13, 2047, 2048, 2049, 4099};
    const int64_t rows = row_choices[seed % 5];
    const int num_ops = static_cast<int>(rng.uniformInt(10, 40));

    std::vector<Var> leaves;
    for (int i = 0; i < 3; ++i)
        leaves.emplace_back(randomTensor(rng, {rows, kWidth}, 1.0f), true);
    Var w(randomTensor(rng, {kWidth, kWidth}, 0.3f), true);
    Var w2(randomTensor(rng, {2 * kWidth, kWidth}, 0.2f), true);
    leaves.push_back(w);
    leaves.push_back(w2);
    std::vector<std::vector<int64_t>> index(2);
    for (auto &idx : index)
        for (int64_t e = 0; e < rows; ++e)
            idx.push_back(rng.uniformInt(0, rows - 1));

    const uint64_t before = ir::counters().recordedOps;
    DagRun run;
    {
        ir::IterationScope iteration;
        std::vector<Var> pool(leaves.begin(), leaves.begin() + 3);
        std::vector<bool> used(pool.size(), false);
        auto pick = [&]() -> Var {
            // Prefer recent values so chains form.
            const std::size_t n = pool.size();
            std::size_t i = rng.bernoulli(0.7) && n > 3
                ? n - 1 - rng.uniformInt(uint64_t{3})
                : rng.uniformInt(uint64_t{n});
            used[i] = true;
            return pool[i];
        };
        auto squash = [](const Var &v) { return fn::tanhV(v); };
        int ops_done = 0;
        while (ops_done < num_ops) {
            Var out;
            int cost = 1;
            switch (rng.uniformInt(uint64_t{16})) {
              case 0:
                out = fn::add(pick(), pick());
                break;
              case 1:
                out = fn::sub(pick(), pick());
                break;
              case 2:
                out = fn::mul(squash(pick()), squash(pick()));
                cost = 3;
                break;
              case 3:
                out = fn::divElem(
                    pick(), fn::addScalar(fn::sigmoid(pick()), 0.5f));
                cost = 3;
                break;
              case 4:
                out = fn::scale(pick(), static_cast<float>(
                                            rng.uniform(-1.5, 1.5)));
                break;
              case 5:
                out = fn::addScalar(pick(), 0.125f);
                break;
              case 6:
                out = fn::relu(pick());
                break;
              case 7:
                out = fn::sigmoid(pick());
                break;
              case 8:
                out = fn::tanhV(pick());
                break;
              case 9:
                out = fn::elu(pick(), rng.bernoulli(0.5) ? 1.0f : 0.5f);
                break;
              case 10:
                out = fn::leakyRelu(pick(),
                                    rng.bernoulli(0.5) ? 0.2f : 0.01f);
                break;
              case 11:
                out = fn::expV(squash(pick()));
                cost = 2;
                break;
              case 12:
                out = fn::gatherRows(pick(), index[rng.uniformInt(
                                                 uint64_t{2})]);
                break;
              case 13:
                out = fn::scatterAddRows(
                    pick(), index[rng.uniformInt(uint64_t{2})], rows);
                break;
              case 14:
                out = fn::matmul(pick(), w);
                break;
              default:
                out = fn::matmul(fn::concatCols(pick(), pick()), w2);
                cost = 2;
                break;
            }
            pool.push_back(out);
            used.push_back(false);
            ops_done += cost;
        }
        // Every value nobody consumed feeds the loss, so gradients
        // reach every branch of the DAG.
        Var loss;
        for (std::size_t i = 3; i < pool.size(); ++i) {
            if (used[i] && i + 1 != pool.size())
                continue;
            Var s = fn::sumAll(pool[i]);
            loss = loss.defined() ? fn::add(loss, s) : s;
        }
        loss.backward();
        for (const Var &v : pool)
            run.values.push_back(v.value());
    }
    for (const Var &leaf : leaves)
        run.grads.push_back(leaf.hasGrad() ? leaf.grad() : Tensor());
    run.recorded = ir::counters().recordedOps - before;
    return run;
}

void
expectSameRun(const DagRun &ref, const DagRun &got, const char *what)
{
    ASSERT_EQ(ref.values.size(), got.values.size()) << what;
    for (std::size_t i = 0; i < ref.values.size(); ++i)
        EXPECT_TRUE(sameBytes(ref.values[i], got.values[i]))
            << what << ": forward value " << i;
    ASSERT_EQ(ref.grads.size(), got.grads.size()) << what;
    for (std::size_t i = 0; i < ref.grads.size(); ++i) {
        ASSERT_EQ(ref.grads[i].defined(), got.grads[i].defined())
            << what << ": leaf " << i;
        if (ref.grads[i].defined()) {
            EXPECT_TRUE(sameBytes(ref.grads[i], got.grads[i]))
                << what << ": gradient of leaf " << i;
        }
    }
}

} // namespace

class RandomDagTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomDagTest, GraphModeMatchesEagerByteForByte)
{
    const uint64_t seed = GetParam();
    const DagRun ref = runDag(seed, ir::IrMode::Eager, 1);
    EXPECT_EQ(ref.recorded, 0u);
    const DagRun graph1 = runDag(seed, ir::IrMode::Graph, 1);
    EXPECT_GT(graph1.recorded, 0u) << "graph mode recorded nothing";
    expectSameRun(ref, graph1, "graph t1");
    expectSameRun(ref, runDag(seed, ir::IrMode::Eager, 4), "eager t4");
    expectSameRun(ref, runDag(seed, ir::IrMode::Graph, 4), "graph t4");
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, RandomDagTest,
                         ::testing::Range<uint64_t>(1, 13));
