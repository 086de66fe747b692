/**
 * @file
 * Autograd tests: tape mechanics (graph pruning, accumulation,
 * no-grad mode) and numerical gradient checks for every
 * differentiable op.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <unordered_set>
#include <utility>

#include "autograd/functions.hh"
#include "autograd/grad_check.hh"
#include "backends/backend.hh"
#include "common/random.hh"
#include "data/tu_dataset.hh"
#include "device/device.hh"
#include "models/model_factory.hh"
#include "nn/loss.hh"
#include "parallel/thread_pool.hh"
#include "tensor/init.hh"
#include "tensor/ops.hh"

using namespace gnnperf;
using autograd::checkGradients;
using autograd::GradMode;

namespace {

Var
randomLeaf(std::vector<int64_t> shape, uint64_t seed,
           float scale = 1.0f)
{
    Rng rng(seed);
    return Var(init::normal(std::move(shape), 0.0f, scale, rng),
               /*requires_grad=*/true);
}

} // namespace

TEST(Autograd, LeafHasNoGradInitially)
{
    Var v(Tensor::ones({2}), true);
    EXPECT_TRUE(v.requiresGrad());
    EXPECT_FALSE(v.hasGrad());
}

TEST(Autograd, BackwardThroughAdd)
{
    Var a(Tensor::fromVector({1, 2}, {2}), true);
    Var b(Tensor::fromVector({3, 4}, {2}), true);
    Var loss = fn::sumAll(fn::add(a, b));
    loss.backward();
    EXPECT_FLOAT_EQ(a.grad().at(0), 1.0f);
    EXPECT_FLOAT_EQ(b.grad().at(1), 1.0f);
}

TEST(Autograd, GradAccumulatesWhenReused)
{
    Var a(Tensor::fromVector({2}, {1}), true);
    Var loss = fn::sumAll(fn::add(a, a));
    loss.backward();
    EXPECT_FLOAT_EQ(a.grad().at(0), 2.0f);
}

TEST(Autograd, NoGradModePrunesGraph)
{
    Var a(Tensor::ones({2}), true);
    {
        NoGradGuard guard;
        Var y = fn::scale(a, 3.0f);
        EXPECT_FALSE(y.requiresGrad());
    }
    Var y = fn::scale(a, 3.0f);
    EXPECT_TRUE(y.requiresGrad());
}

TEST(Autograd, DetachedInputsStayUntouched)
{
    Var a(Tensor::ones({2}), true);
    Var c(Tensor::ones({2}), false);  // constant
    Var loss = fn::sumAll(fn::mul(a, c));
    loss.backward();
    EXPECT_TRUE(a.hasGrad());
    EXPECT_FALSE(c.hasGrad());
}

TEST(Autograd, DetachBreaksTape)
{
    Var a(Tensor::ones({2}), true);
    Var y = fn::scale(a, 2.0f).detach();
    Var loss = fn::sumAll(y);
    loss.backward();
    EXPECT_FALSE(a.hasGrad());
}

TEST(Autograd, ZeroGradClears)
{
    Var a(Tensor::ones({2}), true);
    fn::sumAll(a).backward();
    EXPECT_TRUE(a.hasGrad());
    a.zeroGrad();
    EXPECT_FALSE(a.hasGrad());
}

TEST(Autograd, DiamondGraphAccumulatesOnce)
{
    // loss = sum(a*a + a*a) — both paths flow into a.
    Var a(Tensor::fromVector({3}, {1}), true);
    Var sq = fn::mul(a, a);
    Var loss = fn::sumAll(fn::add(sq, sq));
    loss.backward();
    EXPECT_FLOAT_EQ(a.grad().at(0), 12.0f);  // d/da 2a² = 4a
}

// ---------- gradient adoption ----------

namespace {

bool
allEqual(const Tensor &t, float v)
{
    for (int64_t i = 0; i < t.numel(); ++i)
        if (t.at(i) != v)
            return false;
    return true;
}

std::size_t
acquires()
{
    return DeviceManager::instance().stats(DeviceKind::Cuda).acquireCount;
}

/**
 * Var::backward's walk under the historical clone semantics, where a
 * node's first gradient was a private copy: after each closure, every
 * input gradient that shares its buffer is replaced by a copy of
 * itself. The closures run in the same order on the same values, so
 * the sums are the same; only no buffer is ever shared when an add
 * lands in it.
 */
void
backwardWithClones(const Var &root)
{
    using autograd::Node;
    std::vector<Node *> order;
    std::unordered_set<Node *> visited{root.node().get()};
    std::vector<std::pair<Node *, std::size_t>> stack{
        {root.node().get(), 0}};
    while (!stack.empty()) {
        auto &[node, next] = stack.back();
        if (next < node->inputs.size()) {
            Node *child = node->inputs[next++].get();
            if (child && child->requiresGrad && visited.insert(child).second)
                stack.emplace_back(child, 0);
        } else {
            order.push_back(node);
            stack.pop_back();
        }
    }
    root.node()->accumulateGrad(
        Tensor::ones(root.value().shape(), root.value().device()));
    root.node()->grad = root.node()->grad.clone();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        Node *node = *it;
        if (!node->backwardFn || !node->grad.defined())
            continue;
        node->backwardFn(*node);
        for (auto &in : node->inputs)
            if (in && in->grad.defined() && !in->grad.soleOwner())
                in->grad = in->grad.clone();
    }
}

} // namespace

TEST(GradAdoption, SiblingOfAReusedInputIsNotMutated)
{
    // e = (a + b) + a. e's closure hands its gradient to c = a + b and
    // to a; c's hands its own to a again and to b. b's first gradient
    // is the buffer a's second one lands on, so a must copy first.
    Var a(Tensor::ones({4}), true);
    Var b(Tensor::ones({4}), true);
    Var c = fn::add(a, b);
    Var e = fn::add(c, a);
    e.backward();
    EXPECT_TRUE(allEqual(a.grad(), 2.0f));
    EXPECT_TRUE(allEqual(b.grad(), 1.0f));
    EXPECT_TRUE(allEqual(c.grad(), 1.0f));
    EXPECT_TRUE(allEqual(e.grad(), 1.0f));
    EXPECT_NE(a.grad().data(), b.grad().data());
}

TEST(GradAdoption, GradAliasedThroughReshapeCopiesOnWrite)
{
    // x's first gradient is r's gradient viewed through reshape (r's
    // closure runs first); m's then adds into x, which must copy
    // rather than write through the view into r's gradient.
    Var x(Tensor::ones({2, 3}), true);
    Var m = fn::scale(x, 3.0f);
    Var r = fn::reshape(x, {3, 2});
    Var loss = fn::add(fn::sumAll(m), fn::sumAll(r));
    loss.backward();
    EXPECT_TRUE(allEqual(x.grad(), 4.0f));
    EXPECT_TRUE(allEqual(r.grad(), 1.0f));
    EXPECT_NE(x.grad().data(), r.grad().data());
}

TEST(GradAdoption, SeedIsNeverWritten)
{
    // The root adopts the seed and hands it on to both inputs of
    // x + x; x's second gradient must not land in the seed. A second
    // backward accumulates into the root's adopted seed, which the
    // caller still holds.
    Var x(Tensor::ones({3}), true);
    Var y = fn::add(x, x);
    const Tensor seed = Tensor::full({3}, 0.5f);
    y.backward(seed);
    EXPECT_TRUE(allEqual(seed, 0.5f));
    EXPECT_TRUE(allEqual(x.grad(), 1.0f));
    y.backward(seed);
    EXPECT_TRUE(allEqual(seed, 0.5f));
    EXPECT_TRUE(allEqual(y.grad(), 1.0f));
}

TEST(GradAdoption, EachAdoptionSavesOneAcquire)
{
    // s = sum(2 · relu(x)): four nodes get one gradient each, and
    // each adopts it. Backward acquires the seed and the gradients of
    // sum, scale and relu: 4 blocks. Copying each first gradient, as
    // before, took 8.
    {
        Var x(Tensor::fromVector({1, -2, 3}, {3}), true);
        Var s = fn::sumAll(fn::scale(fn::relu(x), 2.0f));
        const std::size_t before = acquires();
        s.backward();
        EXPECT_EQ(acquires() - before, 4u);
        EXPECT_FLOAT_EQ(x.grad().at(0), 2.0f);
        EXPECT_FLOAT_EQ(x.grad().at(1), 0.0f);
    }
    // s = sum(y + y), y = relu(x): y's second gradient arrives while
    // it shares z's buffer, so it copies once: 4 adoptions save 3 of
    // the old 7 blocks.
    {
        Var x(Tensor::fromVector({1, -2, 3}, {3}), true);
        Var y = fn::relu(x);
        Var s = fn::sumAll(fn::add(y, y));
        const std::size_t before = acquires();
        s.backward();
        EXPECT_EQ(acquires() - before, 4u);
        EXPECT_FLOAT_EQ(x.grad().at(2), 2.0f);
    }
}

TEST(GradAdoption, ParameterGradsMatchCloneSemantics)
{
    // GatedGCN with batch norm and residuals on a tiny ENZYMES batch,
    // both frameworks: the parameter gradients of an adopting backward
    // at 1 and 4 threads equal those of the clone-semantics walk byte
    // for byte.
    static GraphDataset ds = makeEnzymes(77, 6);
    std::vector<const Graph *> graphs;
    for (const Graph &g : ds.graphs)
        graphs.push_back(&g);
    for (FrameworkKind fw : {FrameworkKind::DGL, FrameworkKind::PyG}) {
        BatchedGraph batch = getBackend(fw).collate(graphs);
        ModelConfig cfg;
        cfg.inFeatures = 18;
        cfg.hidden = 8;
        cfg.numClasses = 6;
        cfg.numLayers = 2;
        cfg.graphTask = true;
        cfg.batchNorm = true;
        cfg.residual = true;
        cfg.seed = 3;
        const auto grads = [&](bool clones, int threads) {
            par::ThreadScope width(threads);
            auto model = makeModel(ModelKind::GatedGCN, getBackend(fw), cfg);
            model->train(true);
            Var loss = nn::crossEntropy(model->forward(batch),
                                        batch.graphLabels);
            if (clones)
                backwardWithClones(loss);
            else
                loss.backward();
            std::vector<Tensor> out;
            for (const Var &p : model->parameters())
                out.push_back(p.hasGrad() ? p.grad().clone() : Tensor());
            return out;
        };
        const std::vector<Tensor> ref = grads(true, 1);
        std::size_t with_grad = 0;
        for (const Tensor &t : ref)
            with_grad += t.defined() ? 1 : 0;
        EXPECT_GT(with_grad, ref.size() / 2) << frameworkName(fw);
        for (int threads : {1, 4}) {
            const std::vector<Tensor> got = grads(false, threads);
            ASSERT_EQ(got.size(), ref.size());
            for (std::size_t i = 0; i < ref.size(); ++i)
                ASSERT_TRUE(got[i].defined() == ref[i].defined() &&
                            (!ref[i].defined() ||
                             std::memcmp(got[i].data(), ref[i].data(),
                                         ref[i].bytes()) == 0))
                    << frameworkName(fw) << " parameter " << i << " at "
                    << threads << " threads";
        }
    }
}

// ---------- numerical gradient checks ----------

TEST(GradCheck, Matmul)
{
    Var a = randomLeaf({3, 4}, 1);
    Var b = randomLeaf({4, 2}, 2);
    auto r = checkGradients(
        [&] { return fn::sumAll(fn::mul(fn::matmul(a, b),
                                        fn::matmul(a, b))); },
        {a, b});
    EXPECT_TRUE(r.ok) << "rel err " << r.maxRelError;
}

TEST(GradCheck, AddSubMulScale)
{
    Var a = randomLeaf({2, 3}, 3);
    Var b = randomLeaf({2, 3}, 4);
    auto r = checkGradients(
        [&] {
            Var y = fn::sub(fn::mul(a, b), fn::scale(a, 0.5f));
            return fn::sumAll(fn::mul(y, y));
        },
        {a, b});
    EXPECT_TRUE(r.ok) << "rel err " << r.maxRelError;
}

TEST(GradCheck, DivElem)
{
    Var a = randomLeaf({2, 3}, 5);
    Var b(Tensor::full({2, 3}, 2.0f), true);
    auto r = checkGradients(
        [&] { return fn::sumAll(fn::square(fn::divElem(a, b))); },
        {a, b});
    EXPECT_TRUE(r.ok) << "rel err " << r.maxRelError;
}

TEST(GradCheck, MulScalarVar)
{
    Var x = randomLeaf({3, 2}, 6);
    Var s(Tensor::fromVector({0.7f}, {1}), true);
    auto r = checkGradients(
        [&] { return fn::sumAll(fn::square(fn::mulScalarVar(x, s))); },
        {x, s});
    EXPECT_TRUE(r.ok) << "rel err " << r.maxRelError;
}

TEST(GradCheck, BiasAndRowVecOps)
{
    Var x = randomLeaf({4, 3}, 7);
    Var b = randomLeaf({3}, 8);
    auto r = checkGradients(
        [&] {
            Var y = fn::addBias(x, b);
            y = fn::subRowVec(y, b);
            y = fn::mulRowVec(y, b);
            return fn::sumAll(fn::mul(y, y));
        },
        {x, b});
    EXPECT_TRUE(r.ok) << "rel err " << r.maxRelError;
}

TEST(GradCheck, ColBroadcastOps)
{
    Var x = randomLeaf({3, 4}, 9);
    Var s(Tensor::fromVector({1.5f, 2.0f, 0.8f}, {3}), true);
    auto r = checkGradients(
        [&] {
            Var y = fn::mulCols(x, s);
            y = fn::divCols(y, s);
            y = fn::mulCols(y, s);
            return fn::sumAll(fn::mul(y, y));
        },
        {x, s});
    EXPECT_TRUE(r.ok) << "rel err " << r.maxRelError;
}

TEST(GradCheck, Activations)
{
    Var x = randomLeaf({3, 3}, 10);
    for (auto f : {fn::sigmoid, fn::tanhV}) {
        auto r = checkGradients(
            [&] { return fn::sumAll(fn::square(f(x))); }, {x});
        EXPECT_TRUE(r.ok) << "rel err " << r.maxRelError;
    }
    auto relu_r = checkGradients(
        // Shift away from the kink at 0.
        [&] { return fn::sumAll(fn::relu(fn::addScalar(x, 3.0f))); },
        {x});
    EXPECT_TRUE(relu_r.ok);
    auto elu_r = checkGradients(
        [&] { return fn::sumAll(fn::square(fn::elu(x))); }, {x},
        1e-3f, 6e-2);
    EXPECT_TRUE(elu_r.ok) << "rel err " << elu_r.maxRelError;
    auto leaky_r = checkGradients(
        [&] {
            return fn::sumAll(
                fn::square(fn::leakyRelu(fn::addScalar(x, 3.0f))));
        },
        {x});
    EXPECT_TRUE(leaky_r.ok);
}

TEST(GradCheck, ExpLogSquare)
{
    Var x(Tensor::fromVector({0.5f, 1.0f, 2.0f, 3.0f}, {2, 2}), true);
    auto r = checkGradients(
        [&] {
            return fn::sumAll(fn::logV(fn::addScalar(
                fn::square(fn::expV(fn::scale(x, 0.3f))), 1.0f)));
        },
        {x});
    EXPECT_TRUE(r.ok) << "rel err " << r.maxRelError;
}

TEST(GradCheck, ConcatSliceReshape)
{
    Var a = randomLeaf({3, 2}, 11);
    Var b = randomLeaf({3, 3}, 12);
    auto r = checkGradients(
        [&] {
            Var c = fn::concatCols(a, b);        // [3,5]
            Var s = fn::sliceCols(c, 1, 4);      // [3,3]
            Var f = fn::reshape(s, {9, 1});
            return fn::sumAll(fn::mul(f, f));
        },
        {a, b});
    EXPECT_TRUE(r.ok) << "rel err " << r.maxRelError;
}

TEST(GradCheck, GatherScatter)
{
    Var x = randomLeaf({4, 3}, 13);
    std::vector<int64_t> idx{0, 2, 2, 3, 1};
    auto r = checkGradients(
        [&] {
            Var g = fn::gatherRows(x, idx);          // [5,3]
            Var s = fn::scatterAddRows(g, idx, 4);   // [4,3]
            return fn::sumAll(fn::mul(s, s));
        },
        {x});
    EXPECT_TRUE(r.ok) << "rel err " << r.maxRelError;
}

TEST(GradCheck, SumColsAndMeanAll)
{
    Var x = randomLeaf({3, 4}, 14);
    auto r = checkGradients(
        [&] { return fn::meanAll(fn::square(fn::sumCols(x))); }, {x});
    EXPECT_TRUE(r.ok) << "rel err " << r.maxRelError;
}

TEST(GradCheck, LogSoftmax)
{
    Var x = randomLeaf({3, 5}, 15);
    auto r = checkGradients(
        [&] { return fn::sumAll(fn::square(fn::logSoftmax(x))); },
        {x});
    EXPECT_TRUE(r.ok) << "rel err " << r.maxRelError;
}

TEST(GradCheck, L2Normalize)
{
    Var x = randomLeaf({3, 4}, 16);
    auto r = checkGradients(
        [&] {
            Var y = fn::l2NormalizeRows(x);
            return fn::sumAll(fn::mul(y, fn::addScalar(y, 1.0f)));
        },
        {x}, 1e-3f, 6e-2);
    EXPECT_TRUE(r.ok) << "rel err " << r.maxRelError;
}

TEST(Autograd, DropoutDisabledPassesThrough)
{
    Var x(Tensor::ones({4}), true);
    Var y = fn::dropout(x, 0.5f, /*training=*/false, 1);
    EXPECT_EQ(y.node().get(), x.node().get());
}

TEST(Autograd, DropoutBackwardUsesMask)
{
    Var x(Tensor::ones({1000}), true);
    Var y = fn::dropout(x, 0.5f, /*training=*/true, 17);
    fn::sumAll(y).backward();
    for (int64_t i = 0; i < 1000; ++i) {
        const float out = y.value().at(i);
        const float g = x.grad().at(i);
        EXPECT_FLOAT_EQ(g, out);  // grad == mask value (1·mask)
    }
}
