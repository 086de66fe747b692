/**
 * @file
 * Dataset generator tests: Table-I statistics, split sizes, feature
 * signal, determinism.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "data/citation.hh"
#include "data/mnist_superpixel.hh"
#include "data/tu_dataset.hh"

using namespace gnnperf;

TEST(Citation, CoraMatchesTableOne)
{
    NodeDataset cora = makeCora(7);
    DatasetInfo info = cora.info();
    EXPECT_EQ(info.numGraphs, 1);
    EXPECT_EQ(static_cast<int64_t>(info.avgNodes), 2708);
    EXPECT_NEAR(info.avgEdges, 5429.0, 5429.0 * 0.02);
    EXPECT_EQ(info.numFeatures, 1433);
    EXPECT_EQ(info.numClasses, 7);
}

TEST(Citation, CoraSplitSizes)
{
    NodeDataset cora = makeCora(7);
    EXPECT_EQ(Graph::maskIndices(cora.graph.trainMask).size(), 140u);
    EXPECT_EQ(Graph::maskIndices(cora.graph.valMask).size(), 500u);
    EXPECT_EQ(Graph::maskIndices(cora.graph.testMask).size(), 1000u);
}

TEST(Citation, SplitsDisjoint)
{
    NodeDataset cora = makeCora(7);
    for (int64_t v = 0; v < cora.graph.numNodes; ++v) {
        int in = cora.graph.trainMask[static_cast<std::size_t>(v)] +
                 cora.graph.valMask[static_cast<std::size_t>(v)] +
                 cora.graph.testMask[static_cast<std::size_t>(v)];
        ASSERT_LE(in, 1);
    }
}

TEST(Citation, TrainSplitIsClassBalanced)
{
    NodeDataset cora = makeCora(7);
    std::vector<int> per_class(7, 0);
    for (int64_t v : Graph::maskIndices(cora.graph.trainMask))
        ++per_class[static_cast<std::size_t>(
            cora.graph.nodeLabels[static_cast<std::size_t>(v)])];
    for (int c = 0; c < 7; ++c)
        EXPECT_EQ(per_class[static_cast<std::size_t>(c)], 20);
}

TEST(Citation, EdgesAreHomophilous)
{
    NodeDataset cora = makeCora(7);
    int64_t same = 0;
    const auto &g = cora.graph;
    for (std::size_t e = 0; e < g.edgeSrc.size(); ++e) {
        same += g.nodeLabels[static_cast<std::size_t>(g.edgeSrc[e])] ==
                g.nodeLabels[static_cast<std::size_t>(g.edgeDst[e])]
                ? 1 : 0;
    }
    // Measured against the noisy labels (10 % label noise), so the
    // observed rate sits below the generator's 0.86 homophily.
    EXPECT_GT(static_cast<double>(same) /
              static_cast<double>(g.edgeSrc.size()), 0.60);
}

TEST(Citation, FeaturesAreSparseBinary)
{
    NodeDataset cora = makeCora(7);
    const Tensor &x = cora.graph.x;
    int64_t active = 0;
    for (int64_t i = 0; i < x.numel(); ++i) {
        float v = x.at(i);
        ASSERT_TRUE(v == 0.0f || v == 1.0f);
        active += v != 0.0f ? 1 : 0;
    }
    // ~18 words over 1433 dims → ~1.2% density.
    EXPECT_LT(static_cast<double>(active) / x.numel(), 0.03);
}

TEST(Citation, Deterministic)
{
    NodeDataset a = makeCora(7);
    NodeDataset b = makeCora(7);
    EXPECT_EQ(a.graph.edgeSrc, b.graph.edgeSrc);
    EXPECT_EQ(a.graph.nodeLabels, b.graph.nodeLabels);
    NodeDataset c = makeCora(8);
    EXPECT_NE(a.graph.edgeSrc, c.graph.edgeSrc);
}

TEST(Citation, PubMedShape)
{
    NodeDataset pm = makePubMed(7);
    DatasetInfo info = pm.info();
    EXPECT_EQ(static_cast<int64_t>(info.avgNodes), 19717);
    EXPECT_EQ(info.numFeatures, 500);
    EXPECT_EQ(info.numClasses, 3);
    EXPECT_EQ(Graph::maskIndices(pm.graph.trainMask).size(), 60u);
}

namespace {

/** FNV-1a over raw bytes, folded into `h`. */
uint64_t
fnv1a(uint64_t h, const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

template <typename T>
uint64_t
fnv1a(uint64_t h, const std::vector<T> &v)
{
    return fnv1a(h, v.data(), v.size() * sizeof(T));
}

} // namespace

TEST(Citation, PubMedIsUnchanged)
{
    // Every edge, label, split mask and feature of the PubMed-shaped
    // graph at seed 7, as the per-draw scan of Rng::categorical built
    // it. The prefix-sum edge sampler must reproduce it exactly.
    NodeDataset pm = makePubMed(7);
    const Graph &g = pm.graph;
    uint64_t h = 0xcbf29ce484222325ull;
    h = fnv1a(h, g.edgeSrc);
    h = fnv1a(h, g.edgeDst);
    h = fnv1a(h, g.nodeLabels);
    h = fnv1a(h, g.trainMask);
    h = fnv1a(h, g.valMask);
    h = fnv1a(h, g.testMask);
    h = fnv1a(h, g.x.data(), g.x.bytes());
    EXPECT_EQ(g.edgeSrc.size(), 88676u);
    EXPECT_EQ(h, 2837461011623284589ull);
}

TEST(TuDataset, EnzymesShape)
{
    GraphDataset enz = makeEnzymes(11, 200);
    DatasetInfo info = enz.info();
    EXPECT_EQ(info.numGraphs, 200);
    EXPECT_EQ(info.numFeatures, 18);
    EXPECT_EQ(info.numClasses, 6);
    EXPECT_NEAR(info.avgNodes, 32.6, 8.0);
    for (const Graph &g : enz.graphs) {
        ASSERT_GE(g.numNodes, 2);
        ASSERT_LE(g.numNodes, 126);
    }
}

TEST(TuDataset, EnzymesBalancedClasses)
{
    GraphDataset enz = makeEnzymes(11, 120);
    std::vector<int> per_class(6, 0);
    for (const Graph &g : enz.graphs)
        ++per_class[static_cast<std::size_t>(g.graphLabel)];
    for (int c : per_class)
        EXPECT_EQ(c, 20);
}

TEST(TuDataset, DDShapeAndCap)
{
    GraphDataset dd = makeDD(11, 60, /*max_nodes_cap=*/300);
    DatasetInfo info = dd.info();
    EXPECT_EQ(info.numFeatures, 89);
    EXPECT_EQ(info.numClasses, 2);
    for (const Graph &g : dd.graphs) {
        ASSERT_GE(g.numNodes, 30);
        ASSERT_LE(g.numNodes, 300);
    }
}

TEST(TuDataset, GraphsAreValid)
{
    GraphDataset enz = makeEnzymes(13, 50);
    for (const Graph &g : enz.graphs) {
        ASSERT_GT(g.numEdges(), 0);
        for (std::size_t e = 0; e < g.edgeSrc.size(); ++e) {
            ASSERT_GE(g.edgeSrc[e], 0);
            ASSERT_LT(g.edgeSrc[e], g.numNodes);
            ASSERT_LT(g.edgeDst[e], g.numNodes);
        }
        ASSERT_EQ(g.x.dim(0), g.numNodes);
        ASSERT_EQ(g.x.dim(1), 18);
        ASSERT_EQ(g.x.device(), DeviceKind::Host);
    }
}

TEST(Mnist, RasterizedDigitsNonEmpty)
{
    Rng rng(5);
    for (int d = 0; d < 10; ++d) {
        auto img = rasterizeDigit(d, rng);
        double mass = 0.0;
        for (float v : img) {
            ASSERT_GE(v, 0.0f);
            ASSERT_LE(v, 1.0f);
            mass += v;
        }
        EXPECT_GT(mass, 10.0) << "digit " << d << " almost blank";
    }
}

TEST(Mnist, DigitsAreDistinguishable)
{
    // Different digit classes should produce visibly different ink
    // masses / distributions (1 has much less ink than 8).
    Rng rng(6);
    auto one = rasterizeDigit(1, rng);
    auto eight = rasterizeDigit(8, rng);
    double m1 = 0.0, m8 = 0.0;
    for (float v : one)
        m1 += v;
    for (float v : eight)
        m8 += v;
    EXPECT_LT(m1 * 1.5, m8);
}

TEST(Mnist, SuperpixelGraphShape)
{
    MnistSuperpixelConfig cfg;
    cfg.numGraphs = 30;
    GraphDataset ds = makeMnistSuperpixels(cfg);
    DatasetInfo info = ds.info();
    EXPECT_EQ(info.numGraphs, 30);
    EXPECT_EQ(info.numFeatures, 1);
    EXPECT_EQ(info.numClasses, 10);
    EXPECT_NEAR(info.avgNodes, 70.0, 10.0);
    for (const Graph &g : ds.graphs) {
        ASSERT_GT(g.numEdges(), 0);
        ASSERT_EQ(g.posX.size(), static_cast<std::size_t>(g.numNodes));
    }
}

TEST(Mnist, LabelsCycleThroughDigits)
{
    MnistSuperpixelConfig cfg;
    cfg.numGraphs = 20;
    GraphDataset ds = makeMnistSuperpixels(cfg);
    std::set<int64_t> labels;
    for (const Graph &g : ds.graphs)
        labels.insert(g.graphLabel);
    EXPECT_EQ(labels.size(), 10u);
}
