#include "data/citation.hh"

#include <algorithm>
#include <set>

#include "common/logging.hh"
#include "common/random.hh"

namespace gnnperf {

NodeDataset
makeCitation(const CitationConfig &cfg)
{
    gnnperf_assert(cfg.numClasses >= 2, "citation: need >= 2 classes");
    gnnperf_assert(cfg.trainPerClass * cfg.numClasses + cfg.valCount +
                       cfg.testCount <= cfg.numNodes,
                   "citation: split larger than graph");
    Rng rng(cfg.seed);

    NodeDataset ds;
    ds.name = cfg.name;
    ds.numFeatures = cfg.numFeatures;
    ds.numClasses = cfg.numClasses;

    Graph &g = ds.graph;
    g.numNodes = cfg.numNodes;

    // Class assignment: mildly imbalanced, like real citation data.
    std::vector<double> class_weights(
        static_cast<std::size_t>(cfg.numClasses));
    for (auto &w : class_weights)
        w = rng.uniform(0.7, 1.3);
    g.nodeLabels.resize(static_cast<std::size_t>(cfg.numNodes));
    for (auto &label : g.nodeLabels)
        label = static_cast<int64_t>(rng.categorical(class_weights));

    // Nodes grouped by class for homophilous endpoint sampling.
    std::vector<std::vector<int64_t>> by_class(
        static_cast<std::size_t>(cfg.numClasses));
    for (int64_t v = 0; v < cfg.numNodes; ++v)
        by_class[static_cast<std::size_t>(g.nodeLabels[
            static_cast<std::size_t>(v)])].push_back(v);

    // Edges: degree-biased source, homophilous destination. A small
    // seen-set avoids duplicate pairs without changing the degree
    // distribution materially.
    PrefixSampler degree_bias(std::vector<double>(
        static_cast<std::size_t>(cfg.numNodes), 1.0));
    std::set<std::pair<int64_t, int64_t>> seen;
    int64_t added = 0;
    int64_t attempts = 0;
    const int64_t max_attempts = cfg.numUndirectedEdges * 20;
    while (added < cfg.numUndirectedEdges &&
           attempts++ < max_attempts) {
        const int64_t u = static_cast<int64_t>(degree_bias.draw(rng));
        int64_t v;
        const auto cls = static_cast<std::size_t>(
            g.nodeLabels[static_cast<std::size_t>(u)]);
        if (rng.bernoulli(cfg.homophily) && by_class[cls].size() > 1) {
            v = by_class[cls][rng.uniformInt(
                static_cast<uint64_t>(by_class[cls].size()))];
        } else {
            v = static_cast<int64_t>(
                rng.uniformInt(static_cast<uint64_t>(cfg.numNodes)));
        }
        if (u == v)
            continue;
        auto key = std::minmax(u, v);
        if (!seen.insert({key.first, key.second}).second)
            continue;
        g.addUndirectedEdge(u, v);
        degree_bias.add(static_cast<std::size_t>(u), 0.6);
        degree_bias.add(static_cast<std::size_t>(v), 0.6);
        ++added;
    }
    gnnperf_assert(added > cfg.numUndirectedEdges / 2,
                   "citation: edge generation starved");

    // Features: sparse binary bag-of-words. Class c owns a topic
    // window of the vocabulary; windows overlap so classes are not
    // trivially separable from features alone.
    const int64_t window = std::max<int64_t>(
        cfg.numFeatures / cfg.numClasses, 4);
    g.x = Tensor::zeros({cfg.numNodes, cfg.numFeatures},
                        DeviceKind::Host);
    float *px = g.x.data();
    for (int64_t v = 0; v < cfg.numNodes; ++v) {
        const int64_t cls = g.nodeLabels[static_cast<std::size_t>(v)];
        const int64_t topic_begin =
            (cls * cfg.numFeatures) / cfg.numClasses;
        for (int64_t w = 0; w < cfg.wordsPerDoc; ++w) {
            int64_t word;
            if (rng.bernoulli(cfg.topicFidelity)) {
                // Own topic window (wrapping), slightly wider than the
                // per-class share to create overlap.
                word = (topic_begin +
                        static_cast<int64_t>(rng.uniformInt(
                            static_cast<uint64_t>(window * 3 / 2)))) %
                       cfg.numFeatures;
            } else {
                word = static_cast<int64_t>(rng.uniformInt(
                    static_cast<uint64_t>(cfg.numFeatures)));
            }
            px[v * cfg.numFeatures + word] = 1.0f;
        }
    }

    // Label noise: flip a fraction of labels to a random other class
    // (applied after structure/features so the graph keeps its clean
    // homophily — only the supervision is noisy, as in real data).
    if (cfg.labelNoise > 0.0) {
        for (auto &label : g.nodeLabels) {
            if (!rng.bernoulli(cfg.labelNoise))
                continue;
            const int64_t offset =
                rng.uniformInt(int64_t{1}, cfg.numClasses - 1);
            label = (label + offset) % cfg.numClasses;
        }
    }

    // Planetoid-style split: trainPerClass per class, then val/test
    // from the remaining nodes.
    g.trainMask.assign(static_cast<std::size_t>(cfg.numNodes), 0);
    g.valMask.assign(static_cast<std::size_t>(cfg.numNodes), 0);
    g.testMask.assign(static_cast<std::size_t>(cfg.numNodes), 0);
    std::vector<int64_t> order(static_cast<std::size_t>(cfg.numNodes));
    for (int64_t v = 0; v < cfg.numNodes; ++v)
        order[static_cast<std::size_t>(v)] = v;
    rng.shuffle(order);
    std::vector<int64_t> taken_per_class(
        static_cast<std::size_t>(cfg.numClasses), 0);
    std::vector<int64_t> rest;
    for (int64_t v : order) {
        auto cls = static_cast<std::size_t>(
            g.nodeLabels[static_cast<std::size_t>(v)]);
        if (taken_per_class[cls] < cfg.trainPerClass) {
            g.trainMask[static_cast<std::size_t>(v)] = 1;
            ++taken_per_class[cls];
        } else {
            rest.push_back(v);
        }
    }
    int64_t val_taken = 0, test_taken = 0;
    for (int64_t v : rest) {
        if (val_taken < cfg.valCount) {
            g.valMask[static_cast<std::size_t>(v)] = 1;
            ++val_taken;
        } else if (test_taken < cfg.testCount) {
            g.testMask[static_cast<std::size_t>(v)] = 1;
            ++test_taken;
        }
    }
    return ds;
}

NodeDataset
makeCora(uint64_t seed)
{
    CitationConfig cfg;
    cfg.name = "CORA";
    cfg.numNodes = 2708;
    cfg.numUndirectedEdges = 5429;
    cfg.numFeatures = 1433;
    cfg.numClasses = 7;
    cfg.trainPerClass = 20;  // 140 train nodes
    cfg.valCount = 500;
    cfg.testCount = 1000;
    cfg.homophily = 0.86;
    cfg.wordsPerDoc = 18;
    cfg.topicFidelity = 0.68;
    cfg.labelNoise = 0.14;
    cfg.seed = seed;
    return makeCitation(cfg);
}

NodeDataset
makePubMed(uint64_t seed)
{
    CitationConfig cfg;
    cfg.name = "PubMed";
    cfg.numNodes = 19717;
    cfg.numUndirectedEdges = 44338;
    cfg.numFeatures = 500;
    cfg.numClasses = 3;
    cfg.trainPerClass = 20;  // 60 train nodes
    cfg.valCount = 500;
    cfg.testCount = 1000;
    cfg.homophily = 0.82;
    cfg.wordsPerDoc = 24;
    cfg.topicFidelity = 0.60;
    cfg.labelNoise = 0.13;
    cfg.seed = seed ^ 0xc0ffee;
    return makeCitation(cfg);
}

} // namespace gnnperf
