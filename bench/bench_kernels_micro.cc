/**
 * @file
 * Microbenchmarks (google-benchmark) for the framework-differentiated
 * kernels — the ablations behind the paper's §IV-C analysis:
 *
 *  - PyG gather+scatter aggregation vs DGL fused GSpMM
 *  - PyG Batch.from_data_list collation vs DGL heterograph collation
 *  - PyG scatter-based pooling vs DGL segment reduction
 *  - PyG composed edge softmax vs DGL fused edge softmax
 *
 * These measure REAL CPU time of our implementations (not the
 * simulated-GPU times the table benches report); they justify the
 * relative op counts/bytes that drive the timing model.
 *
 * After the google-benchmark suite, a thread-scaling pass times the
 * hot kernels at 1/2/4/hw pool widths (src/parallel/), asserts each
 * width's output is byte-identical to the single-thread run, and emits
 * the results as `threads.<kernel>.t<N>.{ms,speedup_x,match_t1}`
 * series into the BENCH baseline (GNNPERF_CSV_DIR →
 * BENCH_kernels_micro.json) so `gnnperf diff` can gate the
 * deterministic match_t1 bits. Wall-clock ms/speedup values are
 * machine-dependent; gate them only with generous thresholds.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>

#include "autograd/functions.hh"
#include "backends/backend.hh"
#include "bench_common.hh"
#include "common/random.hh"
#include "data/tu_dataset.hh"
#include "device/device.hh"
#include "device/profiler.hh"
#include "graph/edge_softmax.hh"
#include "graph/scatter.hh"
#include "graph/segment.hh"
#include "graph/spmm.hh"
#include "parallel/thread_pool.hh"
#include "tensor/init.hh"
#include "tensor/matmul.hh"
#include "tensor/ops.hh"

namespace {

using namespace gnnperf;

/** A reusable collated batch fixture. */
struct BatchFixture
{
    GraphDataset dataset;
    BatchedGraph batch;
    Tensor features;

    BatchFixture(int64_t graphs, int64_t feat, FrameworkKind fw)
        : dataset(makeEnzymes(3, graphs))
    {
        std::vector<const Graph *> members;
        for (const Graph &g : dataset.graphs)
            members.push_back(&g);
        batch = getBackend(fw).collate(members);
        Rng rng(5);
        features = init::normal({batch.numNodes, feat}, 0.0f, 1.0f,
                                rng);
        batch.ensureInIndex();
        batch.ensureOutIndex();
    }
};

void
BM_AggregatePygScatter(benchmark::State &state)
{
    BatchFixture fix(64, state.range(0), FrameworkKind::PyG);
    Backend &backend = getBackend(FrameworkKind::PyG);
    for (auto _ : state) {
        Var out = backend.aggregate(fix.batch, Var(fix.features),
                                    Reduce::Sum);
        benchmark::DoNotOptimize(out.value().data());
    }
    state.SetItemsProcessed(state.iterations() * fix.batch.numEdges());
}
BENCHMARK(BM_AggregatePygScatter)->Arg(32)->Arg(128);

void
BM_AggregateDglGspmm(benchmark::State &state)
{
    BatchFixture fix(64, state.range(0), FrameworkKind::DGL);
    Backend &backend = getBackend(FrameworkKind::DGL);
    for (auto _ : state) {
        Var out = backend.aggregate(fix.batch, Var(fix.features),
                                    Reduce::Sum);
        benchmark::DoNotOptimize(out.value().data());
    }
    state.SetItemsProcessed(state.iterations() * fix.batch.numEdges());
}
BENCHMARK(BM_AggregateDglGspmm)->Arg(32)->Arg(128);

void
BM_CollatePyg(benchmark::State &state)
{
    GraphDataset ds = makeEnzymes(3, state.range(0));
    std::vector<const Graph *> members;
    for (const Graph &g : ds.graphs)
        members.push_back(&g);
    Backend &backend = getBackend(FrameworkKind::PyG);
    for (auto _ : state) {
        BatchedGraph batch = backend.collate(members);
        benchmark::DoNotOptimize(batch.numNodes);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CollatePyg)->Arg(64)->Arg(128);

void
BM_CollateDgl(benchmark::State &state)
{
    GraphDataset ds = makeEnzymes(3, state.range(0));
    std::vector<const Graph *> members;
    for (const Graph &g : ds.graphs)
        members.push_back(&g);
    Backend &backend = getBackend(FrameworkKind::DGL);
    for (auto _ : state) {
        BatchedGraph batch = backend.collate(members);
        benchmark::DoNotOptimize(batch.numNodes);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CollateDgl)->Arg(64)->Arg(128);

void
BM_ReadoutPygScatterPool(benchmark::State &state)
{
    BatchFixture fix(128, 64, FrameworkKind::PyG);
    Backend &backend = getBackend(FrameworkKind::PyG);
    for (auto _ : state) {
        Var out = backend.readoutMean(fix.batch, Var(fix.features));
        benchmark::DoNotOptimize(out.value().data());
    }
}
BENCHMARK(BM_ReadoutPygScatterPool);

void
BM_ReadoutDglSegment(benchmark::State &state)
{
    BatchFixture fix(128, 64, FrameworkKind::DGL);
    Backend &backend = getBackend(FrameworkKind::DGL);
    for (auto _ : state) {
        Var out = backend.readoutMean(fix.batch, Var(fix.features));
        benchmark::DoNotOptimize(out.value().data());
    }
}
BENCHMARK(BM_ReadoutDglSegment);

void
BM_EdgeSoftmaxPygComposed(benchmark::State &state)
{
    BatchFixture fix(64, 8, FrameworkKind::PyG);
    Rng rng(9);
    Tensor logits = init::normal({fix.batch.numEdges(), 8}, 0.0f, 1.0f,
                                 rng);
    Backend &backend = getBackend(FrameworkKind::PyG);
    for (auto _ : state) {
        Var out = backend.edgeSoftmax(fix.batch, Var(logits));
        benchmark::DoNotOptimize(out.value().data());
    }
}
BENCHMARK(BM_EdgeSoftmaxPygComposed);

void
BM_EdgeSoftmaxDglFused(benchmark::State &state)
{
    BatchFixture fix(64, 8, FrameworkKind::DGL);
    Rng rng(9);
    Tensor logits = init::normal({fix.batch.numEdges(), 8}, 0.0f, 1.0f,
                                 rng);
    Backend &backend = getBackend(FrameworkKind::DGL);
    for (auto _ : state) {
        Var out = backend.edgeSoftmax(fix.batch, Var(logits));
        benchmark::DoNotOptimize(out.value().data());
    }
}
BENCHMARK(BM_EdgeSoftmaxDglFused);

/**
 * Allocator ablation: the same aggregation kernel loop under the
 * direct and the caching allocator. The loop's intermediates churn
 * through the allocator every iteration, so the caching pool turns
 * almost all backing (device) allocations into cache hits while the
 * logical bytes stay identical.
 */
void
BM_AggregateAllocator(benchmark::State &state, AllocatorKind which)
{
    DeviceManager &dm = DeviceManager::instance();
    const AllocatorKind saved = dm.allocatorKind(DeviceKind::Cuda);
    dm.setAllocator(which);
    dm.emptyCaches();
    {
        BatchFixture fix(64, 64, FrameworkKind::PyG);
        Backend &backend = getBackend(FrameworkKind::PyG);
        const MemoryStats &s = dm.stats(DeviceKind::Cuda);
        const std::size_t allocs0 = s.allocCount;
        const std::size_t hits0 = s.cacheHits;
        const std::size_t acquires0 = s.acquireCount;
        for (auto _ : state) {
            Var out = backend.aggregate(fix.batch, Var(fix.features),
                                        Reduce::Sum);
            benchmark::DoNotOptimize(out.value().data());
        }
        const auto iters = static_cast<double>(state.iterations());
        state.counters["device_allocs_per_iter"] =
            static_cast<double>(s.allocCount - allocs0) / iters;
        state.counters["cache_hits_per_iter"] =
            static_cast<double>(s.cacheHits - hits0) / iters;
        state.counters["acquires_per_iter"] =
            static_cast<double>(s.acquireCount - acquires0) / iters;
    }
    dm.emptyCaches();
    dm.setAllocator(saved);
}
BENCHMARK_CAPTURE(BM_AggregateAllocator, direct,
                  AllocatorKind::Direct);
BENCHMARK_CAPTURE(BM_AggregateAllocator, caching,
                  AllocatorKind::Caching);

/** The three products of the GEMM core (tensor/matmul.hh). */
enum class GemmKind
{
    NN,  ///< ops::matmul: A·B
    TN,  ///< ops::matmulTransA: Aᵀ·B, the weight gradient
    NT,  ///< ops::matmulTransB: A·Bᵀ, the input gradient
};

/**
 * C[rows, cols] over `depth`, with A (rows × depth in the product's
 * view) nonzero at `density_pct` percent, as bag-of-words features
 * are. Items processed are multiply-adds × 2.
 */
void
runSgemm(benchmark::State &state, GemmKind kind, int64_t rows,
         int64_t depth, int64_t cols, int density_pct)
{
    Rng rng(4);
    Tensor a = kind == GemmKind::TN
                   ? init::normal({depth, rows}, 0.0f, 1.0f, rng)
                   : init::normal({rows, depth}, 0.0f, 1.0f, rng);
    if (density_pct < 100)
        for (int64_t i = 0; i < a.numel(); ++i)
            if (!rng.bernoulli(density_pct / 100.0))
                a.set(i, 0.0f);
    const Tensor b = kind == GemmKind::NT
                         ? init::normal({cols, depth}, 0.0f, 1.0f, rng)
                         : init::normal({depth, cols}, 0.0f, 1.0f, rng);
    for (auto _ : state) {
        Tensor c = kind == GemmKind::NN   ? ops::matmul(a, b)
                   : kind == GemmKind::TN ? ops::matmulTransA(a, b)
                                          : ops::matmulTransB(a, b);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 2 * rows * depth * cols);
    state.SetLabel(ops::gemmIsa());
}

/** Square n×n·n×n products. */
void
BM_Sgemm(benchmark::State &state)
{
    const int64_t n = state.range(0);
    runSgemm(state, GemmKind::NN, n, n, n, 100);
}
BENCHMARK(BM_Sgemm)->Arg(64)->Arg(256);

void
BM_SgemmTN(benchmark::State &state)
{
    const int64_t n = state.range(0);
    runSgemm(state, GemmKind::TN, n, n, n, 100);
}
BENCHMARK(BM_SgemmTN)->Arg(64)->Arg(256);

void
BM_SgemmNT(benchmark::State &state)
{
    const int64_t n = state.range(0);
    runSgemm(state, GemmKind::NT, n, n, n, 100);
}
BENCHMARK(BM_SgemmNT)->Arg(64)->Arg(256);

/**
 * The measured workloads' shapes. GatedGCN's edge layer: 16384 edges
 * × 96 features through a 96×96 weight, forward (NN), input gradient
 * (NT) and weight gradient (TN). PubMed GAT's first layer: 19717
 * nodes × 500 bag-of-words features, 5% nonzero, through 500×256
 * forward (NN) and its weight gradient (TN), which the sparse route
 * serves.
 */
void
BM_SgemmShape(benchmark::State &state, GemmKind kind, int64_t rows,
              int64_t depth, int64_t cols, int density_pct)
{
    runSgemm(state, kind, rows, depth, cols, density_pct);
}
BENCHMARK_CAPTURE(BM_SgemmShape, gatedgcn_nn, GemmKind::NN, 16384, 96, 96,
                  100)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SgemmShape, gatedgcn_nt, GemmKind::NT, 16384, 96, 96,
                  100)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SgemmShape, gatedgcn_tn, GemmKind::TN, 96, 16384, 96,
                  100)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SgemmShape, pubmed_nn, GemmKind::NN, 19717, 500, 256,
                  5)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SgemmShape, pubmed_tn, GemmKind::TN, 500, 19717, 256,
                  5)
    ->Unit(benchmark::kMillisecond);

/**
 * Thread-scaling series: per kernel, wall-clock best-of-5 at each pool
 * width plus a byte-identity bit against the single-thread output.
 */
void
runThreadScaling(bench::Baseline &base)
{
    std::printf("\nthread scaling (best-of-5 wall ms per width)\n");
    BatchFixture fix(64, 64, FrameworkKind::DGL);
    const CsrIndex &in = *fix.batch.inIndex;
    Rng rng(11);
    const Tensor ga = init::normal({256, 256}, 0.0f, 1.0f, rng);
    const Tensor gb = init::normal({256, 256}, 0.0f, 1.0f, rng);
    const Tensor logits =
        init::normal({fix.batch.numEdges(), 8}, 0.0f, 1.0f, rng);

    struct ScaleKernel
    {
        const char *name;
        std::function<Tensor()> run;
    };
    const std::vector<ScaleKernel> kernels = {
        {"spmm", [&] { return graphops::spmmCopyUSum(in, fix.features); }},
        {"gemm", [&] { return ops::matmul(ga, gb); }},
        {"edge_softmax",
         [&] { return graphops::edgeSoftmaxFused(in, logits); }},
        {"segment_sum",
         [&] {
             return graphops::segmentSum(fix.features,
                                         fix.batch.graphPtr);
         }},
        {"scatter_add",
         [&] {
             return ops::scatterAddRows(fix.features, fix.batch.nodeGraph,
                                        fix.batch.numGraphs);
         }},
        {"relu", [&] { return ops::relu(fix.features); }},
    };

    std::vector<int> widths = {1, 2, 4,
                               par::ThreadPool::defaultThreads()};
    std::sort(widths.begin(), widths.end());
    widths.erase(std::unique(widths.begin(), widths.end()),
                 widths.end());

    auto bestMs = [](const std::function<Tensor()> &run) {
        double best = 1e300;
        for (int rep = 0; rep < 5; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            Tensor out = run();
            const auto t1 = std::chrono::steady_clock::now();
            benchmark::DoNotOptimize(out.data());
            best = std::min(
                best, std::chrono::duration<double, std::milli>(t1 - t0)
                          .count());
        }
        return best;
    };

    for (const auto &k : kernels) {
        Tensor ref;
        double t1_ms = 0.0;
        {
            par::ThreadScope scope(1);
            ref = k.run(); // warm-up + reference output
            t1_ms = bestMs(k.run);
        }
        for (int w : widths) {
            par::ThreadScope scope(w);
            Tensor out = k.run(); // warm-up + identity check
            const bool match =
                out.numel() == ref.numel() &&
                std::memcmp(out.data(), ref.data(),
                            static_cast<std::size_t>(out.numel()) *
                                sizeof(float)) == 0;
            const double ms = bestMs(k.run);
            const std::string key =
                std::string("threads.") + k.name + ".t" +
                std::to_string(w);
            base.add(key + ".ms", ms);
            base.add(key + ".speedup_x", ms > 0.0 ? t1_ms / ms : 0.0);
            base.add(key + ".match_t1", match ? 1.0 : 0.0);
            std::printf("  %-14s t%-2d %8.3f ms  %5.2fx  %s\n", k.name,
                        w, ms, ms > 0.0 ? t1_ms / ms : 0.0,
                        match ? "bitwise==t1" : "MISMATCH");
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::StatsScope stats("kernels_micro");
    bench::Baseline baseline("kernels_micro");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    runThreadScaling(baseline);
    return 0;
}
