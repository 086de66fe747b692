/**
 * @file
 * Shared helpers for the table/figure benches: scale-aware dataset
 * construction and header printing. Smoke scale keeps the whole bench
 * suite runnable in minutes on one CPU core; GNNPERF_SCALE=full uses
 * the paper's protocol (see DESIGN.md §6).
 */

#ifndef GNNPERF_BENCH_BENCH_COMMON_HH
#define GNNPERF_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "obs/diff.hh"
#include "obs/exec_trace.hh"
#include "obs/hwprof.hh"
#include "obs/stats.hh"

namespace gnnperf {
namespace bench {

/** Print a bench banner with the active scale. */
inline void
banner(const char *what, const char *paper_ref)
{
    std::printf("==============================================\n");
    std::printf("gnnperf bench: %s\n", what);
    std::printf("reproduces:    %s\n", paper_ref);
    std::printf("scale:         %s (GNNPERF_SCALE=full for paper "
                "protocol)\n",
                fullScale() ? "full" : "smoke");
    std::printf("==============================================\n\n");
}

/**
 * Opt-in stats collection for a bench main: GNNPERF_STATS=1 turns
 * sampling on for the process, and at scope exit the registry's JSON /
 * CSV / event-log artifacts land in GNNPERF_CSV_DIR (when set) under
 * the given prefix. Declare one at the top of main().
 *
 * GNNPERF_TRACE additionally records the merged execution trace
 * (obs/exec_trace.hh) and writes it at scope exit to the file
 * traceOutputPath resolves: FILE itself, or for GNNPERF_TRACE=1
 * `<prefix>.trace.json` in GNNPERF_CSV_DIR (no-op when that is unset).
 *
 * GNNPERF_HWPROF=1|sw turns on the hardware-counter profiler for the
 * bench (obs/hwprof.hh); its totals land in the stats snapshot as
 * hwprof.* gauges and in BENCH JSONs via the Baseline scope.
 */
class StatsScope
{
  public:
    explicit StatsScope(const char *prefix) : prefix_(prefix)
    {
        if (envInt("GNNPERF_STATS", 0) != 0)
            stats::setSamplingEnabled(true);
        tracePath_ =
            traceOutputPath(envString("GNNPERF_TRACE", ""), prefix_);
        if (!tracePath_.empty())
            ExecTrace::instance().enable();
        hwprof::configure(envString("GNNPERF_HWPROF", ""));
    }

    ~StatsScope()
    {
        if (!tracePath_.empty()) {
            ExecTrace &trace = ExecTrace::instance();
            trace.disable();
            trace.writeTo(tracePath_);
            std::printf("wrote %s\n", tracePath_.c_str());
        }
        hwprof::publishStats();
        maybeWriteStatsArtifacts(prefix_);
    }

  private:
    std::string prefix_;
    std::string tracePath_;
};

/**
 * Machine-readable bench baseline: collect the run's headline series
 * and at scope exit write `BENCH_<name>.json` into GNNPERF_CSV_DIR
 * (when set) in the flat schema `gnnperf diff` compares. Declare one
 * per bench main(), next to the StatsScope.
 */
class Baseline
{
  public:
    explicit Baseline(std::string bench_name)
        : name_(std::move(bench_name))
    {}

    ~Baseline()
    {
        appendAllocatorSeries(series_);
        appendParallelSeries(series_);
        appendHwprofSeries(series_);
        maybeWriteCsv("BENCH_" + name_ + ".json",
                      diff::baselineToJson(name_, series_));
    }

    void add(const std::string &series, double value)
    {
        series_.emplace_back(series, value);
    }

    void
    addNodeRows(const std::string &dataset,
                const std::vector<NodeExperimentRow> &rows)
    {
        for (const auto &row : rows)
            addRow(dataset, modelName(row.model),
                   frameworkName(row.framework), row.epochTime,
                   row.totalTime, row.accuracy.mean, row.epochsRun);
    }

    void
    addGraphRows(const std::string &dataset,
                 const std::vector<GraphExperimentRow> &rows)
    {
        for (const auto &row : rows)
            addRow(dataset, modelName(row.model),
                   frameworkName(row.framework), row.epochTime,
                   row.totalTime, row.accuracy.mean, row.epochsRun);
    }

    void
    addProfileCells(const std::string &dataset,
                    const std::vector<ProfileCell> &cells)
    {
        for (const auto &cell : cells) {
            const std::string key =
                dataset + "." + modelName(cell.model) + "/" +
                frameworkName(cell.framework) + ".b" +
                std::to_string(cell.batchSize);
            add(key + ".gpu_utilization",
                cell.profile.gpuUtilization);
            add(key + ".epoch_s", cell.profile.breakdown.total());
            add(key + ".kernels",
                static_cast<double>(cell.profile.kernelsPerEpoch));
        }
    }

  private:
    void
    addRow(const std::string &dataset, const char *model,
           const char *fw, double epoch_s, double total_s, double acc,
           int epochs)
    {
        const std::string key =
            dataset + "." + model + "/" + fw;
        add(key + ".epoch_s", epoch_s);
        add(key + ".total_s", total_s);
        add(key + ".acc_mean", acc);
        add(key + ".epochs", epochs);
    }

    std::string name_;
    std::vector<std::pair<std::string, double>> series_;
};

/** Cora at paper size (cheap enough at every scale). */
inline NodeDataset
benchCora()
{
    return makeCora(/*seed=*/7);
}

/**
 * PubMed: paper size at full scale; a quarter-size network with the
 * same feature width and class count at smoke scale (full-batch
 * training on 19 717 × 500 features is minutes of single-core GEMM).
 */
inline NodeDataset
benchPubMed()
{
    if (fullScale())
        return makePubMed(/*seed=*/7);
    CitationConfig cfg;
    cfg.name = "PubMed(smoke-1/4)";
    cfg.numNodes = 4930;
    cfg.numUndirectedEdges = 11085;
    cfg.numFeatures = 500;
    cfg.numClasses = 3;
    cfg.trainPerClass = 20;
    cfg.valCount = 500;
    cfg.testCount = 1000;
    cfg.homophily = 0.82;
    cfg.wordsPerDoc = 24;
    cfg.topicFidelity = 0.60;
    cfg.labelNoise = 0.13;
    cfg.seed = 7 ^ 0xc0ffee;
    return makeCitation(cfg);
}

/** ENZYMES: 600 graphs at full scale, 300 at smoke scale. */
inline GraphDataset
benchEnzymes()
{
    const int64_t n = envInt("GNNPERF_ENZYMES_GRAPHS",
                             fullScale() ? 600 : 300, 1, 100000);
    return makeEnzymes(/*seed=*/42, n);
}

/**
 * DD: 1178 graphs with the full heavy tail at full scale; at smoke
 * scale 96 graphs capped at 300 nodes (DD's 5 748-node outliers are
 * minutes each on one core).
 */
inline GraphDataset
benchDD()
{
    if (fullScale())
        return makeDD(/*seed=*/42, 1178, 0);
    const int64_t n = envInt("GNNPERF_DD_GRAPHS", 96, 1, 100000);
    return makeDD(/*seed=*/42, n, /*max_nodes_cap=*/300);
}

/** MNIST: 70 000 graphs at full scale, 800 at smoke scale. */
inline GraphDataset
benchMnist()
{
    MnistSuperpixelConfig cfg;
    cfg.numGraphs = envInt("GNNPERF_MNIST_GRAPHS",
                           fullScale() ? 70000 : 800, 1, 100000);
    return makeMnistSuperpixels(cfg);
}

} // namespace bench
} // namespace gnnperf

#endif // GNNPERF_BENCH_BENCH_COMMON_HH
