/**
 * @file
 * `gnnperf run` — the kitchen-sink experiment over the public API:
 * one model on one dataset under both frameworks, side by side as in
 * the paper's tables, then the artifacts asked for. --threads, --ir,
 * --allocator and --hwprof never change accuracy or logical memory
 * (the kernels are bit-identical at every width and on both dispatch
 * paths); they change launches, reserved-pool numbers and the
 * hwprof.* series.
 */

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/fs.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "device/device.hh"
#include "ir/ir.hh"
#include "obs/diff.hh"
#include "obs/exec_trace.hh"
#include "obs/hwprof.hh"
#include "obs/roofline.hh"
#include "obs/stats.hh"
#include "obs/stats_export.hh"
#include "parallel/thread_pool.hh"
#include "tensor/matmul.hh"

#include "gnnperf.hh"

namespace gnnperf {
namespace cli {

namespace {

using Series = std::vector<std::pair<std::string, double>>;

/** Write --stats-out / --events-out artifacts after the run. */
void
writeStatsOutputs(const Args &args)
{
    // Mirror the counter totals into hwprof.* gauges so the stats
    // snapshot carries them (no-op with the profiler off).
    hwprof::publishStats();
    if (args.has("stats-out")) {
        writeFile(args.text("stats-out"), stats::statsToJson());
        std::printf("wrote %s\n", args.text("stats-out").c_str());
    }
    if (args.has("events-out")) {
        writeFile(args.text("events-out"), stats::eventsToJsonl());
        std::printf("wrote %s\n", args.text("events-out").c_str());
    }
}

/** Print the roofline tables and write the JSON suite. */
void
writeRooflineOutputs(const std::string &path,
                     const std::vector<RooflineReport> &suite)
{
    // State the counter tier up front so a run whose perf_event_open
    // was denied says it fell back to the software tier.
    for (const auto &report : suite) {
        if (report.hwprofTier != hwprof::Tier::Off) {
            std::printf("hwprof: %s tier — %s\n",
                        hwprof::tierName(report.hwprofTier),
                        report.hwprofTierReason.c_str());
            break;
        }
    }
    std::printf("%s\n", renderRooflineTable(suite).c_str());
    for (const auto &report : suite) {
        std::printf("%s\n%s\n", report.label.c_str(),
                    renderRooflineKernels(report).c_str());
    }
    writeFile(path, rooflineSuiteToJson(suite));
    std::printf("wrote %s\n", path.c_str());
}

/**
 * Per-framework stats counters worth gating on: the counters whose
 * names carry the framework, so both frameworks' work shows up in one
 * process-wide snapshot without double counting.
 */
void
appendStatsSeries(Series &series)
{
    static const char *kTracked[] = {
        "backend.pyg.edges_touched", "backend.pyg.collate_bytes",
        "backend.dgl.edges_touched", "backend.dgl.collate_bytes",
        "backend.dgl.dispatch_ops", "kernel.spmm.nnz",
    };
    for (const auto &snap : stats::Registry::instance().snapshotAll()) {
        for (const char *name : kTracked) {
            if (snap.name == name)
                series.emplace_back("stats." + snap.name, snap.value);
        }
    }
}

/** The per-row performance series of a BENCH baseline. */
template <typename Row>
Series
rowSeries(const std::vector<Row> &rows)
{
    Series series;
    for (const auto &row : rows) {
        const std::string key = std::string(modelName(row.model)) + "/" +
                                frameworkName(row.framework);
        series.emplace_back(key + ".epoch_s", row.epochTime);
        series.emplace_back(key + ".total_s", row.totalTime);
        series.emplace_back(key + ".acc_mean", row.accuracy.mean);
        series.emplace_back(key + ".epochs", row.epochsRun);
    }
    return series;
}

/**
 * Write what the run asked for, in this order: the BENCH baseline
 * (it snapshots the counters of the table run alone), then the
 * roofline re-run, then the trace and the stats that cover both.
 */
void
writeOutputs(const Args &args, const std::string &label, Series series,
             const std::function<std::vector<RooflineReport>()> &roofline,
             const std::string &trace_path)
{
    if (args.has("bench-out")) {
        appendStatsSeries(series);
        appendAllocatorSeries(series);
        appendParallelSeries(series);
        appendIrSeries(series);
        appendHwprofSeries(series);
        writeFile(args.text("bench-out"),
                  diff::baselineToJson(label, series));
        std::printf("wrote %s\n", args.text("bench-out").c_str());
    }
    if (args.has("roofline-out"))
        writeRooflineOutputs(args.text("roofline-out"), roofline());
    if (!trace_path.empty()) {
        ExecTrace &trace = ExecTrace::instance();
        trace.disable();
        std::printf("%s\n", trace.peakTable(DeviceKind::Cuda).c_str());
        trace.writeTo(trace_path);
        std::printf("wrote %s\n", trace_path.c_str());
    }
    writeStatsOutputs(args);
}

int
runBody(const Args &args)
{
    const bool node = args.text("task", "graph") == "node";
    const std::string dataset =
        args.text("dataset", node ? "cora" : "enzymes");
    const bool node_dataset = dataset == "cora" || dataset == "pubmed";
    if (node != node_dataset) {
        throw UsageError(std::string("--dataset: the ") +
                         (node ? "node task takes cora|pubmed"
                               : "graph task takes enzymes|dd|mnist") +
                         ", got " + dataset);
    }
    const std::string label = (node ? "node_" : "graph_") + dataset;
    const ModelKind model = modelKindFromName(args.text("model", "GCN"));
    const bool verbose = args.has("verbose");

    if (args.has("threads"))
        par::ThreadPool::instance().setNumThreads(
            static_cast<int>(args.integer("threads", 0)));
    if (args.has("allocator"))
        DeviceManager::instance().setAllocator(
            allocatorKindFromName(args.text("allocator")));
    if (args.has("ir"))
        ir::setMode(ir::modeFromString(args.text("ir").c_str()));
    if (args.has("stats-out") || args.has("events-out") ||
        args.has("bench-out"))
        stats::setSamplingEnabled(true);
    // Enable before dataset construction so the memory timeline covers
    // the dataset's allocations too.
    const std::string trace_path =
        traceOutputPath(args.text("trace-out"), label);
    if (!trace_path.empty())
        ExecTrace::instance().enable();
    // Counter profiling starts before the dataset too, so warm-up
    // faults land in the aggregates rather than the first kernel.
    hwprof::configure(args.text("hwprof"));
    // Every measured time below came from this kernel path.
    std::printf("gnnperf run: %s %s, %d threads, gemm %s\n", label.c_str(),
                args.text("model", "GCN").c_str(),
                par::ThreadPool::instance().numThreads(), ops::gemmIsa());

    if (node) {
        const NodeDataset ds =
            dataset == "cora" ? makeCora() : makePubMed();
        const int epochs = static_cast<int>(args.integer("epochs", 60));
        const auto rows = runNodeClassification(
            ds, {model}, static_cast<int>(args.integer("seeds", 1)),
            epochs, verbose);
        std::printf("%s\n", renderNodeTable(ds.name, rows).c_str());
        writeOutputs(
            args, label, rowSeries(rows),
            [&] {
                return runNodeRoofline(ds, {model}, epochs,
                                       /*seed=*/1000);
            },
            trace_path);
        return 0;
    }

    GraphDataset ds;
    if (dataset == "enzymes") {
        ds = makeEnzymes(42, args.integer("graphs", 300));
    } else if (dataset == "dd") {
        ds = makeDD(42, args.integer("graphs", 96), 300);
    } else {
        MnistSuperpixelConfig cfg;
        cfg.numGraphs = args.integer("graphs", 500);
        ds = makeMnistSuperpixels(cfg);
    }
    const int epochs = static_cast<int>(args.integer("epochs", 15));
    const auto rows = runGraphClassification(
        ds, {model}, static_cast<int>(args.integer("folds", 2)), epochs,
        /*seed=*/1, verbose);
    std::printf("%s\n", renderGraphTable(ds.name, rows).c_str());
    writeOutputs(
        args, label, rowSeries(rows),
        [&] {
            return runGraphRoofline(ds, {model}, epochs,
                                    /*batch_size=*/0, /*seed=*/1);
        },
        trace_path);
    return 0;
}

constexpr const char *kTasks[] = {"node", "graph"};
constexpr const char *kModels[] = {"GCN", "GAT",   "SAGE",    "GraphSAGE",
                                   "GIN", "MoNet", "GatedGCN"};
constexpr const char *kDatasets[] = {"cora", "pubmed", "enzymes", "dd",
                                     "mnist"};
constexpr const char *kIrModes[] = {"eager", "graph"};
constexpr const char *kAllocators[] = {"direct", "caching"};

} // namespace

const Command kRun = {
    .name = "run",
    .synopsis = "[options]",
    .summary = "Train one model under both frameworks, print the paper "
               "rows, write the requested artifacts.",
    .options = {
        {.name = "task", .type = Type::Choice, .choices = kTasks,
         .help = "task (default graph)"},
        {.name = "model", .type = Type::Choice, .choices = kModels,
         .help = "model (default GCN)"},
        {.name = "dataset", .type = Type::Choice, .choices = kDatasets,
         .help = "node: cora (default) or pubmed; graph: enzymes "
                 "(default), dd or mnist"},
        {.name = "epochs", .type = Type::Int, .min = 1, .max = 100000,
         .help = "epoch budget (default 60 node, 15 graph)"},
        {.name = "folds", .type = Type::Int, .min = 1, .max = 10,
         .help = "graph task: folds run of the ten-fold split (default 2)"},
        {.name = "seeds", .type = Type::Int, .min = 1, .max = 1000,
         .help = "node task: seeds per row (default 1)"},
        {.name = "graphs", .type = Type::Int, .min = 1, .max = 100000,
         .help = "graph task: dataset size (default 300 enzymes, 96 dd, "
                 "500 mnist)"},
        {.name = "verbose", .type = Type::Flag,
         .help = "per-epoch progress"},
        {.name = "threads", .type = Type::Int, .min = 1,
         .max = par::ThreadPool::kMaxThreads, .env = "GNNPERF_THREADS",
         .help = "host thread-pool width (default hardware concurrency; "
                 "1 = the serial path)"},
        {.name = "ir", .type = Type::Choice, .choices = kIrModes,
         .env = "GNNPERF_IR", .help = "dispatch path (default eager)"},
        {.name = "allocator", .type = Type::Choice, .choices = kAllocators,
         .env = "GNNPERF_ALLOCATOR",
         .help = "device allocator (default caching)"},
        {.name = "stats-out", .type = Type::Path,
         .help = "write the metrics registry's JSON snapshot"},
        {.name = "events-out", .type = Type::Path,
         .help = "write the per-epoch run-event log (JSONL)"},
        {.name = "roofline-out", .type = Type::Path,
         .help = "re-run with roofline attribution, print the tables, "
                 "write the JSON suite"},
        {.name = "bench-out", .type = Type::Path,
         .help = "write a BENCH baseline for `gnnperf diff`"},
        {.name = "trace-out", .type = Type::Path, .env = "GNNPERF_TRACE",
         .help = "write the merged execution trace; 1 = "
                 "<task>_<dataset>.trace.json in GNNPERF_CSV_DIR"},
        {.name = "hwprof", .type = Type::Choice, .choices = hwprof::kModes,
         .bare = "1", .env = "GNNPERF_HWPROF",
         .help = "hardware-counter profiler (bare --hwprof = 1; sw forces "
                 "the software tier)"},
    },
    .body = runBody,
};

} // namespace cli
} // namespace gnnperf
