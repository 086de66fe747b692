/**
 * @file
 * One measured training session of a perfbench workload.
 *
 * A session is what one user run of the library costs: generate the
 * inputs, hand them to the public trainer, train a fixed number of
 * epochs, check the outputs. It prints one JSON line of raw samples on
 * stdout; perfbench/run.py runs several sessions per benchmark run and
 * reduces them to the reported medians.
 *
 *   perfbench_session --workload NAME --seed N --trace 0|1
 *                     [--plant-ms MS] [--plant-layer LAYER]
 *
 * --trace 0 calls trainGraphTask / trainNodeTask with every library
 * tracer off and times epoch boundaries through the trainer's
 * TrainOptions::traceObserver hook. --trace 1 rebuilds the same epoch
 * from the public calls the trainer makes, in the same order, times
 * each call from here, and turns on the library's span tracer and stats
 * sampling to read the kernel spans and counters it already exports.
 * Both print a fingerprint of the trained model (final validation loss
 * or accuracy, test accuracy, epochs run) so run.py can check that
 * the traced session trained bit for bit the same model.
 *
 * --plant-ms adds a busy-wait of that many milliseconds: once per epoch
 * in the epoch hook of an untraced session, and once per call of the
 * --plant-layer wrapper of a traced session. It exists to prove that
 * the benchmark flags a known slowdown and attributes it to one layer.
 */

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "autograd/variable.hh"
#include "backends/backend.hh"
#include "common/checks.hh"
#include "common/json.hh"
#include "core/config.hh"
#include "core/evaluator.hh"
#include "core/trainer.hh"
#include "data/citation.hh"
#include "data/dataloader.hh"
#include "data/splits.hh"
#include "data/tu_dataset.hh"
#include "device/cost_model.hh"
#include "device/device.hh"
#include "device/profiler.hh"
#include "device/timeline.hh"
#include "ir/ir.hh"
#include "models/model_factory.hh"
#include "nn/loss.hh"
#include "nn/lr_scheduler.hh"
#include "nn/optimizer.hh"
#include "obs/exec_trace.hh"
#include "obs/spans.hh"
#include "obs/stats.hh"
#include "parallel/thread_pool.hh"

using namespace gnnperf;

namespace {

/**
 * The workloads. Each is one closed-loop trainer fed by one process.
 * The ENZYMES sessions are long because their steady epochs are
 * bimodal: the caching allocator's epoch-boundary trim makes about one
 * epoch in three re-reserve a few hundred MB (~100k page faults), so
 * the epoch median needs eight or more epochs to hold still. PubMed's
 * epochs are short, so its sessions are short and a run holds several,
 * giving a median of its one-per-session set-up. An ENZYMES set-up takes
 * ~15 ms, and the host's speed shifts by up to 30% over windows of that
 * length, so a handful of repeats lands in whichever mode the host is
 * in; sixty repeats make the median rest on about a second of work.
 */
struct Workload
{
    const char *name;
    bool nodeTask;
    FrameworkKind framework;
    ModelKind model;
    ir::IrMode irMode;
    int epochs;      ///< trainer epochs per session (first is warm-up)
    int setupReps;   ///< input generations per session
    double sessionS; ///< nominal session wall-clock on the reference host
};

const Workload kWorkloads[] = {
    {"enzymes-gatedgcn-dgl", false, FrameworkKind::DGL,
     ModelKind::GatedGCN, ir::IrMode::Eager, 9, 60, 32.0},
    {"pubmed-gat-dgl", true, FrameworkKind::DGL, ModelKind::GAT,
     ir::IrMode::Eager, 20, 1, 4.5},
    {"enzymes-gatedgcn-pyg-ir", false, FrameworkKind::PyG,
     ModelKind::GatedGCN, ir::IrMode::Graph, 16, 60, 32.0},
};

/** Pool width; on a shared 4-vCPU host four threads spread twice as much. */
constexpr int kThreads = 2;
constexpr int64_t kBatchSize = 128;    ///< Table V batch
constexpr int64_t kEnzymesGraphs = 600;
constexpr int kFolds = 10;             ///< Table V: fold 0 of 10

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
spin(double ms)
{
    const double until = nowS() + ms * 1e-3;
    while (nowS() < until) {
    }
}

struct Usage
{
    double cpuS = 0.0;
    long minorFaults = 0;
    double maxRssMb = 0.0;
};

Usage
usage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpuS = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec +
                                 ru.ru_stime.tv_usec) * 1e-6;
    u.minorFaults = ru.ru_minflt;
    u.maxRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return u;
}

/** The generated inputs of one session. */
struct Inputs
{
    GraphDataset graphs;
    FoldSplit fold;
    NodeDataset nodes;
    int64_t numClasses = 0;
    int64_t trainSamples = 0;  ///< graphs (graph task) or nodes per epoch
};

Inputs
generate(const Workload &w, uint64_t seed)
{
    Inputs in;
    if (w.nodeTask) {
        in.nodes = makePubMed(seed);
        in.numClasses = in.nodes.numClasses;
        in.trainSamples = in.nodes.graph.numNodes;
    } else {
        in.graphs = makeEnzymes(seed, kEnzymesGraphs);
        in.fold = stratifiedKFold(in.graphs.labels(), kFolds, seed)[0];
        in.numClasses = in.graphs.numClasses;
        in.trainSamples = static_cast<int64_t>(in.fold.train.size());
    }
    return in;
}

/** What a session trained; equal fingerprints mean equal programs. */
struct Fingerprint
{
    int epochsRun = 0;
    double valMetric = 0.0;  ///< final val loss (graph), best val acc (node)
    double testAccuracy = 0.0;
};

/**
 * Output checks shared by both session kinds; "" when they pass. On the
 * node task the validation metric is an accuracy, a ratio of counts that
 * is finite even when the logits are not, so there only the above-chance
 * check catches a diverged run; traced node sessions also check the final
 * training loss (runTracedNode).
 */
std::string
checkOutputs(const Fingerprint &fp, const Inputs &in)
{
    if (fp.epochsRun < 2)
        return "no timed epoch";
    if (!std::isfinite(fp.valMetric))
        return "final validation metric not finite";
    if (!(fp.testAccuracy > 1.0 / static_cast<double>(in.numClasses)))
        return "test accuracy not above chance";
    return "";
}

/** One flat JSON object of numbers, strings and number lists. */
class JsonLine
{
  public:
    JsonLine() { doc_.type = JsonValue::Type::Object; }

    void num(const char *key, double v) { add(key, number(v)); }

    void
    str(const char *key, const std::string &v)
    {
        JsonValue j;
        j.type = JsonValue::Type::String;
        j.str = v;
        add(key, std::move(j));
    }

    void
    list(const char *key, const std::vector<double> &vs)
    {
        add(key, array(vs));
    }

    void
    table(const char *key,
          const std::map<std::string, std::vector<double>> &series)
    {
        JsonValue j;
        j.type = JsonValue::Type::Object;
        for (const auto &[name, vs] : series)
            j.object.emplace_back(name, array(vs));
        add(key, std::move(j));
    }

    void
    print() const
    {
        std::printf("%s\n", jsonToString(doc_).c_str());
        std::fflush(stdout);
    }

  private:
    /** A number, or null when not finite (JSON has no NaN). */
    static JsonValue
    number(double v)
    {
        JsonValue j;
        if (std::isfinite(v)) {
            j.type = JsonValue::Type::Number;
            j.number = v;
        }
        return j;
    }

    static JsonValue
    array(const std::vector<double> &vs)
    {
        JsonValue j;
        j.type = JsonValue::Type::Array;
        for (double v : vs)
            j.array.push_back(number(v));
        return j;
    }

    void
    add(const char *key, JsonValue v)
    {
        doc_.object.emplace_back(key, std::move(v));
    }

    JsonValue doc_;
};

// ---------------------------------------------------------------- untraced

struct UntracedResult
{
    Fingerprint fp;
    double firstEpochS = 0.0;
    std::vector<double> epochS;  ///< timed epochs (every epoch after the first)
};

UntracedResult
runUntraced(const Workload &w, const Inputs &in, uint64_t seed,
            double plant_ms)
{
    std::vector<double> marks;
    TrainOptions opts;
    opts.maxEpochs = w.epochs;
    opts.batchSize = kBatchSize;
    opts.seed = seed;
    opts.traceObserver = [&](const Trace &,
                             const std::vector<std::string> &) {
        if (plant_ms > 0.0)
            spin(plant_ms);
        marks.push_back(nowS());
    };

    const Backend &backend = getBackend(w.framework);
    UntracedResult r;
    const double start = nowS();
    if (w.nodeTask) {
        NodeTrainResult t = trainNodeTask(w.model, backend, in.nodes,
                                          opts);
        r.fp = {t.epochsRun, t.bestValAccuracy, t.testAccuracy};
    } else {
        GraphTrainResult t = trainGraphTask(w.model, backend, in.graphs,
                                            in.fold, opts);
        r.fp = {t.epochsRun, t.finalValLoss, t.testAccuracy};
    }
    if (!marks.empty())
        r.firstEpochS = marks[0] - start;
    for (std::size_t i = 1; i < marks.size(); ++i)
        r.epochS.push_back(marks[i] - marks[i - 1]);
    return r;
}

// ------------------------------------------------------------------ traced

/**
 * Times the benchmark-side wrappers around each public call of the
 * traced epoch, in seconds, and plants the optional busy-wait.
 */
class LayerClock
{
  public:
    LayerClock(std::string plant_layer, double plant_ms)
        : plantLayer_(std::move(plant_layer)), plantMs_(plant_ms)
    {}

    template <typename Fn>
    void
    time(const char *layer, Fn &&fn)
    {
        const double t0 = nowS();
        fn();
        if (plantMs_ > 0.0 && plantLayer_ == layer)
            spin(plantMs_);
        add(layer, nowS() - t0);
    }

    void add(const char *layer, double s) { seconds_[layer] += s; }

    /** Seconds per layer since the last take(); resets them. */
    std::map<std::string, double>
    take()
    {
        std::map<std::string, double> out;
        out.swap(seconds_);
        return out;
    }

  private:
    std::string plantLayer_;
    double plantMs_;
    std::map<std::string, double> seconds_;
};

/** Benchmark-side layer spans; their sum over the epoch is coverage. */
const char *const kLayerSpans[] = {
    "data.next",  "models.forward", "nn.loss",       "autograd.backward",
    "nn.adam_step", "ir.scope_exit", "core.eval",   "device.replay",
    "device.trim",
};

/**
 * Library spans summed into per-layer kernel times; fused IR groups
 * ("fuse:...") go to ir.fused_s. Spans exist only for pooled launches:
 * a launch small enough to run inline on the caller records none.
 */
const std::map<std::string, std::string> kKernelBuckets = {
    {"par.sgemm", "tensor.sgemm_s"},
    {"par.sgemm_nt", "tensor.sgemm_nt_s"},
    {"par.sgemm_tn", "tensor.sgemm_tn_s"},
    {"par.edge_softmax", "graph.edge_softmax_s"},
    {"par.edge_softmax_bwd", "graph.edge_softmax_s"},
    {"par.spmm_sum", "graph.spmm_s"},
    {"par.spmm_mean", "graph.spmm_s"},
    {"par.spmm_max", "graph.spmm_s"},
    {"par.spmm_u_mul_e", "graph.spmm_s"},
    {"par.sddmm_dot", "graph.sddmm_s"},
    {"par.gather_rows", "graph.gather_scatter_s"},
    {"par.scatter_add", "graph.gather_scatter_s"},
    {"par.scatter_max", "graph.gather_scatter_s"},
    {"par.scatter_max_fill", "graph.gather_scatter_s"},
    {"par.segment_reduce", "graph.gather_scatter_s"},
    {"par.segment_bcast", "graph.gather_scatter_s"},
    {"ir.plan", "ir.plan_s"},
};

/** Stats counters read as per-epoch deltas in the traced session. */
const char *const kCounters[] = {
    "parallel.launches", "parallel.tasks",   "parallel.steals",
    "parallel.barrier_waits", "ir.recorded_ops", "ir.launches_saved",
};

/** Per-epoch snapshot of the process-level counters. */
struct Counters
{
    std::map<std::string, double> stats;
    MemoryStats mem;
    Usage use;

    static Counters
    read()
    {
        Counters c;
        for (const char *name : kCounters)
            c.stats[name] = static_cast<double>(
                stats::counter(name).value());
        c.mem = DeviceManager::instance().stats(DeviceKind::Cuda);
        c.use = usage();
        return c;
    }
};

/** Records one traced epoch into the per-layer series. */
class EpochRecorder
{
  public:
    void
    begin()
    {
        SpanTracer::instance().reset();
        before_ = Counters::read();
        start_ = nowS();
    }

    void
    end(LayerClock &clock, int64_t batches)
    {
        const double wall = nowS() - start_;
        const Counters after = Counters::read();
        const auto layers = clock.take();

        std::map<std::string, double> m;
        double covered = 0.0;
        for (const char *span : kLayerSpans) {
            auto it = layers.find(span);
            const double s = it == layers.end() ? 0.0 : it->second;
            covered += s;
            m[std::string(span) + "_s"] = s;
        }
        m["epoch_s"] = wall;
        m["trace.span_coverage"] = covered / wall;
        m["data.batches"] = static_cast<double>(batches);

        SpanTracer &tracer = SpanTracer::instance();
        const std::vector<std::string> names = tracer.names();
        for (const auto &[span, bucket] : kKernelBuckets)
            m[bucket] = 0.0;
        m["ir.fused_s"] = 0.0;
        m["ir.flushes"] = 0.0;
        for (const SpanRecord &rec : tracer.snapshot()) {
            const std::string &name =
                names[static_cast<std::size_t>(rec.nameId)];
            auto it = kKernelBuckets.find(name);
            if (it != kKernelBuckets.end())
                m[it->second] += rec.durUs * 1e-6;
            else if (name.rfind("fuse:", 0) == 0)
                m["ir.fused_s"] += rec.durUs * 1e-6;
            if (name == "ir.plan")
                m["ir.flushes"] += 1.0;
        }
        m["trace.dropped_spans"] =
            static_cast<double>(tracer.droppedCount());

        auto delta = [&](const char *name) {
            return after.stats.at(name) - before_.stats.at(name);
        };
        m["parallel.launches"] = delta("parallel.launches");
        m["parallel.tasks"] = delta("parallel.tasks");
        m["parallel.steals"] = delta("parallel.steals");
        m["parallel.steal_ratio"] =
            delta("parallel.tasks") > 0.0
                ? delta("parallel.steals") / delta("parallel.tasks") : 0.0;
        m["parallel.barrier_waits"] = delta("parallel.barrier_waits");
        m["parallel.busy_share"] =
            (after.use.cpuS - before_.use.cpuS) / (wall * kThreads);
        m["ir.recorded_ops"] = delta("ir.recorded_ops");
        m["ir.launches_saved"] = delta("ir.launches_saved");
        m["ir.saved_ratio"] =
            delta("ir.recorded_ops") > 0.0
                ? delta("ir.launches_saved") / delta("ir.recorded_ops")
                : 0.0;

        const double acquires = static_cast<double>(
            after.mem.acquireCount - before_.mem.acquireCount);
        m["device.acquires"] = acquires;
        m["device.backing_allocs"] = static_cast<double>(
            after.mem.allocCount - before_.mem.allocCount);
        m["device.cache_hit_ratio"] =
            acquires > 0.0
                ? static_cast<double>(after.mem.cacheHits -
                                      before_.mem.cacheHits) / acquires
                : 0.0;
        m["device.reserved_peak_mb"] =
            static_cast<double>(after.mem.reservedPeak) / (1 << 20);
        m["device.logical_peak_mb"] =
            static_cast<double>(after.mem.peakBytes) / (1 << 20);
        m["process.minor_faults"] = static_cast<double>(
            after.use.minorFaults - before_.use.minorFaults);

        for (const auto &[name, v] : m)
            series[name].push_back(v);
    }

    /** Per-epoch values by metric name, first (warm-up) epoch included. */
    std::map<std::string, std::vector<double>> series;

  private:
    Counters before_;
    double start_ = 0.0;
};

/** evaluateLoader of the trainer: mean loss and accuracy. */
std::pair<double, double>
evaluate(GnnModel &model, DataLoader &loader)
{
    stats::counter("trainer.evals").inc();
    NoGradGuard no_grad;
    PhaseScope phase(Phase::Evaluation);
    model.train(false);
    loader.startEpoch();
    BatchedGraph batch;
    double loss_sum = 0.0;
    double correct = 0.0;
    int64_t total = 0;
    while (loader.next(batch)) {
        Var logits = model.forward(batch);
        Var loss = nn::crossEntropy(logits, batch.graphLabels);
        const auto n = static_cast<int64_t>(batch.graphLabels.size());
        loss_sum += loss.item() * static_cast<double>(n);
        correct += accuracy(logits.value(), batch.graphLabels) *
                   static_cast<double>(n);
        total += n;
    }
    model.train(true);
    if (total == 0)
        return {0.0, 0.0};
    return {loss_sum / static_cast<double>(total),
            correct / static_cast<double>(total)};
}

/** The trainer's epoch tail: replay, roll the stats epoch. */
void
replayEpoch(const Backend &backend, LayerClock &clock)
{
    clock.time("device.replay", [&] {
        Profiler &prof = Profiler::instance();
        Timeline::replay(prof.trace(), CostModel::defaultModel(),
                         backend.dispatchOverhead(), prof.layerNames());
        ExecTrace::instance().captureSimulated(
            prof.trace(), backend.dispatchOverhead(), backend.name());
        prof.clearTrace();
    });
    stats::counter("trainer.epochs").inc();
    stats::Registry::instance().rollEpoch();
}

/** The trainer's preamble: profiler on, pools emptied, peaks reset. */
void
resetDevice()
{
    Profiler &prof = Profiler::instance();
    prof.reset();
    prof.setEnabled(true);
    DeviceManager::instance().emptyCaches();
    DeviceManager::instance().resetPeak(DeviceKind::Cuda);
}

/** A training step's outputs. */
struct StepVars
{
    Var logits;
    Var loss;
};

/**
 * One training step, timed call by call; mirrors the trainer. The graph
 * trainer drops the step's outputs inside the iteration scope; the node
 * trainer holds them until the end of the epoch, which `held` mirrors.
 */
template <typename LossFn>
void
trainStep(GnnModel &model, nn::Adam &optimizer, BatchedGraph &batch,
          LayerClock &clock, LossFn &&loss_of, StepVars *held = nullptr)
{
    double tail = 0.0;
    {
        ir::IterationScope iteration;
        StepVars local;
        Var &logits = held ? held->logits : local.logits;
        Var &loss = held ? held->loss : local.loss;
        clock.time("models.forward", [&] {
            PhaseScope phase(Phase::Forward);
            logits = model.forward(batch);
        });
        clock.time("nn.loss", [&] {
            PhaseScope phase(Phase::Other);
            loss = loss_of(logits);
        });
        clock.time("autograd.backward", [&] {
            PhaseScope phase(Phase::Backward);
            model.zeroGrad();
            loss.backward();
        });
        clock.time("nn.adam_step", [&] {
            PhaseScope phase(Phase::Update);
            optimizer.step();
        });
        tail = nowS();
    }
    // Releasing the tape, and in graph mode the scope's final flush.
    clock.add("ir.scope_exit", nowS() - tail);
}

struct TracedResult
{
    Fingerprint fp;
    double coreInitS = 0.0;
    double finalTrainLoss = 0.0;  ///< node task only
    EpochRecorder epochs;
};

TracedResult
runTracedGraph(const Workload &w, const Inputs &in, uint64_t seed,
               LayerClock &clock)
{
    const Backend &backend = getBackend(w.framework);
    TracedResult r;
    const double t0 = nowS();
    resetDevice();
    Hyperparameters hp = graphTaskHyperparameters(
        w.model, in.graphs.numFeatures, in.graphs.numClasses, seed);
    auto model = makeModel(w.model, backend, hp.model);
    nn::Adam optimizer(model->parameters(), hp.train.lr);
    nn::ReduceLROnPlateau scheduler(optimizer, hp.train.lrFactor,
                                    hp.train.lrPatience, hp.train.minLr);
    DataLoader train_loader(in.graphs, in.fold.train, kBatchSize, backend,
                            /*shuffle=*/true, seed);
    DataLoader val_loader(in.graphs, in.fold.val, kBatchSize, backend,
                          /*shuffle=*/false, seed + 1);
    DataLoader test_loader(in.graphs, in.fold.test, kBatchSize, backend,
                           /*shuffle=*/false, seed + 2);
    r.coreInitS = nowS() - t0;

    for (int epoch = 0; epoch < w.epochs; ++epoch) {
        r.epochs.begin();
        int64_t batches = 0;
        clock.time("data.next", [&] { train_loader.startEpoch(); });
        BatchedGraph batch;
        for (;;) {
            bool more = false;
            clock.time("data.next",
                       [&] { more = train_loader.next(batch); });
            if (!more)
                break;
            ++batches;
            trainStep(*model, optimizer, batch, clock, [&](const Var &l) {
                return nn::crossEntropy(l, batch.graphLabels);
            });
        }
        double val_loss = 0.0;
        clock.time("core.eval", [&] {
            val_loss = evaluate(*model, val_loader).first;
        });
        scheduler.step(val_loss);
        r.fp.valMetric = val_loss;
        replayEpoch(backend, clock);
        ++r.fp.epochsRun;
        clock.time("device.trim",
                   [] { DeviceManager::instance().trimCaches(); });
        r.epochs.end(clock, batches);
        if (scheduler.shouldStop())
            break;
    }
    r.fp.testAccuracy = evaluate(*model, test_loader).second;
    Profiler::instance().clearTrace();
    return r;
}

TracedResult
runTracedNode(const Workload &w, const Inputs &in, uint64_t seed,
              LayerClock &clock)
{
    const Backend &backend = getBackend(w.framework);
    TracedResult r;
    const double t0 = nowS();
    resetDevice();
    Hyperparameters hp = nodeTaskHyperparameters(
        w.model, in.nodes.numFeatures, in.nodes.numClasses, seed);
    auto model = makeModel(w.model, backend, hp.model);
    nn::Adam optimizer(model->parameters(), hp.train.lr);
    std::vector<const Graph *> members{&in.nodes.graph};
    BatchedGraph batch;
    {
        PhaseScope phase(Phase::DataLoading);
        batch = backend.collate(members);
    }
    Profiler::instance().clearTrace();
    r.coreInitS = nowS() - t0;

    double best_val = -1.0;
    double test_at_best = 0.0;
    int bad_epochs = 0;
    for (int epoch = 0; epoch < w.epochs; ++epoch) {
        r.epochs.begin();
        StepVars step;
        trainStep(
            *model, optimizer, batch, clock,
            [&](const Var &l) {
                return nn::crossEntropy(l, batch.nodeLabels, batch.trainIdx);
            },
            &step);
        double val_acc = 0.0;
        double test_acc = 0.0;
        clock.time("core.eval", [&] {
            stats::counter("trainer.evals").inc();
            Tensor logits;
            {
                NoGradGuard no_grad;
                PhaseScope phase(Phase::Evaluation);
                model->train(false);
                logits = model->forward(batch).value();
                model->train(true);
            }
            val_acc = accuracy(logits, batch.nodeLabels, batch.valIdx);
            test_acc = accuracy(logits, batch.nodeLabels, batch.testIdx);
        });
        replayEpoch(backend, clock);
        ++r.fp.epochsRun;
        clock.time("device.trim",
                   [] { DeviceManager::instance().trimCaches(); });
        r.finalTrainLoss = step.loss.item();
        // The node trainer releases the step's tape at the end of the epoch.
        clock.time("ir.scope_exit", [&] { step = StepVars{}; });
        r.epochs.end(clock, 0);
        if (val_acc > best_val) {
            best_val = val_acc;
            test_at_best = test_acc;
            bad_epochs = 0;
        } else if (hp.train.earlyStopPatience > 0 &&
                   ++bad_epochs > hp.train.earlyStopPatience) {
            break;
        }
    }
    r.fp.valMetric = best_val;
    r.fp.testAccuracy = test_at_best;
    return r;
}

// -------------------------------------------------------------------- main

const char *
irModeName(ir::IrMode m)
{
    return m == ir::IrMode::Graph ? "graph" : "eager";
}

[[noreturn]] void
usageError(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_session: %s\nusage: perfbench_session "
                 "--workload NAME --seed N --trace 0|1 [--plant-ms MS] "
                 "[--plant-layer LAYER]\n", msg);
    std::exit(2);
}

double
parseNumber(const char *flag, const char *text)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v) || v < 0.0)
        usageError((std::string("bad value for ") + flag).c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    const Workload *w = nullptr;
    uint64_t seed = 0;
    bool have_seed = false;
    int trace = -1;
    double plant_ms = 0.0;
    std::string plant_layer;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usageError(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload") {
            for (const Workload &c : kWorkloads)
                if (std::strcmp(c.name, value) == 0)
                    w = &c;
            if (w == nullptr)
                usageError("unknown workload");
        } else if (flag == "--seed") {
            seed = static_cast<uint64_t>(parseNumber("--seed", value));
            have_seed = true;
        } else if (flag == "--trace") {
            trace = static_cast<int>(parseNumber("--trace", value));
            if (trace != 0 && trace != 1)
                usageError("--trace takes 0 or 1");
        } else if (flag == "--plant-ms") {
            plant_ms = parseNumber("--plant-ms", value);
        } else if (flag == "--plant-layer") {
            plant_layer = value;
        } else {
            usageError(("unknown flag " + flag).c_str());
        }
    }
    if (w == nullptr || !have_seed || trace < 0)
        usageError("--workload, --seed and --trace are required");

    // Pin the mode through public calls so inherited GNNPERF_THREADS,
    // _IR, _ALLOCATOR or _CHECKS cannot change what a workload runs.
    par::ThreadPool::instance().setNumThreads(kThreads);
    ir::setMode(w->irMode);
    DeviceManager::instance().setAllocator(AllocatorKind::Caching);
    setChecksEnabled(false);
    stats::setSamplingEnabled(trace == 1);
    SpanTracer::instance().setEnabled(false);

    JsonLine out;
    out.str("workload", w->name);
    out.num("threads", par::ThreadPool::instance().numThreads());
    out.str("ir", irModeName(ir::mode()));
    out.str("allocator",
            DeviceManager::instance().allocatorKind(DeviceKind::Cuda) ==
                    AllocatorKind::Caching
                ? "caching" : "direct");
    out.num("checks", checksEnabled() ? 1 : 0);
    out.num("trace", trace);
    out.num("session_s", w->sessionS);

    std::string failure;
    try {
        // Set-up: the library calls that make the trainer's inputs,
        // repeated; the last inputs are used.
        std::vector<double> setup_s;
        Inputs in;
        for (int rep = 0; rep < w->setupReps; ++rep) {
            in = Inputs{};
            const double t0 = nowS();
            in = generate(*w, seed);
            setup_s.push_back(nowS() - t0);
        }
        out.list("setup_s", setup_s);
        out.num("train_samples", static_cast<double>(in.trainSamples));

        Fingerprint fp;
        if (trace == 0) {
            UntracedResult r = runUntraced(*w, in, seed, plant_ms);
            fp = r.fp;
            out.num("first_epoch_s", r.firstEpochS);
            out.list("epoch_s", r.epochS);
        } else {
            SpanTracer::instance().setEnabled(true);
            LayerClock clock(plant_layer, plant_ms);
            TracedResult r = w->nodeTask
                                 ? runTracedNode(*w, in, seed, clock)
                                 : runTracedGraph(*w, in, seed, clock);
            SpanTracer::instance().setEnabled(false);
            fp = r.fp;
            if (!std::isfinite(r.finalTrainLoss))
                failure = "final training loss not finite";
            r.epochs.series["core.init_s"] = {r.coreInitS};
            r.epochs.series["data.generate_s"] = setup_s;
            out.table("layers", r.epochs.series);
        }
        out.num("epochs_run", fp.epochsRun);
        out.num("val_metric", fp.valMetric);
        out.num("test_accuracy", fp.testAccuracy);
        out.num("chance", 1.0 / static_cast<double>(in.numClasses));
        if (failure.empty())
            failure = checkOutputs(fp, in);
    } catch (const std::exception &e) {
        failure = std::string("trainer threw: ") + e.what();
    }
    out.num("peak_rss_mb", usage().maxRssMb);
    out.str("failure", failure);
    out.print();
    return 0;
}
