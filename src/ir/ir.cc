#include "ir/ir.hh"

#include <thread>
#include <utility>

#include "common/env.hh"
#include "common/logging.hh"
#include "device/profiler.hh"
#include "ir/executor.hh"
#include "ir/fusion.hh"
#include "ir/op_graph.hh"
#include "ir/planner.hh"
#include "obs/stats.hh"

namespace gnnperf {
namespace ir {

namespace {

IrMode g_mode = IrMode::Eager;
bool g_modeResolved = false;

bool g_scopeActive = false;
std::thread::id g_owner;
bool g_flushing = false;

IrCounters g_counters;

OpGraph &
graph()
{
    static OpGraph *g = new OpGraph();  // lint:allow leaked singleton
    return *g;
}

/** Capture a ValRef into the graph's value table. */
int32_t
internValue(OpGraph &g, const ValRef &ref)
{
    if (ref.slot >= 0) {
        gnnperf_assert(static_cast<std::size_t>(ref.slot) <
                       g.values.size(), "ir: bad pending slot ",
                       ref.slot);
        return ref.slot;
    }
    gnnperf_assert(ref.tensor != nullptr && ref.tensor->defined(),
                   "ir: record on undefined input tensor");
    Value v;
    v.shape = ref.tensor->shape();
    v.device = ref.tensor->device();
    v.tensor = *ref.tensor;  // shared storage, no copy
    g.values.push_back(std::move(v));
    return static_cast<int32_t>(g.values.size() - 1);
}

/** Append a node and its output value; returns the output slot. */
Result
pushNode(OpGraph &g, OpNode node, std::vector<int64_t> out_shape,
         DeviceKind device)
{
    const Profiler &prof = Profiler::instance();
    node.phase = prof.phase();
    node.layer = prof.layer();
    Value out;
    out.shape = std::move(out_shape);
    out.device = device;
    out.producer = static_cast<int32_t>(g.nodes.size());
    node.out = static_cast<int32_t>(g.values.size());
    g.values.push_back(std::move(out));
    g.nodes.push_back(std::move(node));
    ++g_counters.recordedOps;
    static stats::Counter &recorded = stats::counter("ir.recorded_ops");
    recorded.inc();
    return Result::pending(g.nodes.back().out);
}

/** The input's tensor, flushing first if it is still pending. */
const Tensor &
concrete(const ValRef &ref)
{
    if (ref.slot >= 0)
        materializeAll();
    gnnperf_assert(ref.tensor != nullptr && ref.tensor->defined(),
                   "ir: op on undefined input tensor");
    return *ref.tensor;
}

} // namespace

IrMode
mode()
{
    if (!g_modeResolved) {
        g_mode = modeFromString(
            envString("GNNPERF_IR", "eager").c_str());
        g_modeResolved = true;
    }
    return g_mode;
}

void
setMode(IrMode m)
{
    gnnperf_assert(!g_scopeActive,
                   "ir: cannot switch mode inside an IterationScope");
    g_mode = m;
    g_modeResolved = true;
}

IrMode
modeFromString(const char *s)
{
    const std::string v(s);
    if (v == "eager")
        return IrMode::Eager;
    if (v == "graph")
        return IrMode::Graph;
    gnnperf_panic("ir: unknown mode '", v, "' (want eager|graph)");
    return IrMode::Eager;
}

bool
recording()
{
    return g_scopeActive && !g_flushing &&
           std::this_thread::get_id() == g_owner;
}

std::size_t
pendingCount()
{
    return graph().nodes.size();
}

Result
unary(ops::EwUnary k, float param, ValRef a)
{
    if (!recording())
        return ops::ewUnary(concrete(a), k, param);
    OpGraph &g = graph();
    const int32_t av = internValue(g, a);
    const Value &in = g.values[static_cast<std::size_t>(av)];
    std::vector<int64_t> shape = in.shape;
    const DeviceKind device = in.device;
    const double n = static_cast<double>(in.numel());
    OpNode node;
    node.kind = OpKind::Unary;
    node.ukind = k;
    node.param = param;
    node.a = av;
    node.name = ops::ewUnaryName(k);
    node.flops = ops::ewUnaryFlops(k) * n;
    node.bytes = 2.0 * n * sizeof(float);
    return pushNode(g, std::move(node), std::move(shape), device);
}

Result
binary(ops::EwBinary k, ValRef a, ValRef b)
{
    if (!recording())
        return ops::ewBinary(concrete(a), concrete(b), k);
    OpGraph &g = graph();
    const int32_t av = internValue(g, a);
    const int32_t bv = internValue(g, b);
    const Value &ia = g.values[static_cast<std::size_t>(av)];
    const Value &ib = g.values[static_cast<std::size_t>(bv)];
    gnnperf_assert(ia.shape == ib.shape, ops::ewBinaryName(k),
                   ": shape mismatch in recorded op");
    std::vector<int64_t> shape = ia.shape;
    const DeviceKind device = ia.device;
    const double n = static_cast<double>(ia.numel());
    OpNode node;
    node.kind = OpKind::Binary;
    node.bkind = k;
    node.a = av;
    node.b = bv;
    node.name = ops::ewBinaryName(k);
    node.flops = ops::ewBinaryFlops(k) * n;
    node.bytes = 3.0 * n * sizeof(float);
    return pushNode(g, std::move(node), std::move(shape), device);
}

Result
gather(ValRef src, const Index &idx)
{
    if (!recording())
        return ops::gatherRows(concrete(src), *idx);
    OpGraph &g = graph();
    const int32_t sv = internValue(g, src);
    const Value &in = g.values[static_cast<std::size_t>(sv)];
    gnnperf_assert(in.shape.size() == 2, "gatherRows on rank ",
                   in.shape.size());
    const int64_t rows = in.shape[0], f = in.shape[1];
    const int64_t e = static_cast<int64_t>(idx->size());
    // Validate at record time: same panic the eager kernel raises at
    // launch time, just earlier.
    for (int64_t i = 0; i < e; ++i) {
        const int64_t r = (*idx)[static_cast<std::size_t>(i)];
        gnnperf_assert(r >= 0 && r < rows, "gatherRows: index ", r,
                       " out of ", rows);
    }
    OpNode node;
    node.kind = OpKind::Gather;
    node.idx = idx;
    node.a = sv;
    node.name = "gather_rows";
    node.flops = 0.0;
    node.bytes = 2.0 * static_cast<double>(e * f) * sizeof(float);
    return pushNode(g, std::move(node), {e, f}, in.device);
}

Result
scatterAdd(ValRef src, const Index &idx, int64_t num_rows)
{
    if (!recording())
        return ops::scatterAddRows(concrete(src), *idx, num_rows);
    OpGraph &g = graph();
    const int32_t sv = internValue(g, src);
    const Value &in = g.values[static_cast<std::size_t>(sv)];
    gnnperf_assert(in.shape.size() == 2, "scatterAddRows on rank ",
                   in.shape.size());
    gnnperf_assert(static_cast<int64_t>(idx->size()) == in.shape[0],
                   "scatterAddRows: ", idx->size(), " indices for ",
                   in.shape[0], " rows");
    const int64_t f = in.shape[1];
    for (int64_t r : *idx)
        gnnperf_assert(r >= 0 && r < num_rows, "scatterAddRows: index ",
                       r, " out of ", num_rows);
    const double src_bytes =
        static_cast<double>(in.numel()) * sizeof(float);
    OpNode node;
    node.kind = OpKind::ScatterAdd;
    node.idx = idx;
    node.a = sv;
    node.name = "scatter_add";
    node.flops = static_cast<double>(in.numel());
    node.bytes = 2.0 * src_bytes +
                 static_cast<double>(num_rows * f) * sizeof(float);
    return pushNode(g, std::move(node), {num_rows, f}, in.device);
}

Index
sharedIndex(const std::vector<int64_t> &idx)
{
    if (!recording())
        return std::make_shared<const std::vector<int64_t>>(idx);
    OpGraph &g = graph();
    for (const auto &[addr, vec] : g.idxCache) {
        if (addr == static_cast<const void *>(&idx) && *vec == idx)
            return vec;
    }
    auto copy = std::make_shared<const std::vector<int64_t>>(idx);
    g.idxCache.emplace_back(static_cast<const void *>(&idx), copy);
    return copy;
}

void
bindSink(int32_t slot, std::function<void(Tensor)> sink)
{
    OpGraph &g = graph();
    gnnperf_assert(slot >= 0 &&
                   static_cast<std::size_t>(slot) < g.values.size(),
                   "ir: bindSink on bad slot ", slot);
    g.values[static_cast<std::size_t>(slot)].sink = std::move(sink);
}

const std::vector<int64_t> &
shapeOf(int32_t slot)
{
    OpGraph &g = graph();
    gnnperf_assert(slot >= 0 &&
                   static_cast<std::size_t>(slot) < g.values.size(),
                   "ir: shapeOf on bad slot ", slot);
    return g.values[static_cast<std::size_t>(slot)].shape;
}

const IrCounters &
counters()
{
    return g_counters;
}

void
materializeAll()
{
    OpGraph &g = graph();
    if (g.nodes.empty())
        return;
    gnnperf_assert(!g_flushing, "ir: re-entrant flush");
    g_flushing = true;

    const std::vector<FusionGroup> groups = fuse(g);
    static stats::Counter &fused = stats::counter("ir.fused_launches");
    static stats::Counter &saved = stats::counter("ir.launches_saved");
    for (const FusionGroup &grp : groups) {
        if (grp.nodeIds.size() < 2)
            continue;
        ++g_counters.fusedLaunches;
        fused.inc();
        const uint64_t s =
            static_cast<uint64_t>(grp.nodeIds.size()) - 1;
        g_counters.launchesSaved += s;
        saved.inc(s);
    }

    planAllocations(g);
    execute(g, groups);

    // Deliver every output to its consumer, then drop the segment.
    for (Value &v : g.values) {
        if (v.sink)
            v.sink(std::move(v.tensor));
    }
    g.clear();
    g_flushing = false;
}

IterationScope::IterationScope()
    : active_(mode() == IrMode::Graph)
{
    if (!active_)
        return;
    gnnperf_assert(!g_scopeActive, "ir: nested IterationScope");
    g_scopeActive = true;
    g_owner = std::this_thread::get_id();
}

IterationScope::~IterationScope()
{
    if (!active_)
        return;
    materializeAll();
    g_scopeActive = false;
}

} // namespace ir
} // namespace gnnperf
