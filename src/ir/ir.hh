/**
 * @file
 * Recorded op-graph IR: the record-then-execute dispatch path.
 *
 * Eager dispatch launches every kernel at call time. In graph mode
 * (`--ir=graph` / `GNNPERF_IR=graph`) the autograd wrappers instead
 * *record* the gather / elementwise / scatter-add launches of one
 * training iteration into an OpGraph (nodes = kernel launches with
 * their cost-model descriptors, edges = tensor def/use) and defer
 * execution until a recorded value is actually read. A flush then
 * runs three phases over the pending segment:
 *
 *   1. fusion (src/ir/fusion.hh): maximal gather→elementwise→scatter
 *      chains collapse into single registered fused launches;
 *   2. memory planning (src/ir/planner.hh): every node output of the
 *      segment is placed through the active device allocator before
 *      any kernel runs;
 *   3. execution (src/ir/executor.hh): fused groups run as one
 *      ThreadPool launch each, singleton nodes replay through the
 *      exact eager `Into` kernels — graph mode is bit-identical to
 *      eager at every thread width.
 *
 * This layer knows nothing about autograd: consumers hand it shapes,
 * tensors and a type-erased sink per recorded value. The tape
 * (autograd/variable.cc) flushes on value access and repoints its
 * nodes via those sinks.
 *
 * Recording is confined to the thread that opened the current
 * IterationScope (trainers wrap each forward+backward+update block in
 * one); every other thread, and any code outside a scope — eval,
 * inference, dataset prep — takes the unchanged eager path.
 */

#ifndef GNNPERF_IR_IR_HH
#define GNNPERF_IR_IR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/ops.hh"
#include "tensor/tensor.hh"

namespace gnnperf {
namespace ir {

/** Dispatch path selector (GNNPERF_IR; --ir on `gnnperf run` wins). */
enum class IrMode
{
    Eager,
    Graph,
};

/** Active mode; first call resolves GNNPERF_IR, default eager. */
IrMode mode();

/** Override the mode (CLI flag, tests). */
void setMode(IrMode m);

/** Parse "eager" / "graph"; panics on anything else. */
IrMode modeFromString(const char *s);

/**
 * True when ops should record instead of execute: graph mode, an
 * IterationScope is open, and the caller is the scope's owner thread.
 */
bool recording();

/** Recorded-but-not-yet-executed node count (tests, diagnostics). */
std::size_t pendingCount();

/**
 * Reference to an op input: either a value already pending in the
 * recorded graph (slot >= 0) or a concrete tensor. The tensor pointer
 * is only read during the record call itself.
 */
struct ValRef
{
    int32_t slot = -1;
    const Tensor *tensor = nullptr;

    static ValRef pending(int32_t s)
    {
        ValRef r;
        r.slot = s;
        return r;
    }

    static ValRef concrete(const Tensor &t)
    {
        ValRef r;
        r.tensor = &t;
        return r;
    }
};

/** Record out = unary(a); returns the output's pending slot. */
int32_t recordUnary(ops::EwUnary k, float param, ValRef a);

/** Record out = a ∘ b (shapes must match). */
int32_t recordBinary(ops::EwBinary k, ValRef a, ValRef b);

/**
 * Record out[e] = src[idx[e]]. The index vector is interned once per
 * iteration (keyed on its address) and shared with the caller, so a
 * backward closure can hold the same copy.
 */
int32_t recordGather(ValRef src, const std::vector<int64_t> &idx);

/** Record out[idx[e]] += src[e] into `num_rows` fresh rows. */
int32_t recordScatterAdd(ValRef src, const std::vector<int64_t> &idx,
                         int64_t num_rows);

/** The interned copy of the last index vector passed for `idx`. */
std::shared_ptr<const std::vector<int64_t>>
internedIndex(const std::vector<int64_t> &idx);

/**
 * Attach the consumer's completion callback to a pending slot; called
 * exactly once, during the flush, with the materialized tensor.
 */
void bindSink(int32_t slot, std::function<void(Tensor)> sink);

/** Shape of a pending value (no flush). */
const std::vector<int64_t> &shapeOf(int32_t slot);

/**
 * Flush: fuse, plan and execute every pending node, deliver all sinks,
 * clear the graph. No-op when nothing is pending.
 */
void materializeAll();

/**
 * Cumulative dispatch accounting for the `ir.*` BENCH series
 * (docs/OBSERVABILITY.md).
 */
struct IrCounters
{
    uint64_t recordedOps = 0;   ///< nodes recorded (eager launches)
    uint64_t fusedLaunches = 0; ///< multi-node groups launched
    uint64_t launchesSaved = 0; ///< recorded ops minus actual launches
};

const IrCounters &counters();

/**
 * RAII bracket around one training iteration: opens recording for the
 * constructing thread in graph mode, flushes any leftover pending
 * nodes on destruction. Inert in eager mode. Must not nest.
 */
class IterationScope
{
  public:
    IterationScope();
    ~IterationScope();

    IterationScope(const IterationScope &) = delete;
    IterationScope &operator=(const IterationScope &) = delete;

  private:
    bool active_;
};

} // namespace ir
} // namespace gnnperf

#endif // GNNPERF_IR_IR_HH
