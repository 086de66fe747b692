/**
 * @file
 * Recorded op-graph IR: the record-then-execute dispatch path.
 *
 * Eager dispatch launches every kernel at call time. In graph mode
 * (`--ir=graph` / `GNNPERF_IR=graph`) the gather / elementwise /
 * scatter-add launches of one training iteration are instead
 * *recorded* into an OpGraph (nodes = kernel launches with their
 * cost-model descriptors, edges = tensor def/use) and executed only
 * when a recorded value is actually read. A flush runs three phases
 * over the pending segment:
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
 * The record-or-run choice is made here and nowhere else: the four
 * entry points unary / binary / gather / scatterAdd return either a
 * pending slot or the tensor the kernel just produced (ir::Result),
 * and the autograd wrappers hand that to Var::makeOp unchanged.
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
 * Reference to an op input: its pending slot (-1 once concrete) and
 * its tensor. For a pending input `tensor` points at the storage the
 * slot's sink fills, so an op that runs now flushes first and then
 * reads it. The pointer is only read during the op call itself.
 */
struct ValRef
{
    int32_t slot = -1;
    const Tensor *tensor = nullptr;
};

/**
 * An op's output: a pending slot when the op was recorded, else the
 * concrete tensor its kernel produced. Converts implicitly from a
 * Tensor, so ops with no recorded form hand over their result as is.
 */
struct Result
{
    int32_t slot = -1;
    Tensor tensor;

    Result(Tensor t) : tensor(std::move(t)) {}

    static Result
    pending(int32_t s)
    {
        Result r{Tensor()};
        r.slot = s;
        return r;
    }

    bool isPending() const { return slot >= 0; }
};

/** An index vector shared by a gather/scatter and its backward. */
using Index = std::shared_ptr<const std::vector<int64_t>>;

// The four recordable op families. Each records the op when
// recording() is true and returns its pending slot; otherwise it runs
// the kernel now (ops::ewUnary, ewBinary, gatherRows, scatterAddRows)
// and returns the tensor. This is the only place the choice is made.

/** out = unary(a) elementwise. */
Result unary(ops::EwUnary k, float param, ValRef a);

/** out = a ∘ b elementwise (shapes must match). */
Result binary(ops::EwBinary k, ValRef a, ValRef b);

/** out[e] = src[idx[e]]. */
Result gather(ValRef src, const Index &idx);

/** out[idx[e]] += src[e] into `num_rows` fresh rows. */
Result scatterAdd(ValRef src, const Index &idx, int64_t num_rows);

/**
 * The one copy of `idx` an op and its backward closure share. When
 * recording it is interned per segment (keyed on the vector's
 * address), so every op on the same vector holds the same copy;
 * otherwise it is a fresh copy.
 */
Index sharedIndex(const std::vector<int64_t> &idx);

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
