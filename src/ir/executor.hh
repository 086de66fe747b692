/**
 * @file
 * Replay engine for the recorded op graph.
 *
 * Runs the fused groups in order through the existing ThreadPool.
 * Singleton groups replay the exact eager `Into` kernels (same launch
 * names, grains and KernelRecords); multi-node groups become one
 * registered fused launch each ("fused_gather_ew",
 * "fused_gather_ew_scatter", "fused_ew", "fused_ew_scatter") whose
 * per-row member chain calls the elementwise row core the eager
 * kernels use (ops::ewUnaryRow / ewBinaryRow) — bit-identical output
 * at every thread width.
 */

#ifndef GNNPERF_IR_EXECUTOR_HH
#define GNNPERF_IR_EXECUTOR_HH

#include <vector>

#include "ir/op_graph.hh"

namespace gnnperf {
namespace ir {

/**
 * Execute every group in order, filling each node output's tensor.
 * planAllocations(g) must have run first. Profiler phase/layer are
 * restamped per group from record-time values so the trace attributes
 * deferred launches to the layer that recorded them.
 */
void execute(OpGraph &g, const std::vector<FusionGroup> &groups);

/**
 * Run one group as a single fused row launch. execute() uses it for
 * groups of two or more; tests call it on one-member groups to check
 * that a fused row matches the eager kernel.
 */
void executeFused(OpGraph &g, const FusionGroup &grp);

} // namespace ir
} // namespace gnnperf

#endif // GNNPERF_IR_EXECUTOR_HH
