#include "device/kernel_registry.hh"

#include <string_view>
#include <unordered_set>

#include "common/logging.hh"

namespace gnnperf {

namespace {

/**
 * Every kernel name the repo records, grouped by the file that emits
 * it. Keep alphabetical within each group; gnnperf_lint verifies the
 * record-call literals in src/ stay a subset of this table.
 */
const char *const kKernelNames[] = {
    // tensor/ops.cc — elementwise (forward and activation gradients)
    "add",
    "add_",
    "add_bias",
    "add_scalar",
    "axpy_",
    "div",
    "div_cols",
    "dropout",
    "elu",
    "elu_bwd",
    "exp",
    "leaky_relu",
    "leaky_relu_bwd",
    "log",
    "maximum",
    "mul",
    "mul_cols",
    "mul_rowvec",
    "mul_rowvec_bwd",
    "reciprocal",
    "relu",
    "relu_bwd",
    "scale",
    "sigmoid",
    "sigmoid_bwd",
    "sqrt",
    "square",
    "sub",
    "tanh",
    "tanh_bwd",
    // tensor/ops.cc — reductions, shapes, indexing
    "argmax",
    "col_sum",
    "col_var",
    "concat",
    "gather_rows",
    "log_softmax",
    "row_norm",
    "row_sum",
    "scatter_add",
    "slice_cols",
    "slice_rows",
    "softmax",
    "sum_all",
    "transpose",
    // tensor/matmul.cc
    "sgemm",
    "sgemm_nt",
    "sgemm_tn",
    // graph/spmm.cc
    "gsddmm_dot_uv",
    "gspmm_copy_u_max",
    "gspmm_copy_u_max_bwd",
    "gspmm_copy_u_mean",
    "gspmm_copy_u_sum",
    "gspmm_u_mul_e_sum",
    // graph/scatter.cc
    "index_count",
    "scatter_max",
    "scatter_max_bwd",
    // graph/segment.cc
    "segment_mean",
    "segment_mean_bwd",
    "segment_sum",
    "segment_sum_bwd",
    // graph/edge_softmax.cc
    "edge_softmax",
    "edge_softmax_bwd",
    // graph/batched_graph.cc
    "edge_pseudo",
    // autograd/functions.cc
    "row_sum_bwd",
    "slice_cols_bwd",
    // nn/
    "adam_update",
    "batch_norm",
    "batch_norm_bwd",
    "bn_eval_prep",
    "nll_loss",
    "nll_loss_bwd",
    // models/
    "attn_head_dot",
    "attn_head_dot_bwd_a",
    "attn_head_dot_bwd_x",
    "deg_inv_sqrt",
    // ir/executor.cc — fused launches (record-then-execute mode)
    "fused_ew",
    "fused_ew_scatter",
    "fused_gather_ew",
    "fused_gather_ew_scatter",
    // backends/
    "batch_num_nodes",
    "degree",
    "dgl_frame_init",
    "expand_heads",
    "expand_heads_bwd",
    "gspmm_copy_e_sum",
};

constexpr std::size_t kNumKernelNames =
    sizeof(kKernelNames) / sizeof(kKernelNames[0]);

const std::unordered_set<std::string_view> &
kernelNameSet()
{
    static const std::unordered_set<std::string_view> set(
        kKernelNames, kKernelNames + kNumKernelNames);
    return set;
}

} // namespace

const char *const *
registeredKernels()
{
    return kKernelNames;
}

std::size_t
numRegisteredKernels()
{
    return kNumKernelNames;
}

bool
kernelRegistered(const char *name)
{
    return kernelNameSet().count(std::string_view(name)) != 0;
}

void
assertKernelRegistered(const char *name)
{
    if (kernelRegistered(name))
        return;
    gnnperf_panic("kernel '", name,
                  "' is not in the kernel registry — add it to "
                  "src/device/kernel_registry.cc so the roofline, "
                  "diff and docs layers can see it");
}

} // namespace gnnperf
