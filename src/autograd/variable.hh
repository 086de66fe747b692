/**
 * @file
 * Reverse-mode automatic differentiation.
 *
 * A Var wraps a shared tape Node holding a value, an optional gradient,
 * and a backward closure that distributes the node's gradient to its
 * inputs. Calling backward() on a scalar Var topologically sorts the
 * reachable graph and runs the closures in reverse order — the same
 * define-by-run scheme PyTorch uses, which both PyG and DGL rely on.
 *
 * Gradient computations execute real tensor kernels, so the Backward
 * phase of the trace (paper Figs. 1–3) is populated by genuinely
 * executed work.
 */

#ifndef GNNPERF_AUTOGRAD_VARIABLE_HH
#define GNNPERF_AUTOGRAD_VARIABLE_HH

#include <functional>
#include <memory>
#include <vector>

#include "ir/ir.hh"
#include "tensor/tensor.hh"

namespace gnnperf {
namespace autograd {

class Node;
using NodePtr = std::shared_ptr<Node>;

/** One tape entry. */
class Node
{
  public:
    Tensor value;
    Tensor grad;                 ///< the first gradient, adopted
    bool requiresGrad = false;
    const char *opName = "leaf";
    std::vector<NodePtr> inputs;

    /**
     * Pending slot in the recorded op graph (src/ir), or -1 once
     * `value` is concrete. The IR flush delivers the tensor through a
     * sink that resets this; any value access flushes first.
     */
    int32_t irSlot = -1;

    /** Distributes `grad` to the inputs; empty for leaves. */
    std::function<void(Node &)> backwardFn;

    /**
     * grad += g. The first gradient is adopted: `grad` shares g's
     * buffer, no copy. A later one is added in place when this node
     * is the buffer's only holder, else into a private copy first
     * (copy on write), so no other holder's values ever change.
     */
    void accumulateGrad(const Tensor &g);
};

/** Global gradient-recording switch (mirrors torch.no_grad()). */
class GradMode
{
  public:
    static bool enabled() { return enabled_; }
    static void set(bool enabled) { enabled_ = enabled; }

  private:
    static bool enabled_;
};

/** RAII guard that disables gradient recording in its scope. */
class NoGradGuard
{
  public:
    NoGradGuard() : prev_(GradMode::enabled()) { GradMode::set(false); }
    ~NoGradGuard() { GradMode::set(prev_); }

    NoGradGuard(const NoGradGuard &) = delete;
    NoGradGuard &operator=(const NoGradGuard &) = delete;

  private:
    bool prev_;
};

/**
 * Handle to a tape node; the user-facing autograd type.
 */
class Var
{
  public:
    /** Undefined variable. */
    Var() = default;

    /** Leaf variable wrapping a tensor. */
    explicit Var(Tensor value, bool requires_grad = false);

    /**
     * Create an op result node from `out`, a concrete tensor or a
     * slot pending in the recorded op graph (ir::Result). If gradient
     * recording is off or no input requires a gradient, `backward_fn`
     * is discarded (graph pruning) and a concrete result is a detached
     * leaf. A pending result always gets a node whose value arrives
     * through an ir sink at the next flush, so `backward_fn` must read
     * its operands from the tape (`n.inputs[k]->value`, `n.value`) —
     * by the time it runs those are concrete.
     */
    static Var makeOp(const char *name, ir::Result out,
                      std::vector<Var> inputs,
                      std::function<void(Node &)> backward_fn);

    bool defined() const { return node_ != nullptr; }

    /** The concrete tensor; flushes the recorded graph if pending. */
    const Tensor &value() const;
    Tensor &valueMutable();
    const Tensor &grad() const;
    bool hasGrad() const;
    bool requiresGrad() const;

    /** Shape helpers; pending-aware (no flush). */
    int64_t dim(int64_t i) const;
    int64_t rank() const;
    int64_t numel() const;

    /** Scalar extraction (requires numel() == 1). */
    float item() const;

    /** Clear this node's gradient. */
    void zeroGrad();

    /**
     * Run reverse-mode differentiation from this node, seeding with
     * ones (the node is usually the scalar loss).
     */
    void backward();

    /** Same, with an explicit seed gradient. */
    void backward(const Tensor &seed);

    /** Detach from the tape (shares the value tensor). */
    Var detach() const;

    NodePtr node() const { return node_; }

  private:
    explicit Var(NodePtr node) : node_(std::move(node)) {}

    NodePtr node_;
};

} // namespace autograd

using autograd::NoGradGuard;
using autograd::Var;

} // namespace gnnperf

#endif // GNNPERF_AUTOGRAD_VARIABLE_HH
