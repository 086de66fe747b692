#include "autograd/variable.hh"

#include <unordered_set>

#include "common/logging.hh"
#include "ir/ir.hh"
#include "tensor/ops.hh"

namespace gnnperf {
namespace autograd {

bool GradMode::enabled_ = true;

void
Node::accumulateGrad(const Tensor &g)
{
    gnnperf_assert(g.sameShape(value),
                   "gradient shape ", g.describe(), " != value shape ",
                   value.describe(), " for op ", opName);
    if (!grad.defined()) {
        // Adopt the first gradient: share its buffer rather than copy
        // it, as PyTorch's AccumulateGrad steals the incoming tensor.
        grad = g;
        return;
    }
    if (!grad.soleOwner()) {
        // Copy on write: the buffer is still another holder's (the op
        // that produced it, a sibling input, a view, the caller's
        // seed), and an add in place would change their values too.
        grad = grad.clone();
    }
    ops::addInPlace(grad, g);
}

Var::Var(Tensor value, bool requires_grad)
    : node_(std::make_shared<Node>())
{
    node_->value = std::move(value);
    node_->requiresGrad = requires_grad;
}

Var
Var::makeOp(const char *name, ir::Result out, std::vector<Var> inputs,
            std::function<void(Node &)> backward_fn)
{
    bool any_grad = false;
    if (GradMode::enabled()) {
        for (const auto &in : inputs) {
            if (in.defined() && in.requiresGrad()) {
                any_grad = true;
                break;
            }
        }
    }
    if (!any_grad && !out.isPending()) {
        // Detached result: no tape edges, no closure retained.
        return Var(std::move(out.tensor), false);
    }
    auto node = std::make_shared<Node>();
    node->value = std::move(out.tensor);
    node->irSlot = out.slot;
    if (any_grad) {
        node->requiresGrad = true;
        node->opName = name;
        node->backwardFn = std::move(backward_fn);
        node->inputs.reserve(inputs.size());
        for (auto &in : inputs)
            node->inputs.push_back(in.node());
    }
    if (out.isPending()) {
        // Pruned results stay pending leaves: either way the flush
        // delivers the tensor through this sink before any backward
        // runs.
        ir::bindSink(out.slot, [node](Tensor t) {
            node->value = std::move(t);
            node->irSlot = -1;
        });
    }
    return Var(std::move(node));
}

const Tensor &
Var::value() const
{
    gnnperf_assert(defined(), "value() on undefined Var");
    if (node_->irSlot >= 0) {
        ir::materializeAll();
        gnnperf_assert(node_->irSlot < 0,
                       "ir flush left op ", node_->opName, " pending");
    }
    return node_->value;
}

Tensor &
Var::valueMutable()
{
    gnnperf_assert(defined(), "valueMutable() on undefined Var");
    if (node_->irSlot >= 0) {
        ir::materializeAll();
        gnnperf_assert(node_->irSlot < 0,
                       "ir flush left op ", node_->opName, " pending");
    }
    return node_->value;
}

int64_t
Var::dim(int64_t i) const
{
    gnnperf_assert(defined(), "dim() on undefined Var");
    if (node_->irSlot >= 0) {
        const auto &shape = ir::shapeOf(node_->irSlot);
        gnnperf_assert(i >= 0 && i < static_cast<int64_t>(shape.size()),
                       "dim ", i, " out of range for pending op ",
                       node_->opName);
        return shape[static_cast<std::size_t>(i)];
    }
    return node_->value.dim(i);
}

int64_t
Var::rank() const
{
    gnnperf_assert(defined(), "rank() on undefined Var");
    if (node_->irSlot >= 0)
        return static_cast<int64_t>(ir::shapeOf(node_->irSlot).size());
    return node_->value.rank();
}

int64_t
Var::numel() const
{
    gnnperf_assert(defined(), "numel() on undefined Var");
    if (node_->irSlot >= 0) {
        int64_t n = 1;
        for (int64_t d : ir::shapeOf(node_->irSlot))
            n *= d;
        return n;
    }
    return node_->value.numel();
}

const Tensor &
Var::grad() const
{
    gnnperf_assert(defined() && node_->grad.defined(),
                   "grad() on Var without gradient");
    return node_->grad;
}

bool
Var::hasGrad() const
{
    return defined() && node_->grad.defined();
}

bool
Var::requiresGrad() const
{
    return defined() && node_->requiresGrad;
}

float
Var::item() const
{
    gnnperf_assert(numel() == 1, "item() on tensor with ", numel(),
                   " elements");
    return value().at(0);
}

void
Var::zeroGrad()
{
    if (defined())
        node_->grad = Tensor();
}

void
Var::backward()
{
    backward(Tensor::ones(value().shape(), value().device()));
}

void
Var::backward(const Tensor &seed)
{
    gnnperf_assert(defined(), "backward() on undefined Var");

    // Iterative post-order DFS to build a topological order.
    std::vector<Node *> order;
    std::unordered_set<Node *> visited;
    std::vector<std::pair<Node *, std::size_t>> stack;
    stack.emplace_back(node_.get(), 0);
    visited.insert(node_.get());
    while (!stack.empty()) {
        auto &[node, next] = stack.back();
        if (next < node->inputs.size()) {
            Node *child = node->inputs[next].get();
            ++next;
            if (child && child->requiresGrad &&
                visited.insert(child).second) {
                stack.emplace_back(child, 0);
            }
        } else {
            order.push_back(node);
            stack.pop_back();
        }
    }

    node_->accumulateGrad(seed);

    // Reverse topological order: root first.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        Node *node = *it;
        if (node->backwardFn && node->grad.defined())
            node->backwardFn(*node);
    }
}

Var
Var::detach() const
{
    if (!defined())
        return Var();
    return Var(value(), false);
}

} // namespace autograd
} // namespace gnnperf
