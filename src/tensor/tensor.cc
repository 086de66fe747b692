#include "tensor/tensor.hh"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/logging.hh"
#include "device/allocator.hh"
#include "device/profiler.hh"
#include "parallel/thread_pool.hh"

namespace gnnperf {

Storage::Storage(std::size_t numel, DeviceKind device)
    : block_(DeviceManager::instance().allocator(device).allocate(
          numel * sizeof(float))),
      data_(block_->floats()),
      numel_(numel),
      device_(device)
{
}

Storage::~Storage()
{
    block_->owner->release(block_);
}

namespace {

int64_t
shapeNumel(const std::vector<int64_t> &shape)
{
    int64_t n = 1;
    for (int64_t d : shape) {
        gnnperf_assert(d >= 0, "negative dimension ", d);
        n *= d;
    }
    return n;
}

/**
 * Floats per chunk of a pooled fill or copy: 256 KiB, so a tensor
 * smaller than that stays one inline call on the caller.
 */
constexpr int64_t kMoveGrain = int64_t{1} << 16;

} // namespace

Tensor::Tensor(std::vector<int64_t> shape, DeviceKind device)
    : shape_(std::move(shape)),
      numel_(shapeNumel(shape_)),
      storage_(std::make_shared<Storage>(numel_, device))
{
}

Tensor
Tensor::zeros(std::vector<int64_t> shape, DeviceKind device)
{
    Tensor t(std::move(shape), device);
    t.fill(0.0f);
    return t;
}

Tensor
Tensor::ones(std::vector<int64_t> shape, DeviceKind device)
{
    Tensor t(std::move(shape), device);
    t.fill(1.0f);
    return t;
}

Tensor
Tensor::full(std::vector<int64_t> shape, float value, DeviceKind device)
{
    Tensor t(std::move(shape), device);
    t.fill(value);
    return t;
}

Tensor
Tensor::fromVector(const std::vector<float> &values,
                   std::vector<int64_t> shape, DeviceKind device)
{
    Tensor t(std::move(shape), device);
    gnnperf_assert(static_cast<int64_t>(values.size()) == t.numel(),
                   "fromVector: ", values.size(), " values for shape of ",
                   t.numel(), " elements");
    std::copy(values.begin(), values.end(), t.data());
    return t;
}

Tensor
Tensor::scalar(float value, DeviceKind device)
{
    return fromVector({value}, {1}, device);
}

int64_t
Tensor::dim(int64_t i) const
{
    gnnperf_assert(i >= 0 && i < rank(), "dim(", i, ") on rank ", rank());
    return shape_[static_cast<std::size_t>(i)];
}

DeviceKind
Tensor::device() const
{
    gnnperf_assert(defined(), "device() on undefined tensor");
    return storage_->device();
}

float *
Tensor::data()
{
    gnnperf_assert(defined(), "data() on undefined tensor");
    return storage_->data();
}

const float *
Tensor::data() const
{
    gnnperf_assert(defined(), "data() on undefined tensor");
    return storage_->data();
}

float
Tensor::at(int64_t i) const
{
    gnnperf_assert(i >= 0 && i < numel_, "at(", i, ") out of ", numel_);
    return data()[i];
}

float
Tensor::at(int64_t i, int64_t j) const
{
    gnnperf_assert(rank() == 2, "at(i,j) on rank ", rank());
    gnnperf_assert(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1],
                   "at(", i, ",", j, ") out of [", shape_[0], ",",
                   shape_[1], "]");
    return data()[i * shape_[1] + j];
}

void
Tensor::set(int64_t i, float v)
{
    gnnperf_assert(i >= 0 && i < numel_, "set(", i, ") out of ", numel_);
    data()[i] = v;
}

void
Tensor::set(int64_t i, int64_t j, float v)
{
    gnnperf_assert(rank() == 2, "set(i,j) on rank ", rank());
    gnnperf_assert(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1],
                   "set(", i, ",", j, ") out of [", shape_[0], ",",
                   shape_[1], "]");
    data()[i * shape_[1] + j] = v;
}

Tensor
Tensor::clone() const
{
    gnnperf_assert(defined(), "clone() on undefined tensor");
    Tensor t(shape_, device());
    const float *src = data();
    float *dst = t.data();
    par::parallelFor("par.copy", 0, numel_, kMoveGrain,
                     [&](int64_t b, int64_t e, int) {
                         std::memcpy(dst + b, src + b,
                                     static_cast<std::size_t>(e - b) *
                                         sizeof(float));
                     });
    return t;
}

Tensor
Tensor::to(DeviceKind target) const
{
    gnnperf_assert(defined(), "to() on undefined tensor");
    if (target == device())
        return *this;
    if (device() == DeviceKind::Host && target == DeviceKind::Cuda) {
        recordHost("h2d_copy", HostOpKind::H2DTransfer,
                   static_cast<double>(bytes()), 1.0);
    } else {
        recordHost("d2h_copy", HostOpKind::H2DTransfer,
                   static_cast<double>(bytes()), 1.0);
    }
    Tensor t(shape_, target);
    std::memcpy(t.data(), data(), bytes());
    return t;
}

Tensor
Tensor::reshape(std::vector<int64_t> shape) const
{
    gnnperf_assert(defined(), "reshape() on undefined tensor");
    gnnperf_assert(shapeNumel(shape) == numel_,
                   "reshape: numel mismatch");
    Tensor t;
    t.shape_ = std::move(shape);
    t.numel_ = numel_;
    t.storage_ = storage_;
    return t;
}

void
Tensor::fill(float value)
{
    float *p = data();
    par::parallelFor("par.fill", 0, numel_, kMoveGrain,
                     [&](int64_t b, int64_t e, int) {
                         std::fill(p + b, p + e, value);
                     });
}

std::vector<float>
Tensor::toVector() const
{
    return std::vector<float>(data(), data() + numel_);
}

std::string
Tensor::describe() const
{
    if (!defined())
        return "[undefined]";
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < shape_.size(); ++i) {
        if (i)
            os << ", ";
        os << shape_[i];
    }
    os << "] " << deviceName(device());
    return os.str();
}

} // namespace gnnperf
