/**
 * @file
 * Dense FP32 tensor with device-accounted storage.
 *
 * Tensors are row-major, contiguous, rank 1 or 2 (the GNN workloads in
 * the paper need nothing higher: multi-head attention is laid out as
 * [N, heads*feat]). Storage is reference counted; clones deep-copy.
 * Storage acquires its block from the device's active Allocator
 * (device/allocator.hh), which accounts logical live bytes (paper
 * Fig. 4) and reserved pool bytes to the DeviceManager.
 */

#ifndef GNNPERF_TENSOR_TENSOR_HH
#define GNNPERF_TENSOR_TENSOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "device/device.hh"

namespace gnnperf {

struct MemoryBlock;

/** Reference-counted flat float buffer on an allocator block. */
class Storage
{
  public:
    Storage(std::size_t numel, DeviceKind device);
    ~Storage();

    Storage(const Storage &) = delete;
    Storage &operator=(const Storage &) = delete;

    float *data() { return data_; }
    const float *data() const { return data_; }
    std::size_t numel() const { return numel_; }
    DeviceKind device() const { return device_; }

    /** The backing allocator block (for aliasing tests/diagnostics). */
    const MemoryBlock *block() const { return block_; }

  private:
    MemoryBlock *block_;
    float *data_;
    std::size_t numel_;
    DeviceKind device_;
};

/**
 * Dense FP32 tensor.
 */
class Tensor
{
  public:
    /** An undefined tensor (no storage). */
    Tensor() = default;

    /** Allocate an uninitialised tensor of the given shape. */
    explicit Tensor(std::vector<int64_t> shape,
                    DeviceKind device = DeviceKind::Cuda);

    /** Zero-filled tensor. */
    static Tensor zeros(std::vector<int64_t> shape,
                        DeviceKind device = DeviceKind::Cuda);

    /** One-filled tensor. */
    static Tensor ones(std::vector<int64_t> shape,
                       DeviceKind device = DeviceKind::Cuda);

    /** Constant-filled tensor. */
    static Tensor full(std::vector<int64_t> shape, float value,
                       DeviceKind device = DeviceKind::Cuda);

    /** Tensor from explicit values (size must match the shape). */
    static Tensor fromVector(const std::vector<float> &values,
                             std::vector<int64_t> shape,
                             DeviceKind device = DeviceKind::Cuda);

    /** Scalar tensor of shape [1]. */
    static Tensor scalar(float value,
                         DeviceKind device = DeviceKind::Cuda);

    bool defined() const { return storage_ != nullptr; }
    int64_t rank() const { return static_cast<int64_t>(shape_.size()); }
    const std::vector<int64_t> &shape() const { return shape_; }
    int64_t dim(int64_t i) const;
    int64_t numel() const { return numel_; }
    std::size_t bytes() const { return numel_ * sizeof(float); }
    DeviceKind device() const;

    float *data();
    const float *data() const;

    /** Element access for rank-1 / rank-2 tensors (bounds-checked). */
    float at(int64_t i) const;
    float at(int64_t i, int64_t j) const;
    void set(int64_t i, float v);
    void set(int64_t i, int64_t j, float v);

    /**
     * Deep copy. Tensors above 64K floats copy in the pool (launch
     * `par.copy`); smaller ones copy inline.
     */
    Tensor clone() const;

    /**
     * Copy to another device. Host→Cuda copies emit an H2DTransfer
     * host record (PCIe traffic in the timing model); same-device is a
     * cheap shared-storage copy.
     */
    Tensor to(DeviceKind device) const;

    /**
     * True when no other tensor (a copy or a reshape view) shares this
     * one's storage, so writing in place is invisible to others.
     */
    bool soleOwner() const { return storage_.use_count() == 1; }

    /** View with a new shape (same storage; numel must match). */
    Tensor reshape(std::vector<int64_t> shape) const;

    /** Fill with a constant; pooled like clone (launch `par.fill`). */
    void fill(float value);

    /** Copy values out to a std::vector. */
    std::vector<float> toVector() const;

    /** "[2708, 1433] cuda" style description. */
    std::string describe() const;

    /** True when shapes are identical. */
    bool sameShape(const Tensor &other) const
    {
        return shape_ == other.shape_;
    }

  private:
    std::vector<int64_t> shape_;
    int64_t numel_ = 0;
    std::shared_ptr<Storage> storage_;
};

} // namespace gnnperf

#endif // GNNPERF_TENSOR_TENSOR_HH
