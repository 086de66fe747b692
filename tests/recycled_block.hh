/**
 * @file
 * Test helper: make a kernel's output land in a recycled pool block
 * that still holds a marker value, so an output element the kernel
 * never writes shows up as the marker.
 *
 * Checks are switched off for the scope: checked builds zero a
 * poisoned block when they hand it out again, which would hide a
 * missing write behind a correct-looking zero.
 */

#ifndef GNNPERF_TESTS_RECYCLED_BLOCK_HH
#define GNNPERF_TESTS_RECYCLED_BLOCK_HH

#include <cstdint>

#include "common/checks.hh"
#include "device/device.hh"
#include "tensor/tensor.hh"

namespace gnnperf {
namespace testing_util {

class RecycledBlock
{
  public:
    /**
     * Empty the caching pool, then acquire `numel` floats, fill them
     * with `value` and release them: the next acquire of that size is
     * this block.
     */
    RecycledBlock(int64_t numel, float value)
        : checks_(checksEnabled()),
          allocator_(DeviceManager::instance().allocatorKind(
              DeviceKind::Cuda))
    {
        setChecksEnabled(false);
        DeviceManager &dm = DeviceManager::instance();
        dm.setAllocator(DeviceKind::Cuda, AllocatorKind::Caching);
        dm.emptyCaches();
        Tensor t({numel});
        t.fill(value);
        address_ = t.data();
    }

    ~RecycledBlock()
    {
        DeviceManager::instance().setAllocator(DeviceKind::Cuda,
                                               allocator_);
        setChecksEnabled(checks_);
    }

    RecycledBlock(const RecycledBlock &) = delete;
    RecycledBlock &operator=(const RecycledBlock &) = delete;

    /** Where the released block starts. */
    const float *address() const { return address_; }

  private:
    bool checks_;
    AllocatorKind allocator_;
    const float *address_ = nullptr;
};

} // namespace testing_util
} // namespace gnnperf

#endif // GNNPERF_TESTS_RECYCLED_BLOCK_HH
