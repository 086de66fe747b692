/**
 * @file
 * Registry of every kernel name the cost model can price.
 *
 * Trace records are priced by name-agnostic rooflines, but the
 * *analysis* layers key on kernel names: the roofline report buckets
 * by name, `gnnperf diff` matches baselines by name, and the docs
 * enumerate them. A typo'd or unregistered name silently falls out of
 * every report. The registry makes the name set a checked, single
 * source of truth:
 *
 *  - checked builds (common/checks.hh) assert every
 *    Profiler::recordKernel name is registered, so an unregistered
 *    kernel aborts the first time it records;
 *  - tools/gnnperf_lint statically cross-checks the record* call
 *    literals in src/ against this table.
 *
 * Adding a kernel = add the recordKernel call and one line in
 * kernel_registry.cc.
 */

#ifndef GNNPERF_DEVICE_KERNEL_REGISTRY_HH
#define GNNPERF_DEVICE_KERNEL_REGISTRY_HH

#include <cstddef>

namespace gnnperf {

/** All registered kernel names; kNumRegisteredKernels entries. */
const char *const *registeredKernels();

/** Number of entries in registeredKernels(). */
std::size_t numRegisteredKernels();

/** Whether `name` names a registered kernel. */
bool kernelRegistered(const char *name);

/**
 * Panic unless `name` is registered. Called by recordKernel in
 * checked builds; kept out of line so the hot path stays one branch.
 */
void assertKernelRegistered(const char *name);

} // namespace gnnperf

#endif // GNNPERF_DEVICE_KERNEL_REGISTRY_HH
