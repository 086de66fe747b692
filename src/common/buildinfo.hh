/**
 * @file
 * Build/run provenance stamped into every JSON exporter.
 *
 * A perf artifact without provenance is not comparable: the same
 * config produces different numbers across compilers, build types and
 * sanitizer settings, and the committed baselines only make sense
 * against a known build. This module owns one shared `meta` block —
 * git describe, compiler id, build type, sanitizer flags — plus
 * runtime facts pushed by the subsystems that know them (thread-pool
 * width, active allocator, the GEMM core's dispatched ISA as
 * `gemm_isa`), and renders it as a JSON object whose
 * values are all *strings*, so obs/diff.hh (which flattens numeric
 * leaves only) never gates on provenance.
 *
 * The compile-time fields arrive as -D definitions on buildinfo.cc
 * (see src/CMakeLists.txt); missing definitions degrade to "unknown",
 * never to a build error.
 */

#ifndef GNNPERF_COMMON_BUILDINFO_HH
#define GNNPERF_COMMON_BUILDINFO_HH

#include <string>

namespace gnnperf {
namespace buildinfo {

/** `git describe --always --dirty` at configure time ("unknown"). */
std::string gitDescribe();

/** Compiler family and version, e.g. "gcc 13.2.0". */
std::string compilerId();

/** CMAKE_BUILD_TYPE at configure time ("unknown"). */
std::string buildType();

/** Sanitizer summary: "none", "asan,ubsan" or "tsan". */
std::string sanitizers();

/**
 * Record a runtime fact (e.g. "threads" -> "4"). Subsystems push
 * facts when they change; later pushes overwrite. Thread-safe.
 */
void setRunFact(const std::string &key, const std::string &value);

/** Read back a runtime fact, or `fallback` when never pushed. */
std::string runFact(const std::string &key,
                    const std::string &fallback);

/**
 * The shared provenance block as a single-line JSON object. All
 * values are strings (diff-neutral by construction). Runtime facts
 * are appended after the build fields, key-sorted.
 */
std::string metaJson();

/** One-line `--version` output for a tool built from this tree. */
std::string versionLine(const char *tool);

} // namespace buildinfo
} // namespace gnnperf

#endif // GNNPERF_COMMON_BUILDINFO_HH
