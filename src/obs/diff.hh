/**
 * @file
 * Run-diff engine: compare two machine-readable run artifacts and
 * produce a regression verdict.
 *
 * Any JSON the exporters emit works as input — a stats snapshot
 * (obs/stats_export.hh), a roofline report or suite (obs/roofline.hh),
 * or a BENCH_<name>.json baseline — because both documents are
 * flattened into dotted-path → number series ("reports.GatedGCN/DGL.
 * utilization", "metrics.backend.dgl.edges_touched.value", ...) and
 * aligned by name. A series regresses when its relative change exceeds
 * the threshold in the harmful direction; series whose magnitude never
 * leaves the noise floor are ignored. Most series are lower-is-better
 * (times, bytes, launches); substring patterns mark the
 * higher-is-better exceptions (accuracy, utilization).
 *
 * `gnnperf diff` (tools/cmd_diff.cpp) wraps this as the CI perf gate.
 */

#ifndef GNNPERF_OBS_DIFF_HH
#define GNNPERF_OBS_DIFF_HH

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"

namespace gnnperf {
namespace diff {

/** Comparison knobs. */
struct DiffOptions
{
    /** Relative change beyond which a series counts as a move. */
    double relThreshold = 0.20;

    /** Substring filters: when non-empty, a series must match one. */
    std::vector<std::string> only;

    /** Substring filters: matching series are skipped. */
    std::vector<std::string> ignore;
};

/** Series with |value| below this in both runs never move. */
constexpr double kNoiseFloor = 1e-12;

/**
 * Series whose name contains one of these improve on an *increase*
 * (accuracy and utilization); every other series improves on a
 * decrease.
 */
inline constexpr const char *kHigherIsBetter[] = {"acc", "utilization"};

/** What happened to one series between the two runs. */
enum class SeriesVerdict {
    Unchanged,  ///< within threshold
    Improved,   ///< moved beyond threshold in the helpful direction
    Regressed,  ///< moved beyond threshold in the harmful direction
    Added,      ///< only in the new run
    Removed,    ///< only in the baseline
};

/** "unchanged" / "improved" / "regressed" / "added" / "removed". */
const char *seriesVerdictName(SeriesVerdict verdict);

/** One aligned series. */
struct SeriesDiff
{
    std::string name;
    double before = 0.0;
    double after = 0.0;
    double relChange = 0.0;  ///< (after - before) / |before|
    SeriesVerdict verdict = SeriesVerdict::Unchanged;
};

/** Result of comparing two runs. */
struct RunDiff
{
    std::vector<SeriesDiff> series;  ///< name-sorted

    std::size_t compared = 0;  ///< aligned series (after filters)
    std::size_t regressions() const;
    std::size_t improvements() const;

    /** True when no tracked series regressed. */
    bool ok() const { return regressions() == 0; }
};

/**
 * Flatten every numeric leaf of a JSON document into dotted-path →
 * value (booleans count as 0/1, array elements as path.<index>;
 * strings and nulls are skipped).
 */
std::map<std::string, double> flattenNumeric(const JsonValue &doc);

/** Compare two parsed run artifacts (baseline first). */
RunDiff compareRuns(const JsonValue &baseline, const JsonValue &current,
                    const DiffOptions &opts = {});

/**
 * Render a diff: changed series as a table, plus a one-line summary.
 * With `all` set, unchanged series are listed too.
 */
std::string renderRunDiff(const RunDiff &diff, bool all = false);

/**
 * BENCH baseline JSON: {"version": 1, "bench": <name>,
 * "series": {<dotted name>: <value>, ...}} — the machine-readable
 * trajectory format the bench binaries emit and CI compares.
 */
std::string baselineToJson(
    const std::string &bench_name,
    const std::vector<std::pair<std::string, double>> &series);

} // namespace diff
} // namespace gnnperf

#endif // GNNPERF_OBS_DIFF_HH
