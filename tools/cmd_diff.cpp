/**
 * @file
 * `gnnperf diff` — the run-diff perf gate.
 *
 * Compares two machine-readable run artifacts (stats snapshots,
 * roofline reports/suites, BENCH baselines — any exporter JSON) and
 * exits 1 when a tracked series regressed beyond the threshold, so CI
 * can gate on it directly. Series whose name contains "acc" or
 * "utilization" regress on a decrease, every other series on an
 * increase; series below 1e-12 in both runs never regress
 * (diff::kHigherIsBetter, diff::kNoiseFloor).
 *
 * Exit codes: 0 = no regressions, 1 = regressions found, 2 = bad
 * usage or unreadable/unparsable input.
 */

#include <cstdio>

#include "obs/diff.hh"

#include "gnnperf.hh"

namespace gnnperf {
namespace cli {

namespace {

int
diffBody(const Args &args)
{
    diff::DiffOptions opts;
    opts.relThreshold = args.real("threshold", opts.relThreshold);
    opts.only = args.list("only");
    opts.ignore = args.list("ignore");

    JsonValue baseline, current;
    if (!loadJson(args.positionals[0], baseline) ||
        !loadJson(args.positionals[1], current))
        return 2;

    diff::RunDiff result = diff::compareRuns(baseline, current, opts);
    std::printf("%s",
                diff::renderRunDiff(result, args.has("all")).c_str());
    if (!result.ok()) {
        std::printf("FAIL: %zu series regressed beyond %.0f%%\n",
                    result.regressions(), opts.relThreshold * 100.0);
        return 1;
    }
    std::printf("OK: no series regressed beyond %.0f%%\n",
                opts.relThreshold * 100.0);
    return 0;
}

} // namespace

const Command kDiff = {
    .name = "diff",
    .synopsis = "BASELINE.json CURRENT.json [options]",
    .summary = "Exit 1 when a series of CURRENT regressed against "
               "BASELINE beyond the threshold.",
    .options = {
        {.name = "threshold", .type = Type::Real, .min = 0, .max = 1000,
         .help = "relative change that counts as a move (default 0.20)"},
        {.name = "only", .type = Type::List,
         .help = "compare only series containing S"},
        {.name = "ignore", .type = Type::List,
         .help = "skip series containing S"},
        {.name = "all", .type = Type::Flag,
         .help = "list unchanged series too"},
    },
    .minArgs = 2,
    .maxArgs = 2,
    .body = diffBody,
};

} // namespace cli
} // namespace gnnperf
