/**
 * @file
 * `gnnperf prof` — inspect and self-check the measured-vs-modeled
 * hardware-counter reconciliation in roofline suite JSONs.
 *
 * Operates on the suite documents written by `gnnperf run
 * --roofline-out` (obs/roofline.hh): `{"version":1, "meta":...,
 * "reports":{label: report}}`. A bare single-report document is also
 * accepted. Reports carry an optional top-level `hwprof` block (tier,
 * demotion reason, classification thresholds) and per-group `hwprof`
 * counter objects when the run was profiled with --hwprof.
 *
 *   summary FILE   print, per report, the counter tier and a
 *                  per-kernel reconciliation table (modeled bound vs
 *                  measured IPC, miss rate, measured bound, verdict)
 *   check FILE     verify the reconciliation contract: the tier is a
 *                  known name, derived ratios (ipc, miss_rate) match
 *                  their raw counters, miss_rate is in [0,1], and
 *                  measured_bound / agreement are exactly what the
 *                  file's own emitted thresholds re-derive
 *
 * A file with no hwprof data is not an error — both modes report that
 * and exit 0, so gates can run unconditionally.
 *
 * Exit codes: 0 = ok, 1 = check failed, 2 = bad usage or
 * unreadable/unparsable input.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/string_utils.hh"

#include "gnnperf.hh"

namespace gnnperf {
namespace cli {

namespace {

/**
 * The (label, report) pairs of a document: the `reports` map of a
 * suite, or the document itself when it is a bare report.
 */
std::vector<std::pair<std::string, const JsonValue *>>
collectReports(const JsonValue &doc)
{
    std::vector<std::pair<std::string, const JsonValue *>> out;
    const JsonValue *reports = doc.find("reports");
    if (reports != nullptr && reports->isObject()) {
        for (const auto &kv : reports->object)
            out.emplace_back(kv.first, &kv.second);
        return out;
    }
    if (doc.find("total") != nullptr)
        out.emplace_back("report", &doc);
    return out;
}

std::string
stringAt(const JsonValue &obj, const char *key, const char *fallback)
{
    const JsonValue *v = obj.find(key);
    return v != nullptr && v->isString() ? v->str : fallback;
}

/** The group's measured-counter block, or nullptr when unprofiled. */
const JsonValue *
measuredBlock(const JsonValue &group)
{
    const JsonValue *m = group.find("hwprof");
    return m != nullptr && m->isObject() ? m : nullptr;
}

/**
 * Re-derive the measured boundedness class from raw counters using
 * the thresholds the report itself carries (mirrors
 * obs/roofline.cc measuredBound()).
 */
std::string
deriveMeasuredBound(const JsonValue &m, double bw_miss_rate,
                    double dispatch_instr_per_window)
{
    const double windows = m.at("windows").asNumber();
    const double instructions = m.at("instructions").asNumber();
    if (windows <= 0.0 ||
        instructions / windows < dispatch_instr_per_window)
        return "dispatch";
    const double refs = m.at("cache_refs").asNumber();
    const double misses = m.at("cache_misses").asNumber();
    const double miss_rate = refs > 0.0 ? misses / refs : 0.0;
    return miss_rate >= bw_miss_rate ? "bandwidth" : "compute";
}

// ----- summary --------------------------------------------------------------

void
summarizeReport(const std::string &label, const JsonValue &report)
{
    const JsonValue *hw = report.find("hwprof");
    std::printf("report %s\n", label.c_str());
    if (hw == nullptr || !hw->isObject()) {
        std::printf("  no hwprof data (run with --hwprof / "
                    "GNNPERF_HWPROF=1)\n\n");
        return;
    }
    std::printf("  tier:   %s (%s)\n",
                stringAt(*hw, "tier", "?").c_str(),
                stringAt(*hw, "reason", "no reason recorded").c_str());
    const JsonValue *total = report.find("total");
    const JsonValue *tm =
        total != nullptr ? measuredBlock(*total) : nullptr;
    if (tm != nullptr) {
        std::printf("  total:  windows=%.0f ipc=%.2f miss_rate=%.3f "
                    "measured=%s agreement=%s\n",
                    tm->at("windows").asNumber(), tm->at("ipc").asNumber(),
                    tm->at("miss_rate").asNumber(),
                    stringAt(*tm, "measured_bound", "?").c_str(),
                    stringAt(*tm, "agreement", "?").c_str());
    }
    const JsonValue *kernels = report.find("kernels");
    if (kernels == nullptr || !kernels->isObject()) {
        std::printf("\n");
        return;
    }
    std::printf("  %-28s %-10s %8s %8s %-10s %s\n", "kernel",
                "modeled", "ipc", "miss%", "measured", "verdict");
    for (const auto &kv : kernels->object) {
        const JsonValue &g = kv.second;
        const std::string modeled = stringAt(g, "bound", "?");
        const JsonValue *m = measuredBlock(g);
        if (m == nullptr) {
            std::printf("  %-28s %-10s %8s %8s %-10s %s\n",
                        kv.first.c_str(), modeled.c_str(), "-", "-",
                        "n/a", "n/a");
            continue;
        }
        const bool hw_tier =
            stringAt(*m, "measured_bound", "n/a") != "n/a";
        const std::string ipc =
            hw_tier ? strprintf("%.2f", m->at("ipc").asNumber()) : "-";
        const std::string miss =
            hw_tier
                ? strprintf("%.1f", m->at("miss_rate").asNumber() * 100.0)
                : "-";
        std::printf("  %-28s %-10s %8s %8s %-10s %s\n",
                    kv.first.c_str(), modeled.c_str(), ipc.c_str(),
                    miss.c_str(),
                    stringAt(*m, "measured_bound", "n/a").c_str(),
                    stringAt(*m, "agreement", "n/a").c_str());
    }
    std::printf("\n");
}

// ----- check ----------------------------------------------------------------

struct CheckState
{
    int failures = 0;

    void
    fail(const std::string &where, const std::string &what)
    {
        std::fprintf(stderr, "FAIL %s: %s\n", where.c_str(),
                     what.c_str());
        ++failures;
    }
};

/** |a - b| within a relative-or-absolute tolerance for ratios. */
bool
closeEnough(double a, double b)
{
    const double diff = std::fabs(a - b);
    return diff <= 1e-6 + 1e-4 * std::fabs(b);
}

void
checkGroup(CheckState &state, const std::string &where,
           const JsonValue &group, double bw_miss_rate,
           double dispatch_instr_per_window)
{
    const JsonValue *m = measuredBlock(group);
    if (m == nullptr)
        return;
    const double windows = m->at("windows").asNumber();
    if (windows < 1.0)
        state.fail(where, "hwprof block with zero windows");

    const double cycles = m->at("cycles").asNumber();
    const double instructions = m->at("instructions").asNumber();
    const double ipc = m->at("ipc").asNumber();
    const double want_ipc =
        cycles > 0.0 ? instructions / cycles : 0.0;
    if (!closeEnough(ipc, want_ipc))
        state.fail(where, "ipc " + std::to_string(ipc) +
                              " != instructions/cycles " +
                              std::to_string(want_ipc));

    const double refs = m->at("cache_refs").asNumber();
    const double misses = m->at("cache_misses").asNumber();
    const double miss_rate = m->at("miss_rate").asNumber();
    const double want_miss = refs > 0.0 ? misses / refs : 0.0;
    if (miss_rate < 0.0 || miss_rate > 1.0)
        state.fail(where, "miss_rate outside [0,1]: " +
                              std::to_string(miss_rate));
    if (!closeEnough(miss_rate, want_miss))
        state.fail(where, "miss_rate " + std::to_string(miss_rate) +
                              " != cache_misses/cache_refs " +
                              std::to_string(want_miss));

    const std::string measured =
        stringAt(*m, "measured_bound", "<missing>");
    const std::string agreement =
        stringAt(*m, "agreement", "<missing>");
    if (measured == "n/a") {
        // Software tier: no PMU data, so no measured class and no
        // verdict.
        if (agreement != "n/a")
            state.fail(where,
                       "measured_bound n/a but agreement is '" +
                           agreement + "'");
        return;
    }
    const std::string want_bound = deriveMeasuredBound(
        *m, bw_miss_rate, dispatch_instr_per_window);
    if (measured != want_bound)
        state.fail(where, "measured_bound '" + measured +
                              "' but thresholds re-derive '" +
                              want_bound + "'");
    const std::string modeled = stringAt(group, "bound", "<missing>");
    const std::string want_agreement =
        measured == modeled ? "agree" : "disagree";
    if (agreement != want_agreement)
        state.fail(where, "agreement '" + agreement + "' but '" +
                              measured + "' vs modeled '" + modeled +
                              "' means '" + want_agreement + "'");
}

void
checkGroupMap(CheckState &state, const std::string &prefix,
              const JsonValue *map, double bw_miss_rate,
              double dispatch_instr_per_window)
{
    if (map == nullptr || !map->isObject())
        return;
    for (const auto &kv : map->object)
        checkGroup(state, prefix + "." + kv.first, kv.second,
                   bw_miss_rate, dispatch_instr_per_window);
}

void
checkReport(CheckState &state, const std::string &label,
            const JsonValue &report)
{
    const JsonValue *hw = report.find("hwprof");
    if (hw == nullptr || !hw->isObject()) {
        // Unprofiled report: no hwprof block anywhere may appear.
        const JsonValue *total = report.find("total");
        if (total != nullptr && measuredBlock(*total) != nullptr)
            state.fail(label, "total carries hwprof counters but the "
                              "report has no hwprof tier block");
        return;
    }
    const std::string tier = stringAt(*hw, "tier", "<missing>");
    if (tier != "hardware" && tier != "software")
        state.fail(label, "unknown hwprof tier '" + tier + "'");
    const JsonValue *thresholds = hw->find("thresholds");
    if (thresholds == nullptr || !thresholds->isObject()) {
        state.fail(label, "hwprof block without thresholds");
        return;
    }
    const double bw_miss_rate =
        thresholds->at("bandwidth_miss_rate").asNumber();
    const double dispatch_instr =
        thresholds->at("dispatch_instructions_per_window").asNumber();
    if (bw_miss_rate <= 0.0 || dispatch_instr <= 0.0) {
        state.fail(label, "non-positive hwprof thresholds");
        return;
    }
    const JsonValue *total = report.find("total");
    if (total != nullptr)
        checkGroup(state, label + ".total", *total, bw_miss_rate,
                   dispatch_instr);
    checkGroupMap(state, label + ".kernels", report.find("kernels"),
                  bw_miss_rate, dispatch_instr);
    checkGroupMap(state, label + ".layers", report.find("layers"),
                  bw_miss_rate, dispatch_instr);
    checkGroupMap(state, label + ".phases", report.find("phases"),
                  bw_miss_rate, dispatch_instr);
}

int
profBody(const Args &args)
{
    const std::string &mode = args.positionals[0];
    const std::string &path = args.positionals[1];
    if (mode != "summary" && mode != "check")
        throw UsageError("expected summary FILE or check FILE");
    JsonValue doc;
    if (!loadJson(path, doc))
        return 2;
    const auto reports = collectReports(doc);
    if (reports.empty()) {
        std::fprintf(stderr, "gnnperf: %s: no roofline reports found\n",
                     path.c_str());
        return 2;
    }

    if (mode == "summary") {
        bool any = false;
        for (const auto &kv : reports) {
            summarizeReport(kv.first, *kv.second);
            any = any || kv.second->find("hwprof") != nullptr;
        }
        if (!any)
            std::printf("no hwprof data in %s — nothing to "
                        "reconcile\n",
                        path.c_str());
        return 0;
    }

    CheckState state;
    bool any = false;
    for (const auto &kv : reports) {
        checkReport(state, kv.first, *kv.second);
        const JsonValue *hw = kv.second->find("hwprof");
        any = any || (hw != nullptr && hw->isObject());
    }
    if (state.failures > 0) {
        std::fprintf(stderr, "check FAILED: %d violation(s)\n",
                     state.failures);
        return 1;
    }
    if (!any) {
        std::printf("check ok: no hwprof data in %s (nothing to "
                    "verify)\n",
                    path.c_str());
        return 0;
    }
    std::printf("check ok: %zu report(s) reconciled\n", reports.size());
    return 0;
}

} // namespace

const Command kProf = {
    .name = "prof",
    .synopsis = "summary FILE | check FILE",
    .summary = "Summarize or verify the measured-vs-modeled counter "
               "reconciliation of a roofline JSON.",
    .options = {},
    .minArgs = 2,
    .maxArgs = 2,
    .body = profBody,
};

} // namespace cli
} // namespace gnnperf
