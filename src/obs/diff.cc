#include "obs/diff.hh"

#include <algorithm>
#include <cmath>

#include "common/buildinfo.hh"
#include "common/string_utils.hh"
#include "common/table.hh"

namespace gnnperf {
namespace diff {

const char *
seriesVerdictName(SeriesVerdict verdict)
{
    switch (verdict) {
      case SeriesVerdict::Unchanged: return "unchanged";
      case SeriesVerdict::Improved: return "improved";
      case SeriesVerdict::Regressed: return "regressed";
      case SeriesVerdict::Added: return "added";
      case SeriesVerdict::Removed: return "removed";
    }
    return "?";
}

std::size_t
RunDiff::regressions() const
{
    return static_cast<std::size_t>(std::count_if(
        series.begin(), series.end(), [](const SeriesDiff &s) {
            return s.verdict == SeriesVerdict::Regressed;
        }));
}

std::size_t
RunDiff::improvements() const
{
    return static_cast<std::size_t>(std::count_if(
        series.begin(), series.end(), [](const SeriesDiff &s) {
            return s.verdict == SeriesVerdict::Improved;
        }));
}

namespace {

void
flattenInto(const JsonValue &v, const std::string &prefix,
            std::map<std::string, double> &out)
{
    switch (v.type) {
      case JsonValue::Type::Number:
        out[prefix] = v.number;
        break;
      case JsonValue::Type::Bool:
        out[prefix] = v.boolean ? 1.0 : 0.0;
        break;
      case JsonValue::Type::Object:
        for (const auto &[key, child] : v.object) {
            flattenInto(child,
                        prefix.empty() ? key : prefix + "." + key,
                        out);
        }
        break;
      case JsonValue::Type::Array:
        for (std::size_t i = 0; i < v.array.size(); ++i) {
            flattenInto(v.array[i],
                        strprintf("%s.%zu", prefix.c_str(), i), out);
        }
        break;
      case JsonValue::Type::String:
      case JsonValue::Type::Null:
        break;
    }
}

template <typename Patterns>
bool
matchesAny(const std::string &name, const Patterns &patterns)
{
    for (const auto &p : patterns) {
        if (name.find(p) != std::string::npos)
            return true;
    }
    return false;
}

} // namespace

std::map<std::string, double>
flattenNumeric(const JsonValue &doc)
{
    std::map<std::string, double> out;
    flattenInto(doc, "", out);
    return out;
}

RunDiff
compareRuns(const JsonValue &baseline, const JsonValue &current,
            const DiffOptions &opts)
{
    const auto a = flattenNumeric(baseline);
    const auto b = flattenNumeric(current);

    auto tracked = [&](const std::string &name) {
        if (!opts.only.empty() && !matchesAny(name, opts.only))
            return false;
        return !matchesAny(name, opts.ignore);
    };

    RunDiff diff;
    for (const auto &[name, before] : a) {
        if (!tracked(name))
            continue;
        SeriesDiff s;
        s.name = name;
        s.before = before;
        auto it = b.find(name);
        if (it == b.end()) {
            s.verdict = SeriesVerdict::Removed;
            diff.series.push_back(std::move(s));
            continue;
        }
        s.after = it->second;
        ++diff.compared;
        if (std::max(std::fabs(s.before), std::fabs(s.after)) <
            kNoiseFloor) {
            s.verdict = SeriesVerdict::Unchanged;
            diff.series.push_back(std::move(s));
            continue;
        }
        const double denom =
            std::max(std::fabs(s.before), kNoiseFloor);
        s.relChange = (s.after - s.before) / denom;
        const bool higher_better =
            matchesAny(name, kHigherIsBetter);
        const double harmful =
            higher_better ? -s.relChange : s.relChange;
        if (harmful > opts.relThreshold)
            s.verdict = SeriesVerdict::Regressed;
        else if (-harmful > opts.relThreshold)
            s.verdict = SeriesVerdict::Improved;
        else
            s.verdict = SeriesVerdict::Unchanged;
        diff.series.push_back(std::move(s));
    }
    for (const auto &[name, after] : b) {
        if (!tracked(name) || a.count(name))
            continue;
        SeriesDiff s;
        s.name = name;
        s.after = after;
        s.verdict = SeriesVerdict::Added;
        diff.series.push_back(std::move(s));
    }
    return diff;
}

std::string
renderRunDiff(const RunDiff &diff, bool all)
{
    TextTable table;
    table.setHeader({"Series", ">Baseline", ">Current", ">Change%",
                     "Verdict"});
    std::size_t listed = 0;
    for (const auto &s : diff.series) {
        if (!all && s.verdict == SeriesVerdict::Unchanged)
            continue;
        ++listed;
        const bool aligned = s.verdict != SeriesVerdict::Added &&
                             s.verdict != SeriesVerdict::Removed;
        table.addRow({s.name, strprintf("%.6g", s.before),
                      strprintf("%.6g", s.after),
                      aligned ? strprintf("%+.1f", s.relChange * 100.0)
                              : std::string("-"),
                      seriesVerdictName(s.verdict)});
    }
    std::string out;
    if (listed > 0)
        out += table.render();
    out += strprintf("%zu series compared, %zu regressed, "
                     "%zu improved\n",
                     diff.compared, diff.regressions(),
                     diff.improvements());
    return out;
}

std::string
baselineToJson(const std::string &bench_name,
               const std::vector<std::pair<std::string, double>> &series)
{
    std::string out = strprintf("{\n  \"version\": 1,\n"
                                "  \"meta\": %s,\n"
                                "  \"bench\": \"%s\",\n"
                                "  \"series\": {",
                                buildinfo::metaJson().c_str(),
                                jsonEscape(bench_name).c_str());
    bool first = true;
    for (const auto &[name, value] : series) {
        out += first ? "\n" : ",\n";
        first = false;
        std::string v;
        if (!std::isfinite(value))
            v = "0";
        else if (value == std::floor(value) &&
                 std::fabs(value) < 9.007199254740992e15)
            v = strprintf("%.0f", value);
        else
            v = strprintf("%.9g", value);
        out += strprintf("    \"%s\": %s", jsonEscape(name).c_str(),
                         v.c_str());
    }
    out += "\n  }\n}\n";
    return out;
}

} // namespace diff
} // namespace gnnperf
