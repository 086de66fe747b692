/**
 * @file
 * gnnperf_lint — repo-specific static checks the compiler cannot see.
 *
 * Walks the source tree (common/fs) and enforces five conventions
 * that keep the observability and memory layers trustworthy:
 *
 *  1. no raw `new` / `delete` outside src/device/ — storage must flow
 *     through the allocator layer so the Fig. 4 accounting stays
 *     complete. Leaked process singletons carry a same-line
 *     `lint:allow` marker with a reason.
 *  2. no `std::cout` outside tools/ and bench/ — library code reports
 *     through the logging/stats/export layers, never stdout.
 *  3. every kernel-name literal passed to recordKernel (and its
 *     wrappers) is registered in src/device/kernel_registry.cc, so
 *     roofline/diff/doc name keys cannot drift.
 *  4. every `stats.` metric-name literal registered in src/ is
 *     mentioned in docs/OBSERVABILITY.md, so the metric reference
 *     stays complete.
 *  5. every `GNNPERF_*` environment-variable literal under src/ is
 *     mentioned in the src/common/env.hh docblock, so the knob
 *     reference stays complete.
 *
 * Usage:
 *   gnnperf_lint [REPO_ROOT]
 *
 * Exit codes (matching `gnnperf diff`): 0 = clean, 1 = violations
 * found, 2 = bad usage or unreadable tree.
 */

#include <cstdio>
#include <cstring>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "common/buildinfo.hh"
#include "common/fs.hh"

using namespace gnnperf;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr, "usage: %s [REPO_ROOT]\n", argv0);
    return 2;
}

struct Violation
{
    std::string file;
    int line;
    std::string message;
};

std::vector<Violation> g_violations;

void
report(const std::string &file, int line, const std::string &message)
{
    g_violations.push_back(Violation{file, line, message});
}

bool
endsWith(const std::string &s, const char *suffix)
{
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool
contains(const std::string &s, const char *needle)
{
    return s.find(needle) != std::string::npos;
}

/** C++ translation units and headers under lint jurisdiction. */
bool
isSourceFile(const std::string &path)
{
    return endsWith(path, ".cc") || endsWith(path, ".cpp") ||
           endsWith(path, ".hh") || endsWith(path, ".h");
}

/**
 * Strip line comments, block comments and string/char literals so the
 * structural rules (new/delete, std::cout) cannot fire on prose or
 * message text. Preserves line structure; the `lint:allow` marker is
 * checked on the raw line before the stripped one is matched.
 */
std::string
stripCommentsAndStrings(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    enum { Code, Line, Block, Str, Chr } state = Code;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char n = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (state) {
          case Code:
            if (c == '/' && n == '/') {
                state = Line;
                ++i;
            } else if (c == '/' && n == '*') {
                state = Block;
                ++i;
            } else if (c == '"') {
                state = Str;
                out.push_back(' ');
            } else if (c == '\'') {
                state = Chr;
                out.push_back(' ');
            } else {
                out.push_back(c);
            }
            break;
          case Line:
            if (c == '\n') {
                state = Code;
                out.push_back('\n');
            }
            break;
          case Block:
            if (c == '*' && n == '/') {
                state = Code;
                ++i;
            } else if (c == '\n') {
                out.push_back('\n');
            }
            break;
          case Str:
            if (c == '\\')
                ++i;
            else if (c == '"')
                state = Code;
            else if (c == '\n')
                out.push_back('\n');
            break;
          case Chr:
            if (c == '\\')
                ++i;
            else if (c == '\'')
                state = Code;
            break;
        }
    }
    return out;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (const char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        lines.push_back(cur);
    return lines;
}

/** Rule 1: raw new/delete outside src/device/. */
void
checkRawNewDelete(const std::string &file, const std::string &rel,
                  const std::vector<std::string> &raw,
                  const std::vector<std::string> &code)
{
    if (rel.rfind("src/", 0) != 0 || rel.rfind("src/device/", 0) == 0)
        return;
    static const std::regex new_re(
        "\\bnew\\b\\s*(\\(|[A-Za-z_:])");
    static const std::regex delete_re("\\bdelete\\b\\s*(\\[\\])?\\s*"
                                      "[A-Za-z_\\(\\*]");
    for (std::size_t i = 0; i < code.size(); ++i) {
        if (i < raw.size() && contains(raw[i], "lint:allow"))
            continue;
        if (std::regex_search(code[i], new_re))
            report(file, static_cast<int>(i + 1),
                   "raw `new` outside src/device/ — allocate through "
                   "the device allocator layer, or mark a leaked "
                   "singleton with `lint:allow <reason>`");
        if (std::regex_search(code[i], delete_re))
            report(file, static_cast<int>(i + 1),
                   "raw `delete` outside src/device/ — release "
                   "through the device allocator layer, or mark with "
                   "`lint:allow <reason>`");
    }
}

/** Rule 2: std::cout outside tools/ and bench/. */
void
checkStdout(const std::string &file, const std::string &rel,
            const std::vector<std::string> &raw,
            const std::vector<std::string> &code)
{
    if (rel.rfind("tools/", 0) == 0 || rel.rfind("bench/", 0) == 0)
        return;
    for (std::size_t i = 0; i < code.size(); ++i) {
        if (i < raw.size() && contains(raw[i], "lint:allow"))
            continue;
        if (contains(code[i], "std::cout"))
            report(file, static_cast<int>(i + 1),
                   "std::cout outside tools//bench/ — library code "
                   "reports through logging/stats/export");
    }
}

/** Extract every string literal between `from` and `to` markers. */
std::set<std::string>
literalsBetween(const std::string &text, const char *from,
                const char *to)
{
    std::set<std::string> out;
    const std::size_t b = text.find(from);
    if (b == std::string::npos)
        return out;
    std::size_t e = text.find(to, b);
    if (e == std::string::npos)
        e = text.size();
    static const std::regex lit_re("\"([^\"]*)\"");
    auto begin = std::sregex_iterator(text.begin() + b, text.begin() + e,
                                      lit_re);
    for (auto it = begin; it != std::sregex_iterator(); ++it)
        out.insert((*it)[1].str());
    return out;
}

/**
 * Rule 3: kernel-name literals passed to the record wrappers must be
 * registered. Matches the first string literal inside the call parens
 * (calls that pass a variable name are covered at runtime by the
 * checked-build assert in Profiler::recordKernel).
 */
void
checkKernelNames(const std::string &file, const std::string &text,
                 const std::set<std::string> &registered)
{
    static const std::regex call_re(
        "(?:recordKernel|recordGemm|recordSpmm|recordElementwise|"
        "segmentReduce|segmentBroadcast)\\s*\\("
        "[^\")]*\"([A-Za-z0-9_.]+)\"");
    for (auto it = std::sregex_iterator(text.begin(), text.end(),
                                        call_re);
         it != std::sregex_iterator(); ++it) {
        const std::string name = (*it)[1].str();
        if (registered.count(name) != 0)
            continue;
        const int line = 1 + static_cast<int>(std::count(
                                 text.begin(),
                                 text.begin() + it->position(0), '\n'));
        report(file, line,
               "kernel '" + name +
                   "' is not registered in "
                   "src/device/kernel_registry.cc");
    }
}

/**
 * Rule 4: every stats metric-name literal must appear in
 * docs/OBSERVABILITY.md.
 */
void
checkMetricNames(const std::string &file, const std::string &text,
                 const std::string &doc)
{
    static const std::regex metric_re(
        "stats::(?:counter|gauge|distribution)\\s*\\(\\s*"
        "\"([A-Za-z0-9_.]+)\"");
    for (auto it = std::sregex_iterator(text.begin(), text.end(),
                                        metric_re);
         it != std::sregex_iterator(); ++it) {
        const std::string name = (*it)[1].str();
        if (contains(doc, ("`" + name + "`").c_str()))
            continue;
        const int line = 1 + static_cast<int>(std::count(
                                 text.begin(),
                                 text.begin() + it->position(0), '\n'));
        report(file, line,
               "metric '" + name +
                   "' is not documented in docs/OBSERVABILITY.md");
    }
}

/**
 * Rule 5: every GNNPERF_* environment-variable literal must appear in
 * the src/common/env.hh docblock (the knob reference).
 */
void
checkEnvNames(const std::string &file, const std::string &text,
              const std::string &env_doc)
{
    static const std::regex env_re("\"(GNNPERF_[A-Z0-9_]+)\"");
    for (auto it = std::sregex_iterator(text.begin(), text.end(),
                                        env_re);
         it != std::sregex_iterator(); ++it) {
        const std::string name = (*it)[1].str();
        if (contains(env_doc, name.c_str()))
            continue;
        const int line = 1 + static_cast<int>(std::count(
                                 text.begin(),
                                 text.begin() + it->position(0), '\n'));
        report(file, line,
               "env var '" + name +
                   "' is not documented in src/common/env.hh");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--version") == 0) {
        std::printf("%s\n",
                    buildinfo::versionLine("gnnperf_lint").c_str());
        return 0;
    }
    std::string root = ".";
    if (argc > 2)
        return usage(argv[0]);
    if (argc == 2) {
        if (std::strcmp(argv[1], "-h") == 0 ||
            std::strcmp(argv[1], "--help") == 0)
            return usage(argv[0]);
        root = argv[1];
    }

    std::vector<std::string> files;
    bool any_dir = false;
    for (const char *dir : {"src", "tools", "bench", "tests"}) {
        std::vector<std::string> sub;
        if (!listFiles(root + "/" + dir, {}, sub))
            continue;
        any_dir = true;
        for (std::string &f : sub)
            if (isSourceFile(f))
                files.push_back(std::move(f));
    }
    if (!any_dir) {
        std::fprintf(stderr,
                     "gnnperf_lint: %s has no src/tools/bench/tests "
                     "directories — wrong root?\n",
                     root.c_str());
        return 2;
    }

    std::string registry_text;
    if (!readFile(root + "/src/device/kernel_registry.cc",
                  registry_text)) {
        std::fprintf(stderr,
                     "gnnperf_lint: cannot read "
                     "src/device/kernel_registry.cc under %s\n",
                     root.c_str());
        return 2;
    }
    const std::set<std::string> registered =
        literalsBetween(registry_text, "kKernelNames[] = {", "};");
    if (registered.empty()) {
        std::fprintf(stderr, "gnnperf_lint: kernel registry table "
                             "parsed empty\n");
        return 2;
    }

    std::string doc;
    if (!readFile(root + "/docs/OBSERVABILITY.md", doc)) {
        std::fprintf(stderr, "gnnperf_lint: cannot read "
                             "docs/OBSERVABILITY.md under %s\n",
                     root.c_str());
        return 2;
    }

    std::string env_doc;
    if (!readFile(root + "/src/common/env.hh", env_doc)) {
        std::fprintf(stderr, "gnnperf_lint: cannot read "
                             "src/common/env.hh under %s\n",
                     root.c_str());
        return 2;
    }

    const std::string prefix = root == "." ? "" : root + "/";
    for (const std::string &file : files) {
        std::string text;
        if (!readFile(file, text)) {
            std::fprintf(stderr, "gnnperf_lint: cannot read %s\n",
                         file.c_str());
            return 2;
        }
        std::string rel = file;
        if (!prefix.empty() && rel.rfind(prefix, 0) == 0)
            rel = rel.substr(prefix.size());
        else if (rel.rfind("./", 0) == 0)
            rel = rel.substr(2);

        const std::vector<std::string> raw = splitLines(text);
        const std::string stripped = stripCommentsAndStrings(text);
        const std::vector<std::string> code = splitLines(stripped);

        const bool in_src = rel.rfind("src/", 0) == 0;
        checkRawNewDelete(rel, rel, raw, code);
        checkStdout(rel, rel, raw, code);
        if (in_src) {
            // Name rules match the raw text: the literals themselves
            // are what is being checked.
            checkKernelNames(rel, text, registered);
            checkMetricNames(rel, text, doc);
            if (rel != "src/common/env.hh")
                checkEnvNames(rel, text, env_doc);
        }
    }

    for (const Violation &v : g_violations)
        std::printf("%s:%d: %s\n", v.file.c_str(), v.line,
                    v.message.c_str());
    if (!g_violations.empty()) {
        std::printf("gnnperf_lint: %zu violation(s)\n",
                    g_violations.size());
        return 1;
    }
    std::printf("gnnperf_lint: clean (%zu files)\n", files.size());
    return 0;
}
