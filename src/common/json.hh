/**
 * @file
 * Minimal JSON document model and recursive-descent parser.
 *
 * gnnperf's exporters (stats, roofline, bench baselines) only ever
 * *emit* JSON; the run-diff engine (obs/diff.hh) also needs to *load*
 * the artifacts of a previous run to compare against. This parser is
 * intentionally small: it accepts strict RFC 8259 JSON, preserves
 * object key order (so diffs render in emission order) and reports
 * errors with byte offsets instead of dying — a corrupt baseline file
 * must fail the diff tool gracefully, not crash it.
 */

#ifndef GNNPERF_COMMON_JSON_HH
#define GNNPERF_COMMON_JSON_HH

#include <string>
#include <utility>
#include <vector>

namespace gnnperf {

/** One JSON value; arrays/objects own their children by value. */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    /** Insertion-ordered key/value pairs (duplicate keys kept). */
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return type == Type::Null; }
    bool isBool() const { return type == Type::Bool; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** First member with the given key, or nullptr. */
    const JsonValue *find(const std::string &key) const;

    /** Member lookup that returns a shared Null value when absent. */
    const JsonValue &at(const std::string &key) const;

    /** Number accessor (0.0 for non-numbers). */
    double asNumber() const { return isNumber() ? number : 0.0; }
};

/**
 * Parse a complete JSON document. Returns false (and sets `error` to
 * a message with a byte offset, when non-null) on malformed input or
 * trailing garbage.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string *error = nullptr);

/**
 * Serialize a value back to compact JSON (no whitespace). Numbers
 * print as integers when integral, shortest-round-trip otherwise;
 * object key order and duplicates are preserved, so
 * parse → serialize → parse is lossless. Used by `gnnperf trace` to
 * re-emit merged trace documents.
 */
std::string jsonToString(const JsonValue &value);

} // namespace gnnperf

#endif // GNNPERF_COMMON_JSON_HH
