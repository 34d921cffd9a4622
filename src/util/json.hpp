/**
 * @file
 * Minimal recursive-descent JSON parser.
 *
 * Exists so tools/rtp_report, tools/bench_diff and the test suite can
 * validate and summarise the JSON the simulator emits (Chrome trace,
 * telemetry timeline, cycle profile, bench sinks) without an external
 * dependency. Full RFC 8259 input
 * grammar; values are held as doubles/strings/vectors, which is ample
 * for trace and stat payloads.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace rtp {

/** One parsed JSON value (a tagged tree). */
struct JsonValue
{
    enum class Type : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    //!< Key/value pairs in document order (duplicates preserved).
    std::vector<std::pair<std::string, JsonValue>> object;

    bool
    isObject() const
    {
        return type == Type::Object;
    }

    bool
    isArray() const
    {
        return type == Type::Array;
    }

    bool
    isNumber() const
    {
        return type == Type::Number;
    }

    bool
    isString() const
    {
        return type == Type::String;
    }

    /** @return Member @p key of an object, or nullptr. */
    const JsonValue *find(const std::string &key) const;

    /** @return Member @p key as a number, or @p fallback. */
    double numberAt(const std::string &key, double fallback = 0.0) const;

    /** @return Member @p key as a string, or @p fallback. */
    std::string stringAt(const std::string &key,
                         const std::string &fallback = "") const;
};

/**
 * Parse a complete JSON document (trailing whitespace allowed, trailing
 * garbage rejected).
 * @param text The document.
 * @param error When non-null, receives a byte-offset-tagged message on
 *        failure.
 * @return The root value, or nullopt on malformed input.
 */
std::optional<JsonValue> parseJson(const std::string &text,
                                   std::string *error = nullptr);

/**
 * Read the file at @p path and parse it as one JSON document.
 * @param error When non-null, receives "cannot read <path>" or
 *        "<path>: invalid JSON: <parser message>" on failure.
 * @return The root value, or nullopt on I/O failure or malformed input.
 */
std::optional<JsonValue> loadJsonFile(const std::string &path,
                                      std::string *error = nullptr);

} // namespace rtp
