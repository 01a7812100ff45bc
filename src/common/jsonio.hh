/**
 * @file
 * The project's one JSON codec: a minimal RFC 8259 reader (daemon
 * requests, and the tests that prove emitted traces and manifests load)
 * plus the one string escaper, jsonQuote(), that every JSON writer
 * (stats/json.hh's emitters, the log layer) goes through. The reader
 * builds a JsonValue tree; numbers additionally retain their raw lexeme
 * so integer fields can be re-parsed through the strict common/parse.hh
 * helpers — one checked numeric path for CLI flags and daemon requests
 * alike.
 *
 * Not a general-purpose JSON library: no streaming, no comments, inputs
 * are whole in-memory strings. Depth is bounded to keep adversarial
 * inputs from recursing the stack away.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hh"

namespace gds::common
{

/** One parsed JSON value (tree node). */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array,
    };

    using Object = std::map<std::string, JsonValue>;
    using Array = std::vector<JsonValue>;

    JsonValue() = default;

    Kind kind() const { return _kind; }
    bool isNull() const { return _kind == Kind::Null; }
    bool isBool() const { return _kind == Kind::Bool; }
    bool isNumber() const { return _kind == Kind::Number; }
    bool isString() const { return _kind == Kind::String; }
    bool isObject() const { return _kind == Kind::Object; }
    bool isArray() const { return _kind == Kind::Array; }

    /** Value accessors; calling the wrong one is a caller bug. */
    bool asBool() const;
    double asNumber() const;
    /** The number exactly as it appeared in the input ("1e3", "42"). */
    const std::string &numberLexeme() const;
    const std::string &asString() const;
    const Object &asObject() const;
    const Array &asArray() const;

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    // Construction helpers (used by the parser).
    static JsonValue makeNull();
    static JsonValue makeBool(bool v);
    static JsonValue makeNumber(double v, std::string lexeme);
    static JsonValue makeString(std::string v);
    static JsonValue makeObject(Object v);
    static JsonValue makeArray(Array v);

  private:
    Kind _kind = Kind::Null;
    bool _bool = false;
    double _number = 0.0;
    std::string _text; ///< string value, or the number's raw lexeme
    std::shared_ptr<Object> _object;
    std::shared_ptr<Array> _array;
};

/**
 * Parse @p text as exactly one JSON value (trailing garbage is an
 * error). Failures carry "byte N: what" messages.
 */
Result<JsonValue> parseJson(const std::string &text);

/** Escape + quote @p s as a JSON string (RFC 8259: `"`, `\\` and
 *  every control character escaped; other bytes pass through). */
std::string jsonQuote(const std::string &s);

} // namespace gds::common
