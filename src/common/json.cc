#include "common/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"

namespace fpsa
{

void
JsonWriter::separate()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (!hasItem_.empty()) {
        if (hasItem_.back())
            out_ += ',';
        hasItem_.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out_ += '{';
    hasItem_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    fpsa_assert(!hasItem_.empty(), "endObject() without beginObject()");
    hasItem_.pop_back();
    out_ += '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out_ += '[';
    hasItem_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    fpsa_assert(!hasItem_.empty(), "endArray() without beginArray()");
    hasItem_.pop_back();
    out_ += ']';
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    separate();
    out_ += '"';
    out_ += escape(name);
    out_ += "\":";
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    separate();
    out_ += '"';
    out_ += escape(v);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    if (!std::isfinite(v)) {
        // JSON has no inf/nan literals.
        out_ += "null";
        return *this;
    }
    // to_chars, not printf: the output must stay valid JSON (a '.'
    // radix point) whatever LC_NUMERIC the host application set.  The
    // shortest form that parses back to exactly `v`.
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    out_.append(buf, r.ptr);
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    separate();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    return value(static_cast<std::int64_t>(v));
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    separate();
    out_ += "null";
    return *this;
}

JsonWriter &
JsonWriter::raw(const std::string &json)
{
    separate();
    out_ += json;
    return *this;
}

std::string
JsonWriter::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

// --------------------------------------------------------------- JsonValue

namespace
{
const JsonValue kNullValue;
const std::string kEmptyString;
const std::vector<JsonValue> kEmptyArray;
} // namespace

const std::string &
JsonValue::string() const
{
    return isString() ? string_ : kEmptyString;
}

const std::vector<JsonValue> &
JsonValue::array() const
{
    return isArray() ? array_ : kEmptyArray;
}

const JsonValue &
JsonValue::at(std::size_t i) const
{
    const auto &a = array();
    return i < a.size() ? a[i] : kNullValue;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (!isObject())
        return nullptr;
    for (const auto &[k, v] : object_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const JsonValue &
JsonValue::operator[](const std::string &key) const
{
    const JsonValue *v = find(key);
    return v ? *v : kNullValue;
}

JsonValue
JsonValue::makeBool(bool v)
{
    JsonValue j;
    j.kind_ = Kind::Bool;
    j.bool_ = v;
    return j;
}

JsonValue
JsonValue::makeNumber(double v)
{
    JsonValue j;
    j.kind_ = Kind::Number;
    j.number_ = v;
    return j;
}

JsonValue
JsonValue::makeString(std::string v)
{
    JsonValue j;
    j.kind_ = Kind::String;
    j.string_ = std::move(v);
    return j;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> elems)
{
    JsonValue j;
    j.kind_ = Kind::Array;
    j.array_ = std::move(elems);
    return j;
}

JsonValue
JsonValue::makeObject(
    std::vector<std::pair<std::string, JsonValue>> members)
{
    JsonValue j;
    j.kind_ = Kind::Object;
    j.object_ = std::move(members);
    return j;
}

// ------------------------------------------------------------------ parser

namespace
{

/** Recursive-descent JSON parser over a flat byte buffer. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    StatusOr<JsonValue>
    parse()
    {
        JsonValue root;
        Status s = parseValue(root, 0);
        if (!s.ok())
            return s;
        skipWs();
        if (at_ != text_.size())
            return fail("trailing characters after document");
        return root;
    }

  private:
    Status
    fail(const std::string &what) const
    {
        return Status::error(StatusCode::InvalidArgument,
                             "JSON parse error at byte " +
                                 std::to_string(at_) + ": " + what);
    }

    void
    skipWs()
    {
        while (at_ < text_.size()) {
            const char c = text_[at_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++at_;
        }
    }

    bool
    consume(char c)
    {
        if (at_ < text_.size() && text_[at_] == c) {
            ++at_;
            return true;
        }
        return false;
    }

    bool
    consumeWord(const char *w)
    {
        const std::size_t n = std::strlen(w);
        if (text_.compare(at_, n, w) == 0) {
            at_ += n;
            return true;
        }
        return false;
    }

    Status
    parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting deeper than " +
                        std::to_string(kMaxDepth));
        skipWs();
        if (at_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[at_];
        if (c == '{')
            return parseObject(out, depth);
        if (c == '[')
            return parseArray(out, depth);
        if (c == '"')
            return parseString(out);
        if (consumeWord("null")) {
            out = JsonValue::makeNull();
            return Status();
        }
        if (consumeWord("true")) {
            out = JsonValue::makeBool(true);
            return Status();
        }
        if (consumeWord("false")) {
            out = JsonValue::makeBool(false);
            return Status();
        }
        return parseNumber(out);
    }

    Status
    parseObject(JsonValue &out, int depth)
    {
        ++at_; // '{'
        std::vector<std::pair<std::string, JsonValue>> members;
        skipWs();
        if (consume('}')) {
            out = JsonValue::makeObject(std::move(members));
            return Status();
        }
        for (;;) {
            skipWs();
            JsonValue key;
            if (at_ >= text_.size() || text_[at_] != '"')
                return fail("expected object key string");
            Status s = parseString(key);
            if (!s.ok())
                return s;
            skipWs();
            if (!consume(':'))
                return fail("expected ':' after object key");
            JsonValue value;
            s = parseValue(value, depth + 1);
            if (!s.ok())
                return s;
            members.emplace_back(key.string(), std::move(value));
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                break;
            return fail("expected ',' or '}' in object");
        }
        out = JsonValue::makeObject(std::move(members));
        return Status();
    }

    Status
    parseArray(JsonValue &out, int depth)
    {
        ++at_; // '['
        std::vector<JsonValue> elems;
        skipWs();
        if (consume(']')) {
            out = JsonValue::makeArray(std::move(elems));
            return Status();
        }
        for (;;) {
            JsonValue value;
            Status s = parseValue(value, depth + 1);
            if (!s.ok())
                return s;
            elems.push_back(std::move(value));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                break;
            return fail("expected ',' or ']' in array");
        }
        out = JsonValue::makeArray(std::move(elems));
        return Status();
    }

    Status
    parseString(JsonValue &out)
    {
        ++at_; // '"'
        std::string s;
        while (at_ < text_.size()) {
            const char c = text_[at_++];
            if (c == '"') {
                out = JsonValue::makeString(std::move(s));
                return Status();
            }
            if (c != '\\') {
                s += c;
                continue;
            }
            if (at_ >= text_.size())
                break;
            const char esc = text_[at_++];
            switch (esc) {
              case '"': s += '"'; break;
              case '\\': s += '\\'; break;
              case '/': s += '/'; break;
              case 'b': s += '\b'; break;
              case 'f': s += '\f'; break;
              case 'n': s += '\n'; break;
              case 'r': s += '\r'; break;
              case 't': s += '\t'; break;
              case 'u': {
                if (at_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[at_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad hex digit in \\u escape");
                }
                // The writer only emits \u00xx control escapes; decode
                // the BMP point as UTF-8 for completeness.
                if (code < 0x80) {
                    s += static_cast<char>(code);
                } else if (code < 0x800) {
                    s += static_cast<char>(0xC0 | (code >> 6));
                    s += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    s += static_cast<char>(0xE0 | (code >> 12));
                    s += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    s += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default:
                return fail("unknown escape sequence");
            }
        }
        return fail("unterminated string");
    }

    Status
    parseNumber(JsonValue &out)
    {
        // from_chars is locale-independent (strtod would read a
        // comma-radix document differently under de_DE etc.), but it
        // accepts "nan"/"inf" tokens JSON forbids: enforce the JSON
        // grammar's leading character and reject non-finite results.
        const char *start = text_.data() + at_;
        const char *end = text_.data() + text_.size();
        if (start == end ||
            (*start != '-' && (*start < '0' || *start > '9')))
            return fail("expected a JSON value");
        double v = 0.0;
        const auto r = std::from_chars(start, end, v);
        if (r.ec != std::errc() || r.ptr == start ||
            !std::isfinite(v))
            return fail("expected a finite JSON number");
        at_ += static_cast<std::size_t>(r.ptr - start);
        out = JsonValue::makeNumber(v);
        return Status();
    }

    static constexpr int kMaxDepth = 200;

    const std::string &text_;
    std::size_t at_ = 0;
};

} // namespace

StatusOr<JsonValue>
parseJson(const std::string &text)
{
    return Parser(text).parse();
}

} // namespace fpsa
