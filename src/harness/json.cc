#include "harness/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/logging.hh"

namespace gvc
{

// ---------------------------------------------------------------------
// Json value
// ---------------------------------------------------------------------

namespace
{

/** Shortest "%g" form of @p v that parses back to exactly @p v. */
std::string
doubleLexeme(double v)
{
    char buf[40];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    // JSON has no inf/nan; clamp to null-ish zero (results never
    // produce them, but a panic in an export path helps nobody).
    if (!std::isfinite(v))
        return "0";
    return buf;
}

} // namespace

Json::Json(double v) : type_(Type::kNumber), num_(v), str_(doubleLexeme(v))
{
}

Json::Json(std::uint64_t v) : type_(Type::kNumber), num_(double(v))
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu", (unsigned long long)v);
    str_ = buf;
}

bool
Json::toU64(std::uint64_t &out, std::uint64_t max) const
{
    if (type_ != Type::kNumber || str_.empty())
        return false;
    std::uint64_t v = 0;
    for (const char c : str_) {
        if (c < '0' || c > '9')
            return false;
        const std::uint64_t digit = std::uint64_t(c - '0');
        if (digit > max || v > (max - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    out = v;
    return true;
}

std::uint64_t
Json::asU64() const
{
    std::uint64_t v = 0;
    return toU64(v) ? v : 0;
}

void
Json::push(Json v)
{
    panicIfNot(type_ == Type::kArray, "Json::push on non-array");
    elems_.push_back(std::move(v));
}

void
Json::set(std::string key, Json v)
{
    panicIfNot(type_ == Type::kObject, "Json::set on non-object");
    for (auto &[k, old] : members_) {
        if (k == key) {
            old = std::move(v);
            return;
        }
    }
    members_.emplace_back(std::move(key), std::move(v));
}

Json *
Json::find(std::string_view key)
{
    return const_cast<Json *>(std::as_const(*this).find(key));
}

const Json *
Json::find(std::string_view key) const
{
    if (type_ != Type::kObject)
        return nullptr;
    for (const auto &[k, v] : members_)
        if (k == key)
            return &v;
    return nullptr;
}

std::size_t
Json::size() const
{
    if (type_ == Type::kArray)
        return elems_.size();
    if (type_ == Type::kObject)
        return members_.size();
    return 0;
}

const Json &
Json::at(std::size_t i) const
{
    panicIfNot(type_ == Type::kArray && i < elems_.size(),
               "Json::at out of range");
    return elems_[i];
}

namespace
{

void
escapeTo(std::string &out, const std::string &s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
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
    out += '"';
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    const std::string pad =
        indent > 0 ? std::string(std::size_t(indent) * (depth + 1), ' ')
                   : std::string();
    const std::string close_pad =
        indent > 0 ? std::string(std::size_t(indent) * depth, ' ')
                   : std::string();
    const char *nl = indent > 0 ? "\n" : "";
    const char *colon = indent > 0 ? ": " : ":";

    switch (type_) {
      case Type::kNull:
        out += "null";
        break;
      case Type::kBool:
        out += bool_ ? "true" : "false";
        break;
      case Type::kNumber:
        out += str_;
        break;
      case Type::kString:
        escapeTo(out, str_);
        break;
      case Type::kArray:
        if (elems_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        out += nl;
        for (std::size_t i = 0; i < elems_.size(); ++i) {
            out += pad;
            elems_[i].dumpTo(out, indent, depth + 1);
            if (i + 1 < elems_.size())
                out += ',';
            out += nl;
        }
        out += close_pad;
        out += ']';
        break;
      case Type::kObject:
        if (members_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        out += nl;
        for (std::size_t i = 0; i < members_.size(); ++i) {
            out += pad;
            escapeTo(out, members_[i].first);
            out += colon;
            members_[i].second.dumpTo(out, indent, depth + 1);
            if (i + 1 < members_.size())
                out += ',';
            out += nl;
        }
        out += close_pad;
        out += '}';
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Json::Parser
{
    const char *p;
    const char *end;
    const char *begin;
    std::string err;

    bool
    fail(const std::string &what)
    {
        if (err.empty()) {
            err = what + " at offset " + std::to_string(p - begin);
        }
        return false;
    }

    void
    skipWs()
    {
        while (p < end &&
               (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
            ++p;
    }

    bool
    literal(const char *text)
    {
        const std::size_t n = std::strlen(text);
        if (std::size_t(end - p) < n || std::strncmp(p, text, n) != 0)
            return fail(std::string("expected '") + text + "'");
        p += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (p >= end || *p != '"')
            return fail("expected string");
        ++p;
        while (p < end && *p != '"') {
            if (*p == '\\') {
                if (p + 1 >= end)
                    return fail("bad escape");
                ++p;
                switch (*p) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (p + 4 >= end)
                        return fail("bad \\u escape");
                    unsigned cp = 0;
                    for (int i = 1; i <= 4; ++i) {
                        const char c = p[i];
                        cp <<= 4;
                        if (c >= '0' && c <= '9')
                            cp |= unsigned(c - '0');
                        else if (c >= 'a' && c <= 'f')
                            cp |= unsigned(c - 'a' + 10);
                        else if (c >= 'A' && c <= 'F')
                            cp |= unsigned(c - 'A' + 10);
                        else
                            return fail("bad \\u escape");
                    }
                    p += 4;
                    // Encode the code point as UTF-8 (no surrogate
                    // pairing: exported documents never need it).
                    if (cp < 0x80) {
                        out += char(cp);
                    } else if (cp < 0x800) {
                        out += char(0xc0 | (cp >> 6));
                        out += char(0x80 | (cp & 0x3f));
                    } else {
                        out += char(0xe0 | (cp >> 12));
                        out += char(0x80 | ((cp >> 6) & 0x3f));
                        out += char(0x80 | (cp & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("bad escape");
                }
                ++p;
            } else if (static_cast<unsigned char>(*p) < 0x20) {
                return fail("raw control character in string");
            } else {
                out += *p++;
            }
        }
        if (p >= end)
            return fail("unterminated string");
        ++p; // closing quote
        return true;
    }

    bool
    parseValue(Json &out, int depth)
    {
        if (depth > 64)
            return fail("nesting too deep");
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        switch (*p) {
          case '{': {
            ++p;
            out = Json::object();
            skipWs();
            if (p < end && *p == '}') {
                ++p;
                return true;
            }
            for (;;) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (p >= end || *p != ':')
                    return fail("expected ':'");
                ++p;
                Json v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.set(std::move(key), std::move(v));
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == '}') {
                    ++p;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
          }
          case '[': {
            ++p;
            out = Json::array();
            skipWs();
            if (p < end && *p == ']') {
                ++p;
                return true;
            }
            for (;;) {
                Json v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.push(std::move(v));
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == ']') {
                    ++p;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
          }
          case '"': {
            std::string s;
            if (!parseString(s))
                return false;
            out = Json(std::move(s));
            return true;
          }
          case 't':
            if (!literal("true"))
                return false;
            out = Json(true);
            return true;
          case 'f':
            if (!literal("false"))
                return false;
            out = Json(false);
            return true;
          case 'n':
            if (!literal("null"))
                return false;
            out = Json();
            return true;
          default: {
            // JSON number grammar:
            //   -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
            // The lexeme is kept verbatim, so integers round-trip
            // exactly even beyond 2^53 and toU64() can tell a plain
            // decimal from a fraction or an exponent.
            const char *start = p;
            const auto digits = [this] {
                const char *first = p;
                while (p < end &&
                       std::isdigit(static_cast<unsigned char>(*p)))
                    ++p;
                return p > first;
            };
            if (p < end && *p == '-')
                ++p;
            if (p < end && *p == '0')
                ++p;
            else if (!digits())
                return fail("unexpected character");
            if (p < end && *p == '.') {
                ++p;
                if (!digits())
                    return fail("bad number");
            }
            if (p < end && (*p == 'e' || *p == 'E')) {
                ++p;
                if (p < end && (*p == '+' || *p == '-'))
                    ++p;
                if (!digits())
                    return fail("bad number");
            }
            out = Json();
            out.type_ = Type::kNumber;
            out.str_.assign(start, p);
            out.num_ = std::strtod(out.str_.c_str(), nullptr);
            return true;
          }
        }
    }
};

Json
Json::parse(const std::string &text, std::string *err)
{
    Parser parser{text.data(), text.data() + text.size(), text.data(),
                  {}};
    Json out;
    if (!parser.parseValue(out, 0)) {
        if (err)
            *err = parser.err;
        return Json();
    }
    parser.skipWs();
    if (parser.p != parser.end) {
        parser.fail("trailing garbage");
        if (err)
            *err = parser.err;
        return Json();
    }
    if (err)
        err->clear();
    return out;
}

std::string
hexU64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
parseHexU64(const std::string &s, std::uint64_t &out)
{
    if (s.size() != 16)
        return false;
    std::uint64_t v = 0;
    for (const char c : s) {
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= std::uint64_t(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= std::uint64_t(c - 'a' + 10);
        else
            return false;
    }
    out = v;
    return true;
}

// ---------------------------------------------------------------------
// JsonReader
// ---------------------------------------------------------------------

bool
JsonReader::fail(const std::string &what)
{
    if (err.empty())
        err = what;
    return false;
}

const Json *
JsonReader::get(const Json &obj, std::string_view key, const std::string &ctx)
{
    const Json *v = obj.find(key);
    if (!v)
        fail(ctx + ": missing field '" + std::string(key) + "'");
    return v;
}

const Json *
JsonReader::getObject(const Json &obj, std::string_view key,
                      const std::string &ctx)
{
    const Json *v = get(obj, key, ctx);
    if (v && !v->isObject()) {
        fail(ctx + "." + std::string(key) + ": expected an object");
        return nullptr;
    }
    return v;
}

const Json *
JsonReader::getArray(const Json &obj, std::string_view key,
                     const std::string &ctx)
{
    const Json *v = get(obj, key, ctx);
    if (v && !v->isArray()) {
        fail(ctx + "." + std::string(key) + ": expected an array");
        return nullptr;
    }
    return v;
}

bool
JsonReader::getString(const Json &obj, std::string_view key,
                      const std::string &ctx, std::string &out)
{
    const Json *v = get(obj, key, ctx);
    if (!v)
        return false;
    if (!v->isString())
        return fail(ctx + "." + std::string(key) + ": expected a string");
    out = v->asString();
    return true;
}

bool
JsonReader::getStrings(const Json &obj, std::string_view key,
                       const std::string &ctx, std::vector<std::string> &out)
{
    const Json *a = getArray(obj, key, ctx);
    if (!a)
        return false;
    for (std::size_t i = 0; i < a->size(); ++i) {
        if (!a->at(i).isString())
            return fail(ctx + "." + std::string(key) + "[" +
                        std::to_string(i) + "]: expected a string");
        out.push_back(a->at(i).asString());
    }
    return true;
}

} // namespace gvc
