/**
 * @file
 * The harness's one JSON layer: a small ordered value tree (`Json`)
 * with a writer and a strict recursive-descent parser, and one strict
 * field reader (`JsonReader`) that every document importer uses —
 * results documents, journal meta, and bench reports.
 *
 * Integers are preserved losslessly: a Json number keeps its exact
 * lexeme, so a 64-bit tick count survives write -> parse -> write
 * byte-identically, and `toU64()` can tell a plain decimal from a
 * fraction or an exponent.
 */

#ifndef GVC_HARNESS_JSON_HH
#define GVC_HARNESS_JSON_HH

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace gvc
{

/**
 * An ordered JSON value: null, bool, number, string, array, or object.
 * Object keys keep insertion order so emitted documents are stable.
 */
class Json
{
  public:
    enum class Type {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    Json() = default;
    Json(bool b) : type_(Type::kBool), bool_(b) {}
    Json(double v);
    Json(std::uint64_t v);
    Json(int v) : Json(double(v)) {}
    Json(unsigned v) : Json(std::uint64_t(v)) {}
    Json(const char *s) : type_(Type::kString), str_(s) {}
    Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}

    static Json array() { Json j; j.type_ = Type::kArray; return j; }
    static Json object() { Json j; j.type_ = Type::kObject; return j; }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::kNull; }
    bool isNumber() const { return type_ == Type::kNumber; }
    bool isString() const { return type_ == Type::kString; }
    bool isArray() const { return type_ == Type::kArray; }
    bool isObject() const { return type_ == Type::kObject; }

    bool asBool() const { return bool_; }
    double asNumber() const { return num_; }
    /**
     * Strict unsigned read: true, with @p out set, only when this is a
     * number whose lexeme is a plain non-negative decimal (no sign,
     * fraction, or exponent) no larger than @p max.
     */
    bool toU64(std::uint64_t &out,
               std::uint64_t max = ~std::uint64_t(0)) const;
    /** toU64()'s value, or 0 when it fails. */
    std::uint64_t asU64() const;
    const std::string &asString() const { return str_; }

    /** Append to an array. */
    void push(Json v);
    /** Insert/overwrite an object member (insertion-ordered). */
    void set(std::string key, Json v);
    /** Object member lookup; nullptr when absent or not an object. */
    const Json *find(std::string_view key) const;
    Json *find(std::string_view key);
    /** Array element / object member count. */
    std::size_t size() const;
    /** Array element access (kArray only). */
    const Json &at(std::size_t i) const;
    const std::vector<std::pair<std::string, Json>> &members() const
    {
        return members_;
    }

    /** Serialize; @p indent > 0 pretty-prints with that step. */
    std::string dump(int indent = 0) const;

    /**
     * Strict JSON parse of @p text.  On failure returns null and, when
     * @p err is non-null, stores a message with the failing offset.
     */
    static Json parse(const std::string &text, std::string *err = nullptr);

  private:
    struct Parser;

    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_ = Type::kNull;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;    ///< String payload, or number lexeme.
    std::vector<Json> elems_;
    std::vector<std::pair<std::string, Json>> members_;
};

/** @p v as exactly 16 lowercase hex digits (digest stamps). */
std::string hexU64(std::uint64_t v);

/** Inverse of hexU64(): false unless @p s is 16 lowercase hex digits. */
bool parseHexU64(const std::string &s, std::uint64_t &out);

/**
 * Strict field extraction with dotted-path error messages.  Every
 * getter requires presence and the right type, and records the first
 * failure in `err`, so the reported error names the innermost
 * offending field ("results[3].soc.l1_size: expected ...").  @p ctx is
 * the dotted path of the object being read.
 */
class JsonReader
{
  public:
    std::string err;

    /** Record @p what unless a failure is already recorded; returns false. */
    bool fail(const std::string &what);

    /** Member @p key of @p obj, or nullptr on a missing field. */
    const Json *get(const Json &obj, std::string_view key,
                    const std::string &ctx);
    const Json *getObject(const Json &obj, std::string_view key,
                          const std::string &ctx);
    const Json *getArray(const Json &obj, std::string_view key,
                         const std::string &ctx);
    bool getString(const Json &obj, std::string_view key,
                   const std::string &ctx, std::string &out);
    /** An array of strings, appended to @p out. */
    bool getStrings(const Json &obj, std::string_view key,
                    const std::string &ctx, std::vector<std::string> &out);

    /**
     * Read field @p path of @p obj ("a.b" descends into object "a")
     * into @p out, by readValue()'s rules.
     */
    template <class T>
    bool
    read(const Json &obj, std::string_view path, const std::string &ctx,
         T &out)
    {
        const std::size_t dot = path.find('.');
        if (dot != std::string_view::npos) {
            const std::string_view key = path.substr(0, dot);
            const Json *child = getObject(obj, key, ctx);
            return child && read(*child, path.substr(dot + 1),
                                 ctx + "." + std::string(key), out);
        }
        const Json *v = get(obj, path, ctx);
        return v && readValue(
                        *v, [&] { return ctx + "." + std::string(path); },
                        out);
    }

    /**
     * Read @p v into @p out by the type of @p out: bools, numbers, and
     * unsigned integers or enums as plain non-negative decimals within
     * the type's range.  @p where() names the field in an error; it is
     * called only on failure, so a successful read allocates nothing.
     */
    template <class T, class Where>
    bool
    readValue(const Json &v, const Where &where, T &out)
    {
        if constexpr (std::is_same_v<T, bool>) {
            if (v.type() != Json::Type::kBool)
                return fail(where() + ": expected a bool");
            out = v.asBool();
        } else if constexpr (std::is_floating_point_v<T>) {
            if (!v.isNumber())
                return fail(where() + ": expected a number");
            out = v.asNumber();
        } else {
            using U = typename std::conditional_t<
                std::is_enum_v<T>, std::underlying_type<T>,
                std::type_identity<T>>::type;
            const std::uint64_t max = std::numeric_limits<U>::max();
            std::uint64_t u = 0;
            if (!v.toU64(u, max))
                return fail(where() + ": expected a non-negative decimal "
                                    "integer no larger than " +
                            std::to_string(max));
            out = T(u);
        }
        return true;
    }
};

} // namespace gvc

#endif // GVC_HARNESS_JSON_HH
