#include "util/strutil.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>

#include "util/logging.hh"

namespace gest {

std::string
trim(std::string_view s)
{
    return std::string(trimView(s));
}

std::string_view
trimView(std::string_view s)
{
    std::size_t begin = 0;
    std::size_t end = s.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(s[end - 1])))
        --end;
    return s.substr(begin, end - begin);
}

std::vector<std::string>
split(std::string_view s, char delim)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == delim) {
            out.emplace_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::vector<std::string>
splitWhitespace(std::string_view s)
{
    std::vector<std::string_view> views;
    splitWhitespaceInto(s, views);
    return {views.begin(), views.end()};
}

void
splitWhitespaceInto(std::string_view s, std::vector<std::string_view>& out)
{
    out.clear();
    std::size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
        std::size_t start = i;
        while (i < s.size() &&
               !std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
        if (i > start)
            out.push_back(s.substr(start, i - start));
    }
}

std::string
join(const std::vector<std::string>& parts, std::string_view sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            out += sep;
        out += parts[i];
    }
    return out;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.substr(0, prefix.size()) == prefix;
}

bool
endsWith(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.substr(s.size() - suffix.size()) == suffix;
}

std::string
replaceAll(std::string s, std::string_view from, std::string_view to)
{
    if (from.empty())
        return s;
    std::size_t pos = 0;
    while ((pos = s.find(from, pos)) != std::string::npos) {
        s.replace(pos, from.size(), to);
        pos += to.size();
    }
    return s;
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    for (char& c : out)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return out;
}

namespace {

/**
 * The strtoll() base for the non-empty @p t: 16 when a 0x prefix
 * follows the optional sign, else 10, so a leading 0 is not octal.
 */
int
integerBase(const std::string& t)
{
    const std::size_t at = t[0] == '+' || t[0] == '-' ? 1 : 0;
    const bool hex = t.size() > at + 1 && t[at] == '0' &&
                     (t[at + 1] == 'x' || t[at + 1] == 'X');
    return hex ? 16 : 10;
}

/**
 * The value of @p s when it is plain decimal digits short enough not to
 * overflow @p Int, which strtoll()/strtoull() read the same way; nullopt
 * otherwise. It spares the common case the NUL-terminated copy those
 * calls need.
 */
template <typename Int>
std::optional<Int>
plainDigits(std::string_view s)
{
    if (s.empty() || s.size() > std::numeric_limits<Int>::digits10)
        return std::nullopt;
    Int v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return std::nullopt;
        v = static_cast<Int>(v * 10 + (c - '0'));
    }
    return v;
}

} // namespace

std::int64_t
parseInt(std::string_view s, std::string_view what)
{
    if (const auto v = plainDigits<std::int64_t>(s))
        return *v;
    const std::string t = trim(s);
    if (t.empty())
        fatal("expected an integer for ", what, ", got an empty string");
    char* end = nullptr;
    errno = 0;
    const std::int64_t v = std::strtoll(t.c_str(), &end, integerBase(t));
    if (end == t.c_str() || *end != '\0' || errno == ERANGE)
        fatal("malformed integer '", t, "' for ", what);
    return v;
}

std::uint64_t
parseUint64(std::string_view s, std::string_view what)
{
    if (const auto v = plainDigits<std::uint64_t>(s))
        return *v;
    const std::string t = trim(s);
    if (t.empty())
        fatal("expected an integer for ", what, ", got an empty string");
    if (t[0] == '-')
        fatal("expected a non-negative integer for ", what, ", got '", t,
              "'");
    char* end = nullptr;
    errno = 0;
    const std::uint64_t v =
        std::strtoull(t.c_str(), &end, integerBase(t));
    if (end == t.c_str() || *end != '\0' || errno == ERANGE)
        fatal("malformed integer '", t, "' for ", what);
    return v;
}

double
parseDouble(std::string_view s, std::string_view what)
{
    // A plain decimal number: std::from_chars gives the value strtod()
    // gives, both correctly rounded, without a copy. Everything else
    // goes to strtod(): whitespace, a leading '+', hex, inf and nan
    // spellings (whose NaN payloads the two need not agree on), values
    // out of range, and every error.
    const char* lead = !s.empty() && s[0] == '-' ? s.data() + 1 : s.data();
    const char* last = s.data() + s.size();
    if (lead != last && ((*lead >= '0' && *lead <= '9') || *lead == '.')) {
        double v = 0.0;
        const std::from_chars_result r = std::from_chars(s.data(), last, v);
        if (r.ec == std::errc() && r.ptr == last)
            return v;
    }
    const std::string t = trim(s);
    if (t.empty())
        fatal("expected a number for ", what, ", got an empty string");
    char* end = nullptr;
    const double v = std::strtod(t.c_str(), &end);
    if (end == t.c_str() || *end != '\0')
        fatal("malformed number '", t, "' for ", what);
    return v;
}

bool
parseBool(std::string_view s, std::string_view what)
{
    const std::string t = toLower(trim(s));
    if (t == "true" || t == "1" || t == "yes")
        return true;
    if (t == "false" || t == "0" || t == "no")
        return false;
    fatal("malformed boolean '", std::string(s), "' for ", what);
}

void
appendNumber(std::string& out, double v)
{
    char buf[32];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof(buf), v, std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

std::string
formatFixed(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          case '\f': out += "\\f"; break;
          case '\b': out += "\\b"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v, int precision)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    return buf;
}

} // namespace gest
