/**
 * @file
 * Small string helpers shared across the framework.
 */

#ifndef GEST_UTIL_STRUTIL_HH
#define GEST_UTIL_STRUTIL_HH

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace gest {

/** Strip leading and trailing ASCII whitespace. */
std::string trim(std::string_view s);

/** trim() as a view into @p s, without a copy. */
std::string_view trimView(std::string_view s);

/** Split on a delimiter character; empty fields are kept. */
std::vector<std::string> split(std::string_view s, char delim);

/** Split on runs of whitespace; empty fields are dropped. */
std::vector<std::string> splitWhitespace(std::string_view s);

/**
 * splitWhitespace() into @p out as views of @p s, replacing what @p out
 * held; a vector reused from call to call allocates nothing once it
 * has grown.
 */
void splitWhitespaceInto(std::string_view s,
                         std::vector<std::string_view>& out);

/** Join the elements of @p parts with @p sep between them. */
std::string join(const std::vector<std::string>& parts,
                 std::string_view sep);

/** @return true if @p s begins with @p prefix. */
bool startsWith(std::string_view s, std::string_view prefix);

/** @return true if @p s ends with @p suffix. */
bool endsWith(std::string_view s, std::string_view suffix);

/** Replace every occurrence of @p from in @p s by @p to. */
std::string replaceAll(std::string s, std::string_view from,
                       std::string_view to);

/** Lower-case an ASCII string. */
std::string toLower(std::string_view s);

/**
 * Parse a signed integer (decimal, or hex with a 0x prefix; a leading
 * 0 does not mean octal). Calls fatal() with @p what in the message
 * on malformed or out-of-range input.
 */
std::int64_t parseInt(std::string_view s, std::string_view what);

/**
 * Parse an unsigned 64-bit integer (decimal, or hex with a 0x
 * prefix, as parseInt()). The full uint64 range is accepted —
 * parseInt() rejects values above INT64_MAX — which matters for RNG
 * seeds round-tripped through manifest.json. fatal() with @p what on
 * malformed or out-of-range input.
 */
std::uint64_t parseUint64(std::string_view s, std::string_view what);

/** Parse a double; fatal() with @p what on malformed input. */
double parseDouble(std::string_view s, std::string_view what);

/** Parse "true"/"false"/"1"/"0" case-insensitively. */
bool parseBool(std::string_view s, std::string_view what);

/** Render a double with fixed precision (for file names and tables). */
std::string formatFixed(double v, int precision);

/**
 * Escape @p s for inclusion inside a JSON string literal: quotes and
 * backslashes are backslash-escaped, control characters become \uXXXX
 * (with the \n \t \r \f \b shorthands), and non-ASCII bytes pass
 * through untouched (JSON is UTF-8). Used by the Chrome-trace and
 * metrics.json writers.
 */
std::string jsonEscape(std::string_view s);

/**
 * Render @p v as a JSON number with printf's `%.<precision>g`, or as
 * null when it is not finite: JSON has no literal for inf or nan.
 */
std::string jsonNumber(double v, int precision);

/**
 * Append @p v as printf's `%.17g` prints it, NaN and infinities
 * included: 17 significant digits, enough to round-trip any double.
 * It goes through std::to_chars, several times faster than snprintf.
 */
void appendNumber(std::string& out, double v);

/** Append the decimal digits of @p v, as std::to_string prints them. */
template <typename Int>
    requires std::is_integral_v<Int>
void
appendNumber(std::string& out, Int v)
{
    char buf[24];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, r.ptr);
}

} // namespace gest

#endif // GEST_UTIL_STRUTIL_HH
