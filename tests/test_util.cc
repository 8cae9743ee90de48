/**
 * @file
 * Unit tests for the utility layer: strings, files, RNG, logging.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>

#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/strutil.hh"

namespace gest {
namespace {

TEST(Strutil, TrimRemovesSurroundingWhitespace)
{
    EXPECT_EQ(trim("  hello \t\n"), "hello");
    EXPECT_EQ(trim("hello"), "hello");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim(" a b "), "a b");
}

TEST(Strutil, SplitKeepsEmptyFields)
{
    const auto parts = split("a,,b,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
    EXPECT_EQ(parts[3], "");
}

TEST(Strutil, SplitWhitespaceDropsEmptyFields)
{
    const auto parts = splitWhitespace("  x2   x3\tx4\n");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "x2");
    EXPECT_EQ(parts[2], "x4");
    EXPECT_TRUE(splitWhitespace("   ").empty());

    std::vector<std::string_view> views = {"stale"};
    splitWhitespaceInto(" a\tbc \r", views);
    EXPECT_EQ(views, (std::vector<std::string_view>{"a", "bc"}));
    splitWhitespaceInto("", views);
    EXPECT_TRUE(views.empty());
}

TEST(Strutil, JoinInterleavesSeparator)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strutil, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("population_3.pop", "population_"));
    EXPECT_FALSE(startsWith("pop", "population_"));
    EXPECT_TRUE(endsWith("population_3.pop", ".pop"));
    EXPECT_FALSE(endsWith("x", ".pop"));
}

TEST(Strutil, ReplaceAllReplacesEveryOccurrence)
{
    EXPECT_EQ(replaceAll("op1 op1 op12", "op1", "x5"), "x5 x5 x52");
    EXPECT_EQ(replaceAll("abc", "z", "y"), "abc");
    EXPECT_EQ(replaceAll("aaa", "aa", "b"), "ba");
}

TEST(Strutil, ParseIntAcceptsDecimalAndHex)
{
    EXPECT_EQ(parseInt("42", "t"), 42);
    EXPECT_EQ(parseInt("-7", "t"), -7);
    EXPECT_EQ(parseInt("0x10", "t"), 16);
    EXPECT_EQ(parseInt("  5  ", "t"), 5);
}

TEST(Strutil, ParseIntRejectsGarbage)
{
    EXPECT_THROW(parseInt("", "t"), FatalError);
    EXPECT_THROW(parseInt("12abc", "t"), FatalError);
    EXPECT_THROW(parseInt("abc", "t"), FatalError);
    EXPECT_THROW(parseInt("0x", "t"), FatalError);
}

TEST(Strutil, ParseIntRejectsOutOfRange)
{
    EXPECT_EQ(parseInt("9223372036854775807", "t"), INT64_MAX);
    EXPECT_EQ(parseInt("-9223372036854775808", "t"), INT64_MIN);
    EXPECT_THROW(parseInt("9223372036854775808", "t"), FatalError);
    EXPECT_THROW(parseInt("-9223372036854775809", "t"), FatalError);
    EXPECT_THROW(parseInt("18446744073709551615", "t"), FatalError);
    EXPECT_THROW(parseInt("0x8000000000000000", "t"), FatalError);
    EXPECT_EQ(parseUint64("18446744073709551615", "t"), UINT64_MAX);
    EXPECT_THROW(parseUint64("18446744073709551616", "t"), FatalError);
}

TEST(Strutil, LeadingZeroIsDecimal)
{
    EXPECT_EQ(parseInt("010", "t"), 10);
    EXPECT_EQ(parseInt("-010", "t"), -10);
    EXPECT_EQ(parseInt("+0x1F", "t"), 31);
    EXPECT_EQ(parseInt("-0x10", "t"), -16);
    EXPECT_EQ(parseInt("0", "t"), 0);
    EXPECT_EQ(parseInt("08", "t"), 8);
    EXPECT_EQ(parseUint64("010", "t"), 10u);
    EXPECT_EQ(parseUint64("0x10", "t"), 16u);
    EXPECT_EQ(parseUint64("0", "t"), 0u);
}

TEST(Strutil, ParseDoubleAndBool)
{
    EXPECT_DOUBLE_EQ(parseDouble("0.02", "t"), 0.02);
    EXPECT_THROW(parseDouble("x", "t"), FatalError);
    EXPECT_TRUE(parseBool("TRUE", "t"));
    EXPECT_TRUE(parseBool("1", "t"));
    EXPECT_FALSE(parseBool("false", "t"));
    EXPECT_FALSE(parseBool("no", "t"));
    EXPECT_THROW(parseBool("maybe", "t"), FatalError);
}

TEST(Strutil, ParseDoubleMatchesStrtodBitForBit)
{
    // Plain decimals take std::from_chars, the rest strtod(); both must
    // give strtod()'s double.
    std::vector<std::string> texts = {
        "0",     "-0",     ".5",       "5.",      "-.25",   "1e5",
        "1E-5",  "1e400",  "-1e400",   "1e-400",  "4.9e-324",
        "2.2250738585072011e-308",     "+1.5",    "0x1p-3", "inf",
        "-nan",  "  7.25 ", "0.1000000000000000055511151231257827"};
    Rng rng(5);
    for (int i = 0; i < 3000; ++i) {
        const double v = std::bit_cast<double>(rng.next());
        char buf[40];
        std::snprintf(buf, sizeof(buf), i % 3 ? "%.17g" : "%.6e", v);
        texts.push_back(buf);
    }
    for (const std::string& t : texts)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(parseDouble(t, "t")),
                  std::bit_cast<std::uint64_t>(
                      std::strtod(t.c_str(), nullptr)))
            << t;
}

TEST(Strutil, FormatFixedControlsPrecision)
{
    EXPECT_EQ(formatFixed(1.3, 2), "1.30");
    EXPECT_EQ(formatFixed(1.333, 2), "1.33");
    EXPECT_EQ(formatFixed(-0.5, 1), "-0.5");
}

TEST(Fileutil, WriteReadRoundTrip)
{
    const std::string dir = makeTempDir("gest-test");
    const std::string path = dir + "/sub/dir/file.txt";
    writeFile(path, "contents\nline2");
    EXPECT_TRUE(fileExists(path));
    EXPECT_EQ(readFile(path), "contents\nline2");
    removeAll(dir);
    EXPECT_FALSE(fileExists(path));
}

TEST(Fileutil, TryReadMissingFileReturnsFalse)
{
    std::string out;
    EXPECT_FALSE(tryReadFile("/nonexistent/gest/file", out));
    EXPECT_THROW(readFile("/nonexistent/gest/file"), FatalError);
}

TEST(Fileutil, AppendTruncatesThenAppends)
{
    const std::string dir = makeTempDir("gest-test");
    const std::string path = dir + "/ledger.csv";
    writeFile(path, "stale\n");
    appendFile(path, "header\n", /*truncate=*/true);
    appendFile(path, "row 0\n");
    appendFile(path, "row 1\n");
    EXPECT_EQ(readFile(path), "header\nrow 0\nrow 1\n");
    removeAll(dir);
}

/** @return the message of the FatalError @p write throws, or "". */
template <typename Write>
std::string
fatalMessage(Write write)
{
    try {
        write();
    } catch (const FatalError& err) {
        return err.what();
    }
    return "";
}

TEST(Fileutil, SmallWritesToAFullDiskFail)
{
    // A one-row payload stays in the stream buffer until close: the
    // error must still surface, naming the file.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this system";
    const std::string row = "0,1.5,abc\n";
    EXPECT_NE(fatalMessage([&] { appendFile("/dev/full", row); })
                  .find("'/dev/full'"),
              std::string::npos);
    EXPECT_NE(fatalMessage([&] { appendFile("/dev/full", row, true); })
                  .find("'/dev/full'"),
              std::string::npos);
    EXPECT_NE(fatalMessage([&] { writeFile("/dev/full", row); })
                  .find("short write to '/dev/full'"),
              std::string::npos);
}

TEST(Fileutil, ListFilesSorted)
{
    const std::string dir = makeTempDir("gest-test");
    writeFile(dir + "/b.txt", "b");
    writeFile(dir + "/a.txt", "a");
    writeFile(dir + "/c.txt", "c");
    const auto files = listFiles(dir);
    ASSERT_EQ(files.size(), 3u);
    EXPECT_EQ(files[0], "a.txt");
    EXPECT_EQ(files[2], "c.txt");
    removeAll(dir);
}

TEST(Logging, FatalThrowsCatchableError)
{
    try {
        fatal("bad ", 42, " thing");
        FAIL() << "fatal() returned";
    } catch (const FatalError& err) {
        EXPECT_STREQ(err.what(), "bad 42 thing");
    }
}

TEST(Logging, QuietFlagRoundTrip)
{
    const bool before = quiet();
    setQuiet(true);
    EXPECT_TRUE(quiet());
    setQuiet(false);
    EXPECT_FALSE(quiet());
    setQuiet(before);
}

TEST(Random, DeterministicFromSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Random, NextBelowStaysInBounds)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Random, NextBelowCoversAllValues)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.nextBelow(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Random, NextRangeInclusive)
{
    Rng rng(3);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.nextRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo = saw_lo || v == -2;
        saw_hi = saw_hi || v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Random, NextDoubleInUnitInterval)
{
    Rng rng(5);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Random, NextBoolEdgeProbabilities)
{
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.nextBool(0.0));
        EXPECT_TRUE(rng.nextBool(1.0));
    }
}

TEST(Random, NextBoolApproximatesProbability)
{
    Rng rng(13);
    int heads = 0;
    for (int i = 0; i < 10000; ++i)
        heads += rng.nextBool(0.02);
    EXPECT_NEAR(heads / 10000.0, 0.02, 0.01);
}

TEST(Random, PickReturnsElementOfVector)
{
    Rng rng(17);
    const std::vector<int> values{10, 20, 30};
    for (int i = 0; i < 50; ++i) {
        const int v = rng.pick(values);
        EXPECT_TRUE(v == 10 || v == 20 || v == 30);
    }
}

TEST(Random, StateRoundTrip)
{
    Rng rng(21);
    rng.next();
    const auto state = rng.state();
    const std::uint64_t expected = rng.next();
    rng.setState(state);
    EXPECT_EQ(rng.next(), expected);
}

TEST(Random, SplitProducesIndependentStream)
{
    Rng rng(33);
    Rng child = rng.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += rng.next() == child.next();
    EXPECT_LT(same, 4);
}

} // namespace
} // namespace gest
