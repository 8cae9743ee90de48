/**
 * @file
 * Unit tests for the ledger module: every declared schema writes the
 * head its writer always wrote and reads its own rows back, v1 history
 * files without timing columns still read, newer versions and foreign
 * ledgers are refused by name, a torn last line is dropped and any
 * other short row is fatal with file:line.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "output/ledger.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace {

/** The message of the FatalError @p fn throws ("" when none). */
template <typename Fn>
std::string
fatalMessage(Fn fn)
{
    try {
        fn();
    } catch (const FatalError& err) {
        return err.what();
    }
    return "";
}

std::vector<std::vector<std::string>>
decodeCells(const ledger::Schema& schema, const std::string& text)
{
    std::vector<std::vector<std::string>> rows;
    ledger::decode(schema, schema.file, text,
                   [&](const ledger::Decoder& row) {
        std::vector<std::string> cells;
        for (const std::string& column : schema.columns)
            cells.push_back(row.text(column));
        rows.push_back(cells);
    });
    return rows;
}

/** Each schema with the exact head its writer has always emitted. */
struct Expected
{
    const ledger::Schema* schema;
    std::string preamble;
    std::string head;
};

std::vector<Expected>
expectedHeads()
{
    const std::string coverage_preamble =
        "# cells_total 9\n# class short_int cells 4\n";
    return {
        {&ledger::history, "",
         "# gest-history v2\n"
         "generation,best_fitness,average_fitness,best_id,"
         "unique_instructions,diversity,cache_hits,cache_misses,"
         "selection_ms,crossover_ms,mutation_ms,evaluation_ms,io_ms\n"},
        {&ledger::lineage, "",
         "# gest-lineage v1\n"
         "generation,id,op,parent1,parent2,mutated_genes,"
         "mutated_indices,fitness\n"},
        {&ledger::analytics, "",
         "# gest-analytics v1\n"
         "generation,mix_short_int,mix_long_int,mix_float_simd,mix_mem,"
         "mix_branch,mix_nop,gene_entropy_bits,pairwise_diversity,"
         "fitness_min,fitness_q1,fitness_median,fitness_q3,fitness_max,"
         "crossover_children,crossover_improved,mutation_children,"
         "mutation_improved,elite_copies\n"},
        {&ledger::digests, "",
         "# gest-digests v1\n"
         "generation,best_fitness,population_digest\n"},
        {&ledger::coverage, coverage_preamble,
         "# gest-coverage v1\n" + coverage_preamble +
             "generation,cells_new,cells_seen,cells_total,"
             "saturation_pct,novelty_rate,seen_short_int,seen_long_int,"
             "seen_float_simd,seen_mem,seen_branch,seen_nop\n"},
        {&ledger::alerts, "",
         "# gest-alerts v1\n"
         "generation,rule,severity,value,threshold,message\n"},
    };
}

TEST(Ledger, EverySchemaRoundTripsItsWritersBytes)
{
    const std::string dir = makeTempDir("gest-ledger");
    for (const Expected& expected : expectedHeads()) {
        const ledger::Schema& schema = *expected.schema;
        SCOPED_TRACE(schema.file);
        std::vector<std::vector<std::string>> rows;
        std::string text;
        for (int r = 0; r < 2; ++r) {
            std::vector<std::string> cells;
            for (std::size_t c = 0; c < schema.columns.size(); ++c)
                cells.push_back(std::to_string(r * 100 + int(c)) + ".5");
            std::string line;
            for (const std::string& cell : cells)
                line += (line.empty() ? "" : ",") + cell;
            text += line + "\n";
            rows.push_back(cells);
        }

        ledger::Writer writer(schema, dir + "/" + schema.file,
                              expected.preamble);
        writer.append(text.substr(0, text.find('\n') + 1));
        writer.append(text.substr(text.find('\n') + 1));
        const std::string bytes = readFile(writer.path());
        EXPECT_EQ(bytes, expected.head + text);
        EXPECT_EQ(decodeCells(schema, bytes), rows);
    }
    removeAll(dir);
}

TEST(Ledger, OpenWritesTheHeadAloneAndAReopenTruncates)
{
    const std::string dir = makeTempDir("gest-ledger");
    const std::string path = dir + "/alerts.csv";
    writeFile(path, "stale\n");
    ledger::Writer writer(ledger::alerts, path);
    writer.open();
    EXPECT_EQ(readFile(path),
              "# gest-alerts v1\n"
              "generation,rule,severity,value,threshold,message\n");
    writer.append("3,fitness_plateau,warning,20,20,stuck\n");
    const ledger::Decoder decoder =
        ledger::decode(ledger::alerts, path, readFile(path),
                       [](const ledger::Decoder& row) {
                           EXPECT_EQ(row.integer("generation"), 3);
                           EXPECT_EQ(row.text("message"), "stuck");
                       });
    EXPECT_TRUE(decoder.hasHeader());
    EXPECT_EQ(decoder.version(), 1);
    removeAll(dir);
}

TEST(Ledger, V1HistoryWithoutTimingColumnsStillReads)
{
    const std::string text =
        "generation,best_fitness,average_fitness,best_id,"
        "unique_instructions,diversity,cache_hits,cache_misses\n"
        "0,1.5,1.0,3,10,0.9,2,18\n";
    int rows = 0;
    const ledger::Decoder decoder = ledger::decode(
        ledger::history, "history.csv", text,
        [&](const ledger::Decoder& row) {
            ++rows;
            EXPECT_DOUBLE_EQ(row.number("best_fitness"), 1.5);
            EXPECT_DOUBLE_EQ(row.number("cache_misses"), 18.0);
            EXPECT_DOUBLE_EQ(row.number("evaluation_ms"), 0.0);
            EXPECT_EQ(row.text("io_ms"), "");
        });
    EXPECT_EQ(rows, 1);
    EXPECT_EQ(decoder.version(), 1);
    EXPECT_TRUE(decoder.has("cache_misses"));
    EXPECT_FALSE(decoder.has("evaluation_ms"));
}

TEST(Ledger, NewerVersionIsRejectedNamingTheFile)
{
    const std::string message = fatalMessage([] {
        ledger::decode(ledger::history, "runs/a/history.csv",
                       "# gest-history v3\ngeneration,best_fitness\n",
                       [](const ledger::Decoder&) {});
    });
    EXPECT_NE(message.find("runs/a/history.csv"), std::string::npos)
        << message;
    EXPECT_NE(message.find("v3"), std::string::npos) << message;
    // The version this build writes still reads.
    EXPECT_EQ(fatalMessage([] {
                  ledger::decode(ledger::history, "history.csv",
                                 "# gest-history v2\ngeneration\n",
                                 [](const ledger::Decoder&) {});
              }),
              "");
}

TEST(Ledger, ForeignLedgerAndForeignHeaderAreRejected)
{
    const std::string foreign = fatalMessage([] {
        ledger::decode(ledger::history, "history.csv",
                       "# gest-alerts v1\n"
                       "generation,rule,severity,value,threshold,"
                       "message\n",
                       [](const ledger::Decoder&) {});
    });
    EXPECT_NE(foreign.find("gest-alerts"), std::string::npos) << foreign;

    const std::string header = fatalMessage([] {
        ledger::decode(ledger::lineage, "lineage.csv", "time,value\n0,1\n",
                       [](const ledger::Decoder&) {});
    });
    EXPECT_NE(header.find("lineage.csv"), std::string::npos) << header;
    EXPECT_NE(header.find("'generation'"), std::string::npos) << header;
}

TEST(Ledger, UnterminatedLastLineIsATornAppendAndIsDropped)
{
    const std::string text = "# gest-digests v1\n"
                             "generation,best_fitness,population_digest\n"
                             "0,1.5,aa\n"
                             "1,2.5,b";
    std::vector<std::string> digests;
    ledger::decode(ledger::digests, "digests.csv", text,
                   [&](const ledger::Decoder& row) {
                       digests.push_back(row.text("population_digest"));
                   });
    EXPECT_EQ(digests, std::vector<std::string>{"aa"});

    // A torn header leaves no header at all, not a damaged one.
    const ledger::Decoder decoder = ledger::decode(
        ledger::digests, "digests.csv", "# gest-digests v1\ngenera",
        [](const ledger::Decoder&) { FAIL() << "no row expected"; });
    EXPECT_FALSE(decoder.hasHeader());
}

TEST(Ledger, TerminatedShortRowIsFatalWithFileAndLine)
{
    const std::string message = fatalMessage([] {
        ledger::decode(ledger::lineage, "run/lineage.csv",
                       "# gest-lineage v1\n"
                       "generation,id,op,parent1,parent2,mutated_genes,"
                       "mutated_indices,fitness\n"
                       "0,1,seed,0,0,0,,1.0\n"
                       "0,2,seed\n"
                       "0,3,seed,0,0,0,,1.0\n",
                       [](const ledger::Decoder&) {});
    });
    EXPECT_NE(message.find("run/lineage.csv:4"), std::string::npos)
        << message;
    EXPECT_NE(message.find("truncated"), std::string::npos) << message;

    const std::string malformed = fatalMessage([] {
        ledger::decode(ledger::digests, "digests.csv",
                       "generation,best_fitness,population_digest\n"
                       "zero,1.5,aa\n",
                       [](const ledger::Decoder& row) {
                           row.integer("generation");
                       });
    });
    EXPECT_NE(malformed.find("digests.csv:2"), std::string::npos)
        << malformed;
}

/** The generation cell @p cell of a digests.csv row read as an integer. */
std::int64_t
integerCell(const std::string& cell)
{
    std::int64_t value = -1;
    ledger::decode(ledger::digests, "digests.csv",
                   "generation,best_fitness,population_digest\n" + cell +
                       ",1.5,aa\n",
                   [&](const ledger::Decoder& row) {
                       value = row.integer("generation");
                   });
    return value;
}

TEST(Ledger, IntegerCellsReadAsParseIntReadsThem)
{
    // A leading zero is decimal, not octal.
    EXPECT_EQ(integerCell("010"), 10);
    EXPECT_EQ(integerCell("0"), 0);
    EXPECT_EQ(integerCell("999999999999999999"), 999999999999999999);
    EXPECT_EQ(integerCell("9223372036854775807"), INT64_MAX);
    EXPECT_EQ(integerCell("-7"), -7);
    EXPECT_EQ(integerCell("0x10"), 16);

    // Past INT64_MAX is an error with the cell's context, not a clamp.
    const std::string overflow =
        fatalMessage([] { integerCell("99999999999999999999"); });
    EXPECT_NE(overflow.find("digests.csv:2"), std::string::npos)
        << overflow;
    EXPECT_NE(overflow.find("generation"), std::string::npos) << overflow;
    EXPECT_NE(fatalMessage([] { integerCell("1.5"); }), "");
}

TEST(Ledger, IncrementalFeedMatchesWholeFileDecode)
{
    const std::string text = "# gest-history v2\n"
                             "generation,best_fitness\n"
                             "\n"
                             "0,1.5\n"
                             "1,2.5\n";
    ledger::Decoder decoder(ledger::history, "history.csv");
    std::vector<double> fed;
    for (const std::string& line : split(text, '\n')) {
        if (decoder.feed(line))
            fed.push_back(decoder.number("best_fitness"));
    }
    std::vector<double> whole;
    ledger::decode(ledger::history, "history.csv", text,
                   [&](const ledger::Decoder& row) {
                       whole.push_back(row.number("best_fitness"));
                   });
    EXPECT_EQ(fed, whole);
    EXPECT_EQ(whole, (std::vector<double>{1.5, 2.5}));
}

} // namespace
} // namespace gest
