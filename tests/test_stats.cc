/**
 * @file
 * Tests for the observability layer: the stats registry, the scoped
 * span, JSON escaping, the Chrome trace writer, the run-report
 * analyzer and the thread-pool worker ids that trace events rely on.
 */

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/telemetry.hh"
#include "output/report.hh"
#include "output/trace_writer.hh"
#include "stats/stats.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/strutil.hh"
#include "util/thread_pool.hh"

namespace {

using namespace gest;

/** Stats recording is a process-wide flag: save and restore it. */
class StatsTest : public ::testing::Test
{
  protected:
    void SetUp() override { _was = stats::enabled(); }
    void TearDown() override { stats::setEnabled(_was); }

  private:
    bool _was = false;
};

TEST_F(StatsTest, CounterGatedByEnabledFlag)
{
    stats::Counter& ctr = stats::StatsRegistry::instance().counter(
        "test.counter", "a test counter");
    stats::StatsRegistry::instance().resetValues();

    stats::setEnabled(false);
    ctr.inc();
    ctr.inc(10);
    EXPECT_EQ(ctr.value(), 0u);

    stats::setEnabled(true);
    ctr.inc();
    ctr.inc(10);
    EXPECT_EQ(ctr.value(), 11u);
}

TEST_F(StatsTest, RegistryReturnsSameObjectForSameName)
{
    stats::Counter& a =
        stats::StatsRegistry::instance().counter("test.same");
    stats::Counter& b =
        stats::StatsRegistry::instance().counter("test.same");
    EXPECT_EQ(&a, &b);

    stats::Histogram& h1 = stats::StatsRegistry::instance().histogram(
        "test.same_hist", "", 0.0, 10.0, 5);
    stats::Histogram& h2 = stats::StatsRegistry::instance().histogram(
        "test.same_hist", "", 0.0, 99.0, 7);
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(h2.numBuckets(), 5u); // first layout wins
}

TEST_F(StatsTest, GaugeSetAndAdd)
{
    stats::Gauge& g =
        stats::StatsRegistry::instance().gauge("test.gauge");
    stats::StatsRegistry::instance().resetValues();
    stats::setEnabled(true);
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.add(1.5);
    EXPECT_DOUBLE_EQ(g.value(), 4.0);
    stats::setEnabled(false);
    g.set(99.0);
    EXPECT_DOUBLE_EQ(g.value(), 4.0);
}

TEST_F(StatsTest, HistogramBucketsAndExtrema)
{
    stats::Histogram& h = stats::StatsRegistry::instance().histogram(
        "test.hist", "test histogram", 0.0, 10.0, 10);
    stats::StatsRegistry::instance().resetValues();
    stats::setEnabled(true);

    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.minSeen(), 0.0); // empty: defined as zero
    EXPECT_DOUBLE_EQ(h.maxSeen(), 0.0);

    h.sample(0.5);  // bucket 0
    h.sample(9.5);  // bucket 9
    h.sample(-3.0); // underflow
    h.sample(10.0); // hi is exclusive: overflow
    h.sample(42.0); // overflow

    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(9), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_DOUBLE_EQ(h.sum(), 59.0);
    EXPECT_DOUBLE_EQ(h.mean(), 11.8);
    EXPECT_DOUBLE_EQ(h.minSeen(), -3.0);
    EXPECT_DOUBLE_EQ(h.maxSeen(), 42.0);
    EXPECT_DOUBLE_EQ(h.bucketLo(3), 3.0);

    stats::StatsRegistry::instance().resetValues();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.bucketCount(9), 0u);
    EXPECT_DOUBLE_EQ(h.minSeen(), 0.0);
}

TEST_F(StatsTest, ScopedSpanSamplesOnlyWhenEnabled)
{
    stats::Histogram& h = stats::StatsRegistry::instance().histogram(
        "test.span", "", 0.0, 1e9, 4);
    stats::StatsRegistry::instance().resetValues();

    // Histogram only, no trace: stats off takes no sample.
    stats::setEnabled(false);
    {
        output::ScopedSpan span(h, nullptr, "test.span", "test");
    }
    EXPECT_EQ(h.count(), 0u);

    stats::setEnabled(true);
    for (int i = 0; i < 2; ++i) {
        output::ScopedSpan span(h, nullptr, "test.span", "test");
    }
    EXPECT_EQ(h.count(), 2u); // one sample per scope
}

TEST_F(StatsTest, ConcurrentRecordingIsConsistent)
{
    stats::Counter& ctr =
        stats::StatsRegistry::instance().counter("test.mt_counter");
    stats::Histogram& h = stats::StatsRegistry::instance().histogram(
        "test.mt_hist", "", 0.0, 8.0, 8);
    stats::StatsRegistry::instance().resetValues();
    stats::setEnabled(true);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                ctr.inc();
                h.sample(static_cast<double>(t % 8) + 0.5);
            }
        });
    }
    for (std::thread& t : threads)
        t.join();

    EXPECT_EQ(ctr.value(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(h.count(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    std::uint64_t in_buckets = 0;
    for (std::size_t i = 0; i < h.numBuckets(); ++i)
        in_buckets += h.bucketCount(i);
    EXPECT_EQ(in_buckets, h.count());
}

TEST_F(StatsTest, DumpsCarryNamesValuesAndEscaping)
{
    stats::StatsRegistry& reg = stats::StatsRegistry::instance();
    stats::Counter& ctr =
        reg.counter("test.dump_counter", "desc with \"quotes\"");
    reg.resetValues();
    stats::setEnabled(true);
    ctr.inc(7);

    const std::string text = net::renderPrometheusMetrics();
    EXPECT_NE(text.find("# HELP gest_test_dump_counter_total desc with "
                        "\"quotes\"\n"),
              std::string::npos);

    const std::string json = reg.jsonDump();
    EXPECT_NE(json.find("\"test.dump_counter\": 7"), std::string::npos);
    // The registry names() list is sorted and contains everything.
    const std::vector<std::string> names = reg.names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_NE(std::find(names.begin(), names.end(),
                        std::string("test.dump_counter")),
              names.end());
}

TEST_F(StatsTest, DumpsListStatsInNameOrder)
{
    stats::StatsRegistry& reg = stats::StatsRegistry::instance();
    reg.counter("test.order_b");
    reg.counter("test.order_a");
    reg.gauge("test.order_gauge_b");
    reg.gauge("test.order_gauge_a");
    reg.histogram("test.order_hist_b", "", 0.0, 1.0, 2);
    reg.histogram("test.order_hist_a", "", 0.0, 1.0, 2);

    const std::string json = reg.jsonDump();
    const std::string text = net::renderPrometheusMetrics();
    for (const char* kind : {"", "gauge_", "hist_"}) {
        const std::string a = std::string("test.order_") + kind + "a";
        const std::string b = std::string("test.order_") + kind + "b";
        ASSERT_NE(json.find('"' + a + '"'), std::string::npos) << a;
        EXPECT_LT(json.find('"' + a + '"'), json.find('"' + b + '"'))
            << a;
        const std::string prom_a =
            std::string("gest_test_order_") + kind + "a";
        const std::string prom_b =
            std::string("gest_test_order_") + kind + "b";
        ASSERT_NE(text.find(prom_a), std::string::npos) << prom_a;
        EXPECT_LT(text.find(prom_a), text.find(prom_b)) << prom_a;
    }
}

// ---------------------------------------------------------------- JSON

/** Minimal unescaper for round-trip checks of jsonEscape output. */
std::string
jsonUnescape(const std::string& s)
{
    std::string out;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\') {
            out += s[i];
            continue;
        }
        ++i;
        switch (s[i]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'f': out += '\f'; break;
          case 'b': out += '\b'; break;
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'u': {
              const int code =
                  std::stoi(s.substr(i + 1, 4), nullptr, 16);
              out += static_cast<char>(code);
              i += 4;
              break;
          }
          default: out += s[i];
        }
    }
    return out;
}

TEST(JsonEscape, RoundTripsQuotesNewlinesAndControlChars)
{
    const std::string nasty =
        "he said \"hi\"\nback\\slash\ttab\rret\fform\bbell\x01" "end";
    const std::string escaped = jsonEscape(nasty);
    EXPECT_EQ(escaped.find('\n'), std::string::npos);
    EXPECT_EQ(escaped.find('\r'), std::string::npos);
    EXPECT_NE(escaped.find("\\\""), std::string::npos);
    EXPECT_NE(escaped.find("\\u0001"), std::string::npos);
    EXPECT_EQ(jsonUnescape(escaped), nasty);
}

TEST(JsonEscape, PassesUtf8Through)
{
    const std::string utf8 = "grüße 測試 → done";
    EXPECT_EQ(jsonEscape(utf8), utf8);
    EXPECT_EQ(jsonUnescape(jsonEscape(utf8)), utf8);
}

// --------------------------------------------------------- TraceWriter

TEST(TraceWriter, EmitsValidEventsAndEscapesNames)
{
    const std::string dir = makeTempDir("gest-trace");
    output::TraceWriter trace(dir + "/trace.json");
    trace.setThreadName(0, "coordinator");
    trace.setThreadName(1, "worker \"zero\"\n");
    const double now = stats::nowUs();
    trace.completeEvent("phase \"one\"", "test", 0, now, 12.5,
                        {{"generation", 3.0}});
    trace.instantEvent("marker", "test", 1);
    // process_name metadata + 2 thread names + 1 complete + 1 instant.
    EXPECT_EQ(trace.eventCount(), 5u);

    const std::string json = trace.toJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("phase \\\"one\\\""), std::string::npos);
    EXPECT_NE(json.find("worker \\\"zero\\\"\\n"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("\"generation\":3"), std::string::npos);
    // No raw control characters may survive into the file.
    for (const char c : json)
        EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20);

    trace.finish();
    const std::string on_disk = readFile(dir + "/trace.json");
    EXPECT_EQ(on_disk, json);
    trace.finish(); // idempotent
}

TEST(TraceWriter, ClampsEventsBeforeItsEpochToZero)
{
    const std::string dir = makeTempDir("gest-trace");
    output::TraceWriter trace(dir + "/trace.json");
    trace.completeEvent("early", "test", 0, -1e12, 5.0);
    EXPECT_NE(trace.toJson().find("\"ts\":0.000"), std::string::npos);
}

// -------------------------------------------------------------- report

TEST(Report, AnalyzesAV2HistoryFile)
{
    const std::string dir = makeTempDir("gest-report");
    writeFile(dir + "/history.csv",
              "# gest-history v2\n"
              "generation,best_fitness,average_fitness,best_id,"
              "unique_instructions,diversity,cache_hits,cache_misses,"
              "selection_ms,crossover_ms,mutation_ms,evaluation_ms,"
              "io_ms\n"
              "0,1.5,1.0,3,10,0.9,0,20,0.1,0.2,0.3,40.0,2.0\n"
              "1,2.5,2.0,7,12,0.8,15,5,0.1,0.2,0.3,10.0,2.0\n");
    const output::RunReport report = output::analyzeRun(dir);
    EXPECT_EQ(report.historyVersion, 2);
    EXPECT_TRUE(report.hasTimings);
    ASSERT_EQ(report.rows.size(), 2u);
    EXPECT_DOUBLE_EQ(report.firstBest, 1.5);
    EXPECT_DOUBLE_EQ(report.bestFitness, 2.5);
    EXPECT_EQ(report.bestGeneration, 1);
    EXPECT_EQ(report.totalMeasured, 25u);
    EXPECT_EQ(report.totalCacheHits, 15u);
    EXPECT_DOUBLE_EQ(report.evaluationMs, 50.0);
    EXPECT_NEAR(report.cacheHitRate(), 15.0 / 40.0, 1e-12);
    EXPECT_NEAR(report.evaluationsPerSecond(), 25.0 / 0.05, 1e-9);

    const std::string text = output::formatReport(report);
    EXPECT_NE(text.find("phase breakdown"), std::string::npos);
    EXPECT_NE(text.find("evaluation"), std::string::npos);
    EXPECT_NE(text.find("hit rate"), std::string::npos);
    EXPECT_NE(text.find("evaluations/sec"), std::string::npos);
}

TEST(Report, ReadsV1FilesWithoutTimingColumns)
{
    const std::string dir = makeTempDir("gest-report");
    writeFile(dir + "/history.csv",
              "generation,best_fitness,average_fitness,best_id,"
              "unique_instructions,diversity,cache_hits,cache_misses\n"
              "0,1.5,1.0,3,10,0.9,2,18\n");
    const output::RunReport report = output::analyzeRun(dir);
    EXPECT_EQ(report.historyVersion, 1);
    EXPECT_FALSE(report.hasTimings);
    EXPECT_EQ(report.totalMeasured, 18u);
    EXPECT_DOUBLE_EQ(report.evaluationsPerSecond(), 0.0);
    const std::string text = output::formatReport(report);
    EXPECT_NE(text.find("predates"), std::string::npos);
}

TEST(Report, FatalsWithActionableMessages)
{
    try {
        output::analyzeRun("/nonexistent/run/dir");
        FAIL() << "expected fatal()";
    } catch (const FatalError& err) {
        EXPECT_NE(std::string(err.what()).find("does not exist"),
                  std::string::npos);
    }

    const std::string empty = makeTempDir("gest-report");
    try {
        output::analyzeRun(empty);
        FAIL() << "expected fatal()";
    } catch (const FatalError& err) {
        EXPECT_NE(std::string(err.what()).find("history.csv"),
                  std::string::npos);
        EXPECT_NE(std::string(err.what()).find("run directory"),
                  std::string::npos);
    }

    const std::string truncated = makeTempDir("gest-report");
    writeFile(truncated + "/history.csv",
              "# gest-history v2\n"
              "generation,best_fitness,average_fitness,best_id,"
              "unique_instructions,diversity,cache_hits,cache_misses,"
              "selection_ms,crossover_ms,mutation_ms,evaluation_ms,"
              "io_ms\n"
              "0,1.5,1.0,3,10,0.9,0,20,0.1,0.2,0.3,40.0,2.0\n"
              "1,2.5,2.0\n");
    try {
        output::analyzeRun(truncated);
        FAIL() << "expected fatal()";
    } catch (const FatalError& err) {
        EXPECT_NE(std::string(err.what()).find("truncated"),
                  std::string::npos);
    }

    const std::string headless = makeTempDir("gest-report");
    writeFile(headless + "/history.csv", "");
    EXPECT_THROW(output::analyzeRun(headless), FatalError);
}

TEST(Report, HandlesDegenerateHistoriesWithoutDivisionByZero)
{
    // Single row, zero duration everywhere, zero first-gen best, no
    // cache traffic: every ratio in the report must degrade to 0 or
    // "n/a", never inf/nan.
    const std::string dir = makeTempDir("gest-report");
    writeFile(dir + "/history.csv",
              "# gest-history v2\n"
              "generation,best_fitness,average_fitness,best_id,"
              "unique_instructions,diversity,cache_hits,cache_misses,"
              "selection_ms,crossover_ms,mutation_ms,evaluation_ms,"
              "io_ms\n"
              "0,0.0,0.0,1,0,0.0,0,0,0,0,0,0,0\n");
    const output::RunReport report = output::analyzeRun(dir);
    ASSERT_EQ(report.rows.size(), 1u);
    EXPECT_DOUBLE_EQ(report.cacheHitRate(), 0.0);
    EXPECT_DOUBLE_EQ(report.evaluationsPerSecond(), 0.0);

    const std::string text = output::formatReport(report);
    EXPECT_NE(text.find("throughput: n/a"), std::string::npos);
    EXPECT_EQ(text.find("inf"), std::string::npos);
    EXPECT_EQ(text.find("nan"), std::string::npos);
    // Zero first-gen best: the improvement percentage is omitted
    // rather than divided by zero.
    EXPECT_EQ(text.find("(+"), std::string::npos);

    const std::string json = output::formatReportJson(report);
    EXPECT_EQ(json.find("inf"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_NE(json.find("\"evaluations_per_second\": 0"),
              std::string::npos);
    EXPECT_NE(json.find("\"analytics\": null"), std::string::npos);
}

TEST(Report, JsonCarriesSummaryAndAnalytics)
{
    const std::string dir = makeTempDir("gest-report");
    writeFile(dir + "/history.csv",
              "# gest-history v2\n"
              "generation,best_fitness,average_fitness,best_id,"
              "unique_instructions,diversity,cache_hits,cache_misses,"
              "selection_ms,crossover_ms,mutation_ms,evaluation_ms,"
              "io_ms\n"
              "0,1.5,1.0,3,10,0.9,0,20,0.1,0.2,0.3,40.0,2.0\n"
              "1,2.5,2.0,7,12,0.8,15,5,0.1,0.2,0.3,10.0,2.0\n");
    writeFile(dir + "/analytics.csv",
              "# gest-analytics v1\n"
              "generation,mix_short_int,mix_long_int,mix_float_simd,"
              "mix_mem,mix_branch,mix_nop,gene_entropy_bits,"
              "pairwise_diversity,fitness_min,fitness_q1,"
              "fitness_median,fitness_q3,fitness_max,"
              "crossover_children,crossover_improved,mutation_children,"
              "mutation_improved,elite_copies\n"
              "0,4,3,2,1,0,0,2.0,0.9,0.5,0.6,0.7,0.8,1.5,0,0,0,0,0\n"
              "1,5,2,2,1,0,0,1.5,0.75,0.6,0.7,0.8,0.9,2.5,3,1,4,2,1\n");
    const output::RunReport report = output::analyzeRun(dir);
    EXPECT_TRUE(report.hasAnalytics);
    EXPECT_DOUBLE_EQ(report.finalGeneEntropyBits, 1.5);
    EXPECT_DOUBLE_EQ(report.finalPairwiseDiversity, 0.75);
    EXPECT_EQ(report.crossoverChildren, 3u);
    EXPECT_EQ(report.mutationImproved, 2u);
    EXPECT_EQ(report.eliteCopies, 1u);

    const std::string text = output::formatReport(report);
    EXPECT_NE(text.find("evolution analytics"), std::string::npos);
    EXPECT_NE(text.find("crossover"), std::string::npos);

    const std::string json = output::formatReportJson(report);
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"generations\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"best_fitness\": 2.5"), std::string::npos);
    EXPECT_NE(json.find("\"phase_ms\""), std::string::npos);
    EXPECT_NE(json.find("\"crossover_children\": 3"),
              std::string::npos);
    EXPECT_NE(json.find("\"mutation_improved\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"run_dir\": \"" + dir + "\""),
              std::string::npos);
}

TEST(Report, ReadsSteadyCountersFromMetricsJson)
{
    const std::string dir = makeTempDir("gest-report");
    writeFile(dir + "/history.csv",
              "# gest-history v2\n"
              "generation,best_fitness,average_fitness,best_id,"
              "unique_instructions,diversity,cache_hits,cache_misses,"
              "selection_ms,crossover_ms,mutation_ms,evaluation_ms,"
              "io_ms\n"
              "0,1.5,1.0,3,10,0.9,0,20,0.1,0.2,0.3,40.0,2.0\n");
    EXPECT_FALSE(output::analyzeRun(dir).hasSteadyStats);

    // A gauge of the same name ahead of the counters must not be read:
    // the lookup is scoped to the "counters" object.
    writeFile(dir + "/metrics.json",
              "{\n  \"version\": 1,\n"
              "  \"gauges\": {\"eval.steady_hits\": 999},\n"
              "  \"counters\": {\n"
              "    \"eval.steady_hits\": 12,\n"
              "    \"eval.cycles_simulated\": 123456789012,\n"
              "    \"eval.cycles_skipped\": 23456789012,\n"
              "    \"eval.cycles_tiled\": 9876543210,\n"
              "    \"measure.sim.evaluations\": 40\n"
              "  },\n  \"histograms\": {}\n}\n");
    const output::RunReport report = output::analyzeRun(dir);
    EXPECT_TRUE(report.hasSteadyStats);
    EXPECT_EQ(report.steadyHits, 12u);
    EXPECT_EQ(report.cyclesSimulated, 123456789012u);
    EXPECT_EQ(report.cyclesTiled, 9876543210u);
    EXPECT_EQ(report.simEvaluations, 40u);
    EXPECT_NE(output::formatReport(report).find(
                  "123456789012 cycles simulated (23456789012 skipped "
                  "idle), 9876543210 tiled"),
              std::string::npos);
}

// ------------------------------------------------------------ explain

TEST(Explain, ReconstructsAncestryAndFlagsPathologies)
{
    const std::string dir = makeTempDir("gest-explain");
    writeFile(dir + "/lineage.csv",
              "# gest-lineage v1\n"
              "generation,id,op,parent1,parent2,mutated_genes,"
              "mutated_indices,fitness\n"
              "0,1,seed,0,0,0,,1.0\n"
              "0,2,seed,0,0,0,,2.0\n"
              "1,3,crossover,1,2,0,,1.5\n"
              "2,4,mutation,3,2,2,0;5,3.0\n");
    // Twelve generations of flat best fitness, collapsed diversity and
    // fruitless mutation: all three pathology detectors should fire.
    std::string analytics =
        "# gest-analytics v1\n"
        "generation,mix_short_int,mix_long_int,mix_float_simd,"
        "mix_mem,mix_branch,mix_nop,gene_entropy_bits,"
        "pairwise_diversity,fitness_min,fitness_q1,fitness_median,"
        "fitness_q3,fitness_max,crossover_children,crossover_improved,"
        "mutation_children,mutation_improved,elite_copies\n";
    for (int g = 0; g < 12; ++g)
        analytics += std::to_string(g) +
                     ",6,0,0,0,0,0,0.0,0.01,3.0,3.0,3.0,3.0,3.0,"
                     "2,0,5,0,1\n";
    writeFile(dir + "/analytics.csv", analytics);

    const output::ExplainReport report = output::analyzeExplain(dir);
    ASSERT_EQ(report.events.size(), 4u);
    EXPECT_TRUE(report.ancestry.reachesGeneration0);
    EXPECT_EQ(report.ancestry.ancestorCount, 4u);
    EXPECT_GE(report.pathologies.size(), 3u);

    const std::string text = output::formatExplain(report);
    EXPECT_NE(text.find("champion: id 4"), std::string::npos);
    EXPECT_NE(text.find("born generation 2 by mutation"),
              std::string::npos);
    EXPECT_NE(text.find("primary descent line"), std::string::npos);
    EXPECT_NE(text.find("instruction-mix trajectory"),
              std::string::npos);
    EXPECT_NE(text.find("diversity collapse"), std::string::npos);
    EXPECT_NE(text.find("mutation starvation"), std::string::npos);
    EXPECT_NE(text.find("elite stagnation"), std::string::npos);
    // Actionable knobs are named, not just symptoms.
    EXPECT_NE(text.find("mutation_rate"), std::string::npos);
    EXPECT_NE(text.find("stagnation_limit"), std::string::npos);
}

TEST(Explain, HealthyRunReportsNoPathologies)
{
    const std::string dir = makeTempDir("gest-explain");
    writeFile(dir + "/lineage.csv",
              "# gest-lineage v1\n"
              "generation,id,op,parent1,parent2,mutated_genes,"
              "mutated_indices,fitness\n"
              "0,1,seed,0,0,0,,1.0\n"
              "1,2,mutation,1,1,1,3,2.0\n");
    writeFile(dir + "/analytics.csv",
              "# gest-analytics v1\n"
              "generation,mix_short_int,mix_long_int,mix_float_simd,"
              "mix_mem,mix_branch,mix_nop,gene_entropy_bits,"
              "pairwise_diversity,fitness_min,fitness_q1,"
              "fitness_median,fitness_q3,fitness_max,"
              "crossover_children,crossover_improved,mutation_children,"
              "mutation_improved,elite_copies\n"
              "0,3,3,0,0,0,0,2.0,0.8,0.5,0.6,0.7,0.8,1.0,0,0,0,0,0\n"
              "1,3,2,1,0,0,0,1.8,0.7,0.6,0.8,1.0,1.5,2.0,2,1,3,1,1\n");
    const output::ExplainReport report = output::analyzeExplain(dir);
    EXPECT_TRUE(report.pathologies.empty());
    const std::string text = output::formatExplain(report);
    EXPECT_NE(text.find("none detected"), std::string::npos);
}

TEST(Explain, MissingLedgerFatalsActionably)
{
    const std::string dir = makeTempDir("gest-explain");
    try {
        output::analyzeExplain(dir);
        FAIL() << "expected fatal()";
    } catch (const FatalError& err) {
        EXPECT_NE(std::string(err.what()).find("lineage.csv"),
                  std::string::npos);
    }
    EXPECT_THROW(output::analyzeExplain("/nonexistent/run"),
                 FatalError);
}

TEST(Explain, WorksWithoutAnalyticsTrajectory)
{
    // A ledger alone (analytics.csv missing) still explains ancestry.
    const std::string dir = makeTempDir("gest-explain");
    writeFile(dir + "/lineage.csv",
              "# gest-lineage v1\n"
              "generation,id,op,parent1,parent2,mutated_genes,"
              "mutated_indices,fitness\n"
              "0,1,seed,0,0,0,,1.0\n");
    const output::ExplainReport report = output::analyzeExplain(dir);
    EXPECT_TRUE(report.analytics.empty());
    EXPECT_TRUE(report.pathologies.empty());
    const std::string text = output::formatExplain(report);
    EXPECT_NE(text.find("champion: id 1"), std::string::npos);
    EXPECT_NE(text.find("instruction-mix trajectory: n/a"),
              std::string::npos);
}

// ---------------------------------------------------- ThreadPool ids

TEST(ThreadPoolIds, DenseStableIdsAndNames)
{
    EXPECT_EQ(util::ThreadPool::currentWorkerId(), -1);
    EXPECT_EQ(util::ThreadPool::workerName(-1), "coordinator");
    EXPECT_EQ(util::ThreadPool::workerName(2), "worker-2");

    constexpr int kWorkers = 4;
    util::ThreadPool pool(kWorkers);

    // Exactly one task per worker: every task blocks until all kWorkers
    // tasks have started, so no worker can take a second index. The ids
    // observed must then be each worker's own id — dense in [0, N).
    auto one_round = [&pool] {
        std::vector<int> seen(kWorkers, -2);
        std::atomic<int> started{0};
        pool.parallelFor(kWorkers, [&](std::size_t index, int worker) {
            seen[index] = util::ThreadPool::currentWorkerId();
            EXPECT_EQ(seen[index], worker);
            started.fetch_add(1);
            while (started.load() < kWorkers)
                std::this_thread::yield();
        });
        return std::set<int>(seen.begin(), seen.end());
    };

    const std::set<int> first = one_round();
    EXPECT_EQ(first, (std::set<int>{0, 1, 2, 3}));
    // Stability: the same thread keeps its id across parallelFor calls.
    const std::set<int> second = one_round();
    EXPECT_EQ(second, first);
}

} // namespace
