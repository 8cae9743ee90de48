/**
 * @file
 * Unit tests for the cross-run observability layer: the GA health
 * watchdog's declarative rules against synthetic generation streams
 * (plateau, throughput collapse, non-finite fitness, clean run), the
 * alerts-ledger round trip, and the experiment registry — indexing a
 * workspace of mixed sealed/unsealed/corrupt runs, the CSV/JSON index
 * schema, `--filter` semantics and baseline regression screening.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "analysis/health.hh"
#include "analysis/lineage.hh"
#include "output/report.hh"
#include "output/top.hh"
#include "provenance/manifest.hh"
#include "registry/registry.hh"
#include "util/fileutil.hh"
#include "util/jsonlite.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace {

core::GenerationRecord
record(int generation, double best, double avg = 0.0)
{
    core::GenerationRecord rec;
    rec.generation = generation;
    rec.bestFitness = best;
    rec.averageFitness = avg == 0.0 ? best * 0.5 : avg;
    return rec;
}

/** A v2 history.csv with one row per (best, evaluation_ms) pair. */
void
writeHistory(const std::string& run_dir,
             const std::vector<std::pair<double, double>>& rows)
{
    ensureDir(run_dir);
    std::string text =
        "# gest-history v2\n"
        "generation,best_fitness,average_fitness,best_id,"
        "unique_instructions,diversity,cache_hits,cache_misses,"
        "selection_ms,crossover_ms,mutation_ms,evaluation_ms,io_ms\n";
    for (std::size_t gen = 0; gen < rows.size(); ++gen) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%zu,%.6f,%.6f,%zu,5,0.5,2,8,0.1,0.1,0.1,%.3f,"
                      "0.05\n",
                      gen, rows[gen].first, 0.5 * rows[gen].first,
                      gen + 1, rows[gen].second);
        text += line;
    }
    writeFile(run_dir + "/history.csv", text);
}

/** Seal a minimal-but-valid manifest.json into @p run_dir. */
void
writeManifest(const std::string& run_dir, const std::string& config_hash,
              std::uint64_t seed, double best_fitness,
              int generations = 4)
{
    ensureDir(run_dir);
    provenance::Manifest m;
    m.created = "2026-01-01T00:00:00Z";
    m.configHash = config_hash;
    m.measurementClass = "SimPowerMeasurement";
    m.fitnessClass = "DefaultFitness";
    m.hasSeed = true;
    m.seed = seed;
    m.gitSha = "deadbeefcafe";
    m.generations = generations;
    m.generationsCompleted = generations;
    m.evaluations = 32;
    m.bestFitness = best_fitness;
    m.bestId = 7;
    writeFile(run_dir + "/manifest.json",
              provenance::formatManifest(m));
}

// ------------------------------------------------ watchdog rules

TEST(HealthWatchdog, CleanImprovingRunRaisesNothing)
{
    const std::string dir = makeTempDir("gest-health");
    analysis::HealthWatchdog dog;
    dog.setCsvPath(dir + "/alerts.csv");

    for (int gen = 0; gen < 40; ++gen)
        dog.onGenerationEvaluated(record(gen, 1.0 + 0.1 * gen), 0, 0);

    EXPECT_TRUE(dog.alerts().empty());
    EXPECT_EQ(dog.summary().alerts, 0u);
    EXPECT_EQ(dog.summary().lastGeneration, -1);

    // The eager header leaves a schema-valid zero-row ledger: "no
    // alerts", not "not watched".
    std::vector<analysis::Alert> loaded;
    ASSERT_TRUE(analysis::loadAlerts(dir, loaded));
    EXPECT_TRUE(loaded.empty());
    removeAll(dir);
}

TEST(HealthWatchdog, PlateauFiresOnceAndLatches)
{
    analysis::HealthRules rules;
    rules.plateauGenerations = 5;
    analysis::HealthWatchdog dog(rules);

    dog.onGenerationEvaluated(record(0, 2.0), 0, 0);
    for (int gen = 1; gen <= 12; ++gen)
        dog.onGenerationEvaluated(record(gen, 2.0), 0, 0);  // flat

    // Latched: one alert for the whole stuck run, at the generation
    // where the streak first reached the threshold.
    ASSERT_EQ(dog.alerts().size(), 1u);
    const analysis::Alert& alert = dog.alerts().front();
    EXPECT_EQ(alert.rule, "fitness_plateau");
    EXPECT_EQ(alert.severity, "warning");
    EXPECT_EQ(alert.generation, 5);
    EXPECT_DOUBLE_EQ(alert.threshold, 5.0);
    EXPECT_EQ(dog.summary().lastRule, "fitness_plateau");
}

TEST(HealthWatchdog, EqualFitnessIsNotAnImprovement)
{
    analysis::HealthRules rules;
    rules.plateauGenerations = 3;
    analysis::HealthWatchdog dog(rules);

    // A strict improvement resets the streak; ties do not.
    dog.onGenerationEvaluated(record(0, 1.0), 0, 0);
    dog.onGenerationEvaluated(record(1, 1.0), 0, 0);
    dog.onGenerationEvaluated(record(2, 1.5), 0, 0);
    dog.onGenerationEvaluated(record(3, 1.5), 0, 0);
    dog.onGenerationEvaluated(record(4, 1.5), 0, 0);
    EXPECT_TRUE(dog.alerts().empty());
    dog.onGenerationEvaluated(record(5, 1.5), 0, 0);
    ASSERT_EQ(dog.alerts().size(), 1u);
    EXPECT_EQ(dog.alerts().front().rule, "fitness_plateau");
}

TEST(HealthWatchdog, NonFiniteFitnessIsCritical)
{
    analysis::HealthWatchdog dog;
    dog.onGenerationEvaluated(record(0, 1.0), 0, 0);
    dog.onGenerationEvaluated(
        record(1, std::numeric_limits<double>::quiet_NaN(), 0.5), 0, 0);

    ASSERT_EQ(dog.alerts().size(), 1u);
    EXPECT_EQ(dog.alerts().front().rule, "non_finite_fitness");
    EXPECT_EQ(dog.alerts().front().severity, "critical");
    EXPECT_EQ(dog.alerts().front().generation, 1);
    // The NaN it caught is the alert's value: null in /alerts and SSE.
    json::Value parsed;
    const std::string row = analysis::formatAlertJson(dog.alerts().front());
    ASSERT_TRUE(json::parse(row, parsed, nullptr)) << row;
    EXPECT_TRUE(parsed.find("value")->isNull());
}

TEST(HealthWatchdog, ThroughputCollapseAgainstRunMedian)
{
    analysis::HealthRules rules;
    rules.plateauGenerations = 0;  // isolate the throughput rule
    rules.throughputCollapseFactor = 4.0;
    rules.throughputMinGenerations = 4;
    analysis::HealthWatchdog dog(rules);

    for (int gen = 0; gen < 6; ++gen) {
        core::GenerationRecord rec = record(gen, 1.0 + gen);
        rec.cacheMisses = 100;
        rec.evaluationMs = 100.0;  // 1000 evals/sec
        dog.onGenerationEvaluated(rec, 0, 0);
    }
    EXPECT_TRUE(dog.alerts().empty());

    core::GenerationRecord slow = record(6, 10.0);
    slow.cacheMisses = 100;
    slow.evaluationMs = 10000.0;  // 10 evals/sec < 1000/4
    dog.onGenerationEvaluated(slow, 0, 0);

    ASSERT_EQ(dog.alerts().size(), 1u);
    const analysis::Alert& alert = dog.alerts().front();
    EXPECT_EQ(alert.rule, "throughput_collapse");
    EXPECT_NEAR(alert.value, 10.0, 1e-9);
    EXPECT_NEAR(alert.threshold, 250.0, 1e-9);
}

TEST(HealthWatchdog, CoverageStallNeedsTicks)
{
    analysis::HealthRules rules;
    rules.plateauGenerations = 0;
    rules.coverageStallGenerations = 3;
    analysis::HealthWatchdog dog(rules);

    // Without ticks the rule stays disarmed no matter how many
    // generations pass.
    for (int gen = 0; gen < 10; ++gen)
        dog.onGenerationEvaluated(record(gen, 1.0 + gen), 0, 0);
    EXPECT_TRUE(dog.alerts().empty());

    // Fed ticks: three consecutive zero-new-cell generations trip it.
    for (int gen = 10; gen < 13; ++gen) {
        dog.noteCoverage(gen, 0);
        dog.onGenerationEvaluated(record(gen, 100.0 + gen), 0, 0);
    }
    ASSERT_EQ(dog.alerts().size(), 1u);
    EXPECT_EQ(dog.alerts().front().rule, "coverage_stall");
    EXPECT_EQ(dog.alerts().front().generation, 12);
}

TEST(HealthWatchdog, CacheFloorReadsTheRunTotals)
{
    analysis::HealthRules rules;
    rules.plateauGenerations = 0;
    rules.cacheHitRateFloor = 0.5;
    rules.cacheWarmupGenerations = 2;
    analysis::HealthWatchdog dog(rules);

    // Run totals of 30 hits in 40 resolutions sit above the floor.
    for (int gen = 0; gen < 4; ++gen)
        EXPECT_TRUE(
            dog.onGenerationEvaluated(record(gen, 1.0 + gen), 10, 30)
                .empty());
    // 10 hits in 50 fall below it: the rule trips once, on these totals.
    const std::vector<analysis::Alert> raised =
        dog.onGenerationEvaluated(record(4, 5.0), 40, 10);
    ASSERT_EQ(raised.size(), 1u);
    EXPECT_EQ(raised[0].rule, "cache_hit_floor");
    EXPECT_DOUBLE_EQ(raised[0].value, 0.2);
    EXPECT_EQ(dog.alerts().size(), 1u);
}

TEST(HealthWatchdog, AlertsLedgerRoundTrips)
{
    const std::string dir = makeTempDir("gest-health");
    analysis::HealthRules rules;
    rules.plateauGenerations = 2;
    analysis::HealthWatchdog dog(rules);
    dog.setCsvPath(dir + "/alerts.csv");

    std::size_t raised =
        dog.onGenerationEvaluated(record(0, 3.0), 0, 0).size();
    for (int gen = 1; gen <= 4; ++gen)
        raised +=
            dog.onGenerationEvaluated(record(gen, 3.0), 0, 0).size();
    ASSERT_EQ(dog.alerts().size(), 1u);
    EXPECT_EQ(raised, 1u);  // each alert is returned once, when raised

    std::vector<analysis::Alert> loaded;
    ASSERT_TRUE(analysis::loadAlerts(dir, loaded));
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].rule, dog.alerts()[0].rule);
    EXPECT_EQ(loaded[0].generation, dog.alerts()[0].generation);
    EXPECT_EQ(loaded[0].severity, dog.alerts()[0].severity);
    EXPECT_EQ(loaded[0].message, dog.alerts()[0].message);
    // Messages are comma-free by construction: the 6-field split is
    // exact.
    EXPECT_EQ(loaded[0].message.find(','), std::string::npos);

    // The JSON projection of an alert must parse.
    json::Value parsed;
    ASSERT_TRUE(
        json::parse(analysis::formatAlertJson(loaded[0]), parsed, nullptr));
    EXPECT_EQ(parsed.stringOr("rule", ""), "fitness_plateau");
    removeAll(dir);
}

TEST(HealthWatchdog, LoadAlertsRejectsLaterSchema)
{
    const std::string dir = makeTempDir("gest-health");
    writeFile(dir + "/alerts.csv",
              "# gest-alerts v2\n"
              "generation,rule,severity,value,threshold,message\n");
    std::vector<analysis::Alert> loaded;
    EXPECT_THROW(analysis::loadAlerts(dir, loaded), FatalError);
    std::vector<analysis::Alert> none;
    EXPECT_FALSE(analysis::loadAlerts(dir + "/absent", none));
    removeAll(dir);
}

// ------------------------------------------------ experiment registry

TEST(Registry, IndexesMixedWorkspace)
{
    const std::string ws = makeTempDir("gest-registry");

    writeManifest(ws + "/sealed", "hash-a", 21, 4.5);
    writeHistory(ws + "/sealed", {{1.0, 2.0}, {4.5, 2.0}});

    writeHistory(ws + "/unsealed", {{1.0, 2.0}, {2.0, 2.0}, {3.0, 2.0}});
    writeFile(ws + "/unsealed/run_configuration.xml",
              "<gest_configuration><ga population_size=\"4\"/>"
              "</gest_configuration>");
    writeFile(ws + "/unsealed/status.json",
              "{\"state\": \"running\", \"total_generations\": 12, "
              "\"listen\": \"127.0.0.1:9\"}");

    ensureDir(ws + "/corrupt");
    writeFile(ws + "/corrupt/manifest.json", "{ not json ");

    ensureDir(ws + "/not_a_run");
    writeFile(ws + "/not_a_run/notes.txt", "nothing to see");

    const std::vector<registry::RunEntry> entries =
        registry::scanWorkspace(ws);
    ASSERT_EQ(entries.size(), 3u);  // not_a_run skipped; sorted by name

    EXPECT_EQ(entries[0].name, "corrupt");
    EXPECT_EQ(entries[0].status, "corrupt");
    EXPECT_FALSE(entries[0].note.empty());

    EXPECT_EQ(entries[1].name, "sealed");
    EXPECT_EQ(entries[1].status, "sealed");
    EXPECT_EQ(entries[1].state, "completed");
    EXPECT_EQ(entries[1].configHash, "hash-a");
    EXPECT_TRUE(entries[1].hasSeed);
    EXPECT_EQ(entries[1].seed, 21u);
    EXPECT_EQ(entries[1].gitSha, "deadbeefcafe");
    EXPECT_DOUBLE_EQ(entries[1].bestFitness, 4.5);
    EXPECT_EQ(entries[1].generations, 4);

    EXPECT_EQ(entries[2].name, "unsealed");
    EXPECT_EQ(entries[2].status, "unsealed");
    EXPECT_EQ(entries[2].state, "running");
    EXPECT_EQ(entries[2].generationsCompleted, 3);
    EXPECT_EQ(entries[2].generations, 12);  // from status.json
    EXPECT_EQ(entries[2].listen, "127.0.0.1:9");
    EXPECT_FALSE(entries[2].configHash.empty());
    EXPECT_DOUBLE_EQ(entries[2].bestFitness, 3.0);

    removeAll(ws);
}

TEST(Registry, CsvIsWrittenAndJsonIsOnlyRendered)
{
    const std::string ws = makeTempDir("gest-registry");
    writeManifest(ws + "/a", "hash-a", 1, 2.0);
    writeHistory(ws + "/a", {{2.0, 1.0}});
    const std::vector<registry::RunEntry> entries =
        registry::scanWorkspace(ws);

    const std::string csv = registry::formatRegistryCsv(entries);
    const std::vector<std::string> lines = split(csv, '\n');
    ASSERT_GE(lines.size(), 3u);
    EXPECT_EQ(lines[0], "# gest-registry v1");
    EXPECT_TRUE(startsWith(lines[1], "run,status,state,config_hash,"));
    // One data row per entry, every row column-complete.
    const std::size_t columns = split(lines[1], ',').size();
    EXPECT_EQ(split(lines[2], ',').size(), columns);

    json::Value parsed;
    ASSERT_TRUE(json::parse(registry::formatRegistryJson(ws, entries),
                            parsed, nullptr));
    EXPECT_EQ(parsed.numberOr("gest_registry_version", 0), 1.0);
    const json::Value* runs = parsed.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_TRUE(runs->isArray());
    ASSERT_EQ(runs->array.size(), 1u);
    EXPECT_EQ(runs->array[0].stringOr("run", ""), "a");
    EXPECT_EQ(runs->array[0].stringOr("seed", ""), "1");

    const std::string csv_path = registry::writeRegistry(ws, entries);
    EXPECT_TRUE(fileExists(csv_path));
    EXPECT_FALSE(fileExists(ws + "/registry.json"));
    removeAll(ws);
}

TEST(Registry, JsonStaysValidForLongAndQuotedFields)
{
    const std::string ws = makeTempDir("gest-registry");
    writeHistory(ws + "/quoted", {{1.0, 2.0}});
    writeFile(ws + "/quoted/status.json",
              "{\"state\": \"half \\\"done\\\"\", "
              "\"total_generations\": 3}");
    const std::vector<registry::RunEntry> entries =
        registry::scanWorkspace(ws);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].state, "half \"done\"");
    json::Value parsed;
    ASSERT_TRUE(json::parse(registry::formatRegistryJson(ws, entries),
                            parsed, nullptr));
    EXPECT_EQ(parsed.find("runs")->array[0].stringOr("state", ""),
              "half \"done\"");

    registry::BaselineComparison cmp;
    cmp.baseline = std::string(300, 'b');
    cmp.candidate = std::string(300, 'c');
    cmp.error = std::string(300, 'e') + "\"";
    const std::string text = registry::formatBaselineJson({cmp, cmp});
    ASSERT_TRUE(json::parse(text, parsed, nullptr)) << text;
    ASSERT_TRUE(parsed.isArray());
    ASSERT_EQ(parsed.array.size(), 2u);
    EXPECT_EQ(parsed.array[1].stringOr("candidate", ""), cmp.candidate);
    EXPECT_EQ(parsed.array[1].stringOr("error", ""), cmp.error);
    removeAll(ws);
}

TEST(Registry, CommasInStateAndHashKeepTheCsvColumns)
{
    const std::string ws = makeTempDir("gest-registry");
    writeManifest(ws + "/sealed", "hash,with,commas", 1, 2.0);
    writeFile(ws + "/sealed/status.json",
              "{\"state\": \"odd,state\", \"total_generations\": 4}");
    const std::vector<registry::RunEntry> entries =
        registry::scanWorkspace(ws);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].state, "odd,state");
    EXPECT_EQ(entries[0].configHash, "hash,with,commas");

    const std::vector<std::string> lines =
        split(registry::formatRegistryCsv(entries), '\n');
    ASSERT_GE(lines.size(), 3u);
    const std::vector<std::string> header = split(lines[1], ',');
    const std::vector<std::string> row = split(lines[2], ',');
    ASSERT_EQ(row.size(), header.size()) << lines[2];
    EXPECT_EQ(row[2], "odd;state");
    EXPECT_EQ(row[3], "hash;with;commas");
    // --filter and the JSON index keep the recorded text.
    EXPECT_TRUE(registry::matchesFilter(entries[0], "state", "odd,"));
    json::Value parsed;
    ASSERT_TRUE(json::parse(registry::formatRegistryJson(ws, entries),
                            parsed, nullptr));
    EXPECT_EQ(parsed.find("runs")->array[0].stringOr("config_hash", ""),
              "hash,with,commas");
    removeAll(ws);
}

TEST(Registry, NonFiniteFitnessIsJsonNull)
{
    const std::string ws = makeTempDir("gest-registry");
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    writeHistory(ws + "/nan", {{nan, 2.0}});
    writeHistory(ws + "/inf", {{1.0, 2.0}, {inf, 2.0}});
    const std::vector<registry::RunEntry> entries =
        registry::scanWorkspace(ws);
    ASSERT_EQ(entries.size(), 2u);

    json::Value parsed;
    const std::string runs = registry::formatRegistryJson(ws, entries);
    ASSERT_TRUE(json::parse(runs, parsed, nullptr)) << runs;
    for (const json::Value& run : parsed.find("runs")->array) {
        ASSERT_NE(run.find("best_fitness"), nullptr);
        EXPECT_TRUE(run.find("best_fitness")->isNull()) << runs;
    }
    for (const char* name : {"nan", "inf"}) {
        const std::string report =
            output::formatReportJson(output::analyzeRun(ws + "/" + name));
        ASSERT_TRUE(json::parse(report, parsed, nullptr)) << report;
        EXPECT_TRUE(parsed.find("best_fitness")->isNull()) << report;
    }
    removeAll(ws);
}

TEST(Registry, FilterMatchesExactAndPrefix)
{
    registry::RunEntry entry;
    entry.name = "night_run_01";
    entry.state = "completed";
    entry.configHash = "abcdef123456";
    entry.hasSeed = true;
    entry.seed = 42;

    EXPECT_TRUE(registry::matchesFilter(entry, "state", "completed"));
    EXPECT_FALSE(registry::matchesFilter(entry, "state", "running"));
    // Hash prefixes work like git's.
    EXPECT_TRUE(registry::matchesFilter(entry, "config_hash", "abcdef"));
    EXPECT_FALSE(registry::matchesFilter(entry, "config_hash", "bcd"));
    EXPECT_TRUE(registry::matchesFilter(entry, "seed", "42"));
    EXPECT_EQ(registry::entryField(entry, "no_such_column"), "");
}

TEST(Registry, SameTrajectoryCohortNeverFlagsARegression)
{
    const std::string ws = makeTempDir("gest-registry");
    const std::vector<std::pair<double, double>> history = {
        {1.0, 2.0}, {2.0, 2.1}, {3.0, 1.9}, {3.5, 2.0}};

    writeManifest(ws + "/base", "hash-x", 7, 3.5);
    writeHistory(ws + "/base", history);
    writeManifest(ws + "/twin", "hash-x", 7, 3.5);
    writeHistory(ws + "/twin", history);
    // A different configuration never joins the cohort.
    writeManifest(ws + "/other", "hash-y", 7, 9.0);
    writeHistory(ws + "/other", {{9.0, 2.0}});

    const std::vector<registry::RunEntry> entries =
        registry::scanWorkspace(ws);
    const std::vector<registry::BaselineComparison> rows =
        registry::screenBaseline(ws, "base", entries);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].candidate, "twin");
    EXPECT_TRUE(rows[0].sameSeed);
    // Identical trajectories: the permutation test is exactly 1.
    EXPECT_DOUBLE_EQ(rows[0].fitnessP, 1.0);
    EXPECT_FALSE(rows[0].fitnessRegression);
    EXPECT_FALSE(rows[0].throughputDrift);

    // The baseline may also be named by path (trailing slash included).
    const std::vector<registry::BaselineComparison> by_path =
        registry::screenBaseline(ws, ws + "/base/", entries);
    EXPECT_EQ(by_path.size(), 1u);

    EXPECT_THROW(registry::screenBaseline(ws, "absent", entries),
                 FatalError);
    removeAll(ws);
}

TEST(Registry, RunKilledMidAppendReadsUpToItsLastCompleteRow)
{
    // A run killed in the middle of three appends: history.csv,
    // lineage.csv and alerts.csv each end in an unterminated row.
    const std::string ws = makeTempDir("gest-registry");
    const std::string run = ws + "/killed";
    writeHistory(run, {{1.0, 2.0}, {2.0, 2.0}, {3.0, 2.0}});
    appendFile(run + "/history.csv", "3,4.5,2.2");
    writeFile(run + "/lineage.csv",
              "# gest-lineage v1\n"
              "generation,id,op,parent1,parent2,mutated_genes,"
              "mutated_indices,fitness\n"
              "0,1,seed,0,0,0,,1.0\n"
              "1,2,mutation,1,1,1,4,2.0\n"
              "2,3,crossov");
    writeFile(run + "/alerts.csv",
              "# gest-alerts v1\n"
              "generation,rule,severity,value,threshold,message\n"
              "1,fitness_plateau,warning,1,1,no best-fitness improvement\n"
              "2,coverage_st");

    // gest runs
    const std::vector<registry::RunEntry> entries =
        registry::scanWorkspace(ws);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].generationsCompleted, 3);
    EXPECT_EQ(entries[0].alerts, 1u);
    EXPECT_EQ(entries[0].note, "");
    EXPECT_DOUBLE_EQ(entries[0].bestFitness, 3.0);

    // gest report / gest explain
    const output::RunReport report = output::analyzeRun(run);
    EXPECT_EQ(report.rows.size(), 3u);
    EXPECT_EQ(analysis::loadLineage(run).size(), 2u);

    // gest top: the frame shows the last complete generation and the
    // complete alert.
    output::TopSnapshot snapshot;
    ASSERT_TRUE(output::loadTopSnapshot(run, snapshot)) << snapshot.error;
    EXPECT_EQ(snapshot.generation, 2);
    EXPECT_DOUBLE_EQ(snapshot.bestFitness, 3.0);
    EXPECT_EQ(snapshot.bestTrajectory.size(), 3u);
    EXPECT_EQ(snapshot.alertsRaised, 1);

    // The torn row completes: the next frame shows it.
    appendFile(run + "/history.csv", ",4,5,0.5,2,8,0.1,0.1,0.1,2,0.05\n");
    ASSERT_TRUE(output::loadTopSnapshot(run, snapshot)) << snapshot.error;
    EXPECT_EQ(snapshot.generation, 3);
    EXPECT_DOUBLE_EQ(snapshot.bestFitness, 4.5);
    EXPECT_EQ(snapshot.bestTrajectory.size(), 4u);
    removeAll(ws);
}

TEST(Registry, DamagedLedgerIsReportedByFileAndLine)
{
    const std::string ws = makeTempDir("gest-registry");
    const std::string run = ws + "/damaged";
    writeHistory(run, {{1.0, 2.0}, {2.0, 2.0}});
    appendFile(run + "/history.csv", "2,3.0\n3,4.0,2,4,5,0.5,2,8,0,0,0,2,0\n");

    const std::vector<registry::RunEntry> entries =
        registry::scanWorkspace(ws);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_NE(entries[0].note.find("history.csv:5"), std::string::npos)
        << entries[0].note;

    output::TopSnapshot snapshot;
    EXPECT_FALSE(output::loadTopSnapshot(run, snapshot));
    EXPECT_NE(snapshot.error.find("history.csv:5"), std::string::npos)
        << snapshot.error;
    removeAll(ws);
}

TEST(Registry, IndexingReadsOnlyTheHistory)
{
    // gest runs indexes an unsealed run from history.csv alone: a
    // damaged analytics.csv neither hides the run nor becomes its note.
    const std::string ws = makeTempDir("gest-registry");
    const std::string run = ws + "/unsealed";
    writeHistory(run, {{1.0, 2.0}, {2.5, 2.0}});
    writeFile(run + "/analytics.csv", "# gest-analytics v1\n"
                                      "generation,mix_short_int\n"
                                      "0\n");

    const std::vector<registry::RunEntry> entries =
        registry::scanWorkspace(ws);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].note, "");
    EXPECT_EQ(entries[0].generationsCompleted, 2);
    EXPECT_DOUBLE_EQ(entries[0].bestFitness, 2.5);
    EXPECT_THROW(output::analyzeRun(run), FatalError);
    removeAll(ws);
}

TEST(Registry, TopWaitsUntilTheFirstCompleteRow)
{
    const std::string ws = makeTempDir("gest-registry");
    const std::string run = ws + "/starting";
    output::TopSnapshot snapshot;

    // No history.csv, a header only, a torn first row: all waiting.
    ensureDir(run);
    ASSERT_TRUE(output::loadTopSnapshot(run, snapshot)) << snapshot.error;
    EXPECT_EQ(snapshot.state, "waiting for first generation");
    writeHistory(run, {});
    ASSERT_TRUE(output::loadTopSnapshot(run, snapshot)) << snapshot.error;
    EXPECT_EQ(snapshot.state, "waiting for first generation");
    EXPECT_NE(output::renderTop(snapshot).find("waiting for first "
                                               "generation"),
              std::string::npos);
    appendFile(run + "/history.csv", "0,1.5,0.7");
    ASSERT_TRUE(output::loadTopSnapshot(run, snapshot)) << snapshot.error;
    EXPECT_EQ(snapshot.state, "waiting for first generation");

    // A directory that does not exist is an error, not a wait.
    EXPECT_FALSE(output::loadTopSnapshot(ws + "/absent", snapshot));
    EXPECT_NE(snapshot.error.find("does not exist"), std::string::npos)
        << snapshot.error;
    removeAll(ws);
}

TEST(Registry, TopShowsAHistoryReplacedByAShorterFile)
{
    const std::string ws = makeTempDir("gest-registry");
    const std::string run = ws + "/rerun";
    writeHistory(run, {{1.0, 2.0}, {2.0, 2.0}, {3.0, 2.0}, {4.0, 2.0}});
    output::TopSnapshot snapshot;
    ASSERT_TRUE(output::loadTopSnapshot(run, snapshot)) << snapshot.error;
    EXPECT_EQ(snapshot.generation, 3);
    EXPECT_DOUBLE_EQ(snapshot.bestFitness, 4.0);

    // The run is restarted into the same directory: a shorter file.
    writeHistory(run, {{0.25, 2.0}, {0.5, 2.0}});
    ASSERT_TRUE(output::loadTopSnapshot(run, snapshot)) << snapshot.error;
    EXPECT_EQ(snapshot.generation, 1);
    EXPECT_DOUBLE_EQ(snapshot.bestFitness, 0.5);
    EXPECT_EQ(snapshot.bestTrajectory.size(), 2u);
    EXPECT_EQ(snapshot.evaluations, 16u);
    removeAll(ws);
}

TEST(Registry, ScanRejectsAMissingWorkspace)
{
    EXPECT_THROW(registry::scanWorkspace("/no/such/workspace"),
                 FatalError);
}

} // namespace
} // namespace gest
