/**
 * @file
 * Tests for the run pipeline (src/run/): with every per-generation sink
 * on, the status snapshot behind status.json and GET /status is exact
 * mid-run (digests_sealed counts the generation it describes), and the
 * final snapshot is the same bytes on disk and over HTTP and keeps the
 * last generation's search counters. The write
 * task never lets status.json run ahead of its generation's files,
 * rethrows a failed write on the caller, and traces on its own thread.
 * Checkpoints summarized after the run render the history.csv cells
 * the run wrote. The post-run seal writes the same artifacts and
 * manifest table at any thread count and however the run directory is
 * spelled, and its pooled attribution equals a serial one on every
 * champion.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/recorder.hh"
#include "attribution/attribution.hh"
#include "attribution/attribution_io.hh"
#include "config/config.hh"
#include "fitness/fitness.hh"
#include "measure/sim_measurements.hh"
#include "net/http_client.hh"
#include "net/telemetry.hh"
#include "output/ledger.hh"
#include "output/run_writer.hh"
#include "output/stats.hh"
#include "platform/platform.hh"
#include "provenance/manifest.hh"
#include "provenance/provenance.hh"
#include "run/pipeline.hh"
#include "stats/stats.hh"
#include "util/fileutil.hh"
#include "util/jsonlite.hh"
#include "util/random.hh"
#include "util/strutil.hh"

namespace gest {
namespace {

/** A status payload must count the digest of the generation it shows. */
void
expectExactDigests(const std::string& body)
{
    json::Value status;
    ASSERT_TRUE(json::parse(body, status, nullptr)) << body;
    EXPECT_EQ(status.numberOr("digests_sealed", -1.0),
              status.numberOr("generation", -2.0) + 1.0)
        << body;
}

const char kAllSinksConfig[] = R"(
<gest_configuration>
  <ga population_size="8" individual_size="8" generations="60" seed="3"
      tournament_size="2" threads="2"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a15"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="replaced" analytics="true" coverage="true"
          health="true" provenance="true" waveforms="2"
          listen="127.0.0.1:0"/>
</gest_configuration>
)";

const char kFiveGenerationConfig[] = R"(
<gest_configuration>
  <ga population_size="8" individual_size="8" generations="5" seed="11"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a15"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="replaced"/>
</gest_configuration>
)";

TEST(RunPipeline, CheckpointSummariesRenderTheHistoryCsvCells)
{
    const std::string dir = makeTempDir("gest-run");
    config::RunConfig cfg = config::parseConfig(kFiveGenerationConfig);
    cfg.outputDirectory = dir;
    config::runFromConfig(cfg);

    const std::vector<std::string>& columns = ledger::history.columns;
    std::vector<std::vector<std::string>> csv;
    ledger::decode(ledger::history, "history.csv",
                   readFile(dir + "/history.csv"),
                   [&](const ledger::Decoder& row) {
                       std::vector<std::string> cells;
                       for (const std::string& column : columns)
                           cells.push_back(row.text(column));
                       csv.push_back(cells);
                   });
    const std::vector<core::GenerationRecord> summaries =
        output::summarizeRun(cfg.library, dir);
    ASSERT_EQ(csv.size(), 5u);
    ASSERT_EQ(summaries.size(), 5u);
    for (std::size_t g = 0; g < summaries.size(); ++g) {
        const std::vector<std::string> cells =
            output::historyCells(summaries[g], 0.0);
        for (const char* column :
             {"generation", "best_fitness", "average_fitness", "best_id",
              "unique_instructions", "diversity"}) {
            const std::size_t at = static_cast<std::size_t>(
                std::find(columns.begin(), columns.end(), column) -
                columns.begin());
            EXPECT_EQ(cells[at], csv[g][at])
                << "generation " << g << ", " << column;
        }
    }
    removeAll(dir);
}

TEST(RunPipeline, LiveStatusCountsTheDigestOfItsGeneration)
{
    const std::string dir = makeTempDir("gest-run");
    config::RunConfig cfg = config::parseConfig(kAllSinksConfig);
    cfg.outputDirectory = dir;

    // The port is ephemeral: learn it from the status.json heartbeat,
    // then scrape /status until the run returns.
    std::atomic<bool> done{false};
    std::vector<std::string> bodies;
    std::thread scraper([&] {
        std::string listen;
        while (!done.load(std::memory_order_acquire)) {
            if (listen.empty()) {
                std::string text;
                json::Value doc;
                if (tryReadFile(dir + "/status.json", text) &&
                    json::parse(text, doc, nullptr))
                    listen = doc.stringOr("listen", "");
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                continue;
            }
            const net::HttpResult res = net::httpGet(listen + "/status");
            if (res.ok && res.status == 200)
                bodies.push_back(res.body);
        }
    });
    config::runFromConfig(cfg);
    done.store(true, std::memory_order_release);
    scraper.join();

    const std::string final_status = readFile(dir + "/status.json");
    EXPECT_NE(final_status.find("\"state\": \"completed\""),
              std::string::npos);
    expectExactDigests(final_status);

    // The completed status counts the search only; the stats dump also
    // counts the seal's two waveform captures.
    json::Value status, metrics;
    ASSERT_TRUE(json::parse(final_status, status, nullptr));
    ASSERT_TRUE(json::parse(readFile(dir + "/metrics.json"), metrics,
                            nullptr));
    const json::Value* counters = metrics.find("counters");
    ASSERT_TRUE(counters && counters->isObject());
    for (const char* key :
         {"steady_hits", "cycles_simulated", "cycles_tiled"})
        EXPECT_LE(status.numberOr(key, -1.0),
                  counters->numberOr(std::string("eval.") + key, -2.0))
            << key;
    EXPECT_LT(status.numberOr("cycles_simulated", -1.0),
              counters->numberOr("eval.cycles_simulated", -2.0));
    ASSERT_FALSE(bodies.empty());
    for (const std::string& body : bodies) {
        expectExactDigests(body);
        // A scrape that caught the run between completion and server
        // shutdown saw the final heartbeat itself.
        if (body.find("\"state\": \"completed\"") != std::string::npos) {
            EXPECT_EQ(body, final_status);
        }
    }
    removeAll(dir);
}

TEST(RunPipeline, FinalStatusIsOneSnapshotOnDiskAndOverHttp)
{
    const auto a15 = platform::cortexA15Platform();
    const isa::InstructionLibrary& lib = a15->library();
    measure::SimPowerMeasurement meas(lib, a15);
    fitness::DefaultFitness fit;
    core::GaParams params;
    params.populationSize = 8;
    params.individualSize = 8;
    params.generations = 6;
    params.tournamentSize = 2;
    params.seed = 4;
    params.threads = 2;
    core::Engine engine(params, lib, meas, fit);

    const std::string dir = makeTempDir("gest-run");
    run::RunPipeline pipeline(dir + "/status.json", params.generations);
    pipeline.recorder = std::make_unique<analysis::Recorder>(dir, lib);
    pipeline.coverage = std::make_unique<attribution::CoverageLedger>(lib);
    pipeline.watchdog = std::make_unique<analysis::HealthWatchdog>();
    pipeline.provenance =
        std::make_unique<provenance::ProvenanceRecorder>(dir);
    pipeline.telemetry = std::make_unique<net::TelemetryServer>(
        "127.0.0.1:0", lib, params.generations);
    pipeline.telemetry->start();
    pipeline.attach(engine);
    engine.run();
    pipeline.finish();

    const net::HttpResult res =
        net::httpGet(pipeline.telemetry->address() + "/status");
    pipeline.telemetry->stop();
    ASSERT_TRUE(res.ok && res.status == 200) << res.error;
    const std::string final_status = readFile(dir + "/status.json");
    EXPECT_EQ(res.body, final_status);
    EXPECT_NE(final_status.find("\"state\": \"completed\""),
              std::string::npos);
    EXPECT_NE(final_status.find("\"alerts\": {"), std::string::npos);
    expectExactDigests(final_status);
    removeAll(dir);
}

TEST(RunPipeline, CompletedStatusKeepsTheLastGenerationsCounters)
{
    const bool was = stats::enabled();
    stats::setEnabled(true);
    const auto a15 = platform::cortexA15Platform();
    const isa::InstructionLibrary& lib = a15->library();
    measure::SimPowerMeasurement meas(lib, a15);
    fitness::DefaultFitness fit;
    core::GaParams params;
    params.populationSize = 8;
    params.individualSize = 8;
    params.generations = 4;
    params.tournamentSize = 2;
    params.seed = 6;
    params.threads = 1;
    core::Engine engine(params, lib, meas, fit);

    const std::string dir = makeTempDir("gest-run");
    run::RunPipeline pipeline(dir + "/status.json", params.generations);
    pipeline.recorder = std::make_unique<analysis::Recorder>(dir, lib);
    pipeline.attach(engine);
    // Runs after the pipeline's own observer: the heartbeat on disk is
    // the one that generation just wrote.
    std::string last_running;
    engine.addGenerationObserver(
        [&](const core::Population&, const core::GenerationRecord&) {
            last_running = readFile(dir + "/status.json");
        });
    engine.run();
    // Post-run work on the same counters, as the seal's captures and
    // ablations do.
    meas.measure(engine.bestEver().code);
    pipeline.finish();

    json::Value running, completed;
    ASSERT_TRUE(json::parse(last_running, running, nullptr));
    ASSERT_TRUE(
        json::parse(readFile(dir + "/status.json"), completed, nullptr));
    EXPECT_EQ(completed.stringOr("state", ""), "completed");
    for (const char* key :
         {"steady_hits", "cycles_simulated", "cycles_tiled"})
        EXPECT_EQ(completed.numberOr(key, -1.0),
                  running.numberOr(key, -2.0))
            << key;
    const stats::Counter* simulated = nullptr;
    for (const stats::Counter* counter :
         stats::StatsRegistry::instance().counterList())
        if (counter->name() == "eval.cycles_simulated")
            simulated = counter;
    ASSERT_NE(simulated, nullptr);
    EXPECT_GT(static_cast<double>(simulated->value()),
              completed.numberOr("cycles_simulated", -1.0));
    stats::setEnabled(was);
    removeAll(dir);
}

/** Complete, non-comment, non-header lines of a CSV ledger. */
int
dataRows(const std::string& path)
{
    std::string text;
    if (!tryReadFile(path, text))
        return 0;
    int rows = 0;
    std::size_t begin = 0;
    for (std::size_t end = text.find('\n'); end != std::string::npos;
         begin = end + 1, end = text.find('\n', begin)) {
        const std::string line = text.substr(begin, end - begin);
        if (!line.empty() && line[0] != '#' &&
            line.rfind("generation,", 0) != 0)
            ++rows;
    }
    return rows;
}

const char kWriterConfig[] = R"(
<gest_configuration>
  <ga population_size="8" individual_size="8" generations="40" seed="5"
      tournament_size="2" threads="2"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a15"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="replaced" analytics="true" provenance="true"/>
</gest_configuration>
)";

TEST(RunPipeline, StatusNeverRunsAheadOfTheGenerationsFiles)
{
    const std::string dir = makeTempDir("gest-run");
    config::RunConfig cfg = config::parseConfig(kWriterConfig);
    cfg.outputDirectory = dir;

    // Read status.json first, then the files it vouches for: they only
    // grow, so whatever the poller finds afterwards must cover g.
    std::atomic<bool> done{false};
    int checked = 0;
    std::thread poller([&] {
        while (!done.load(std::memory_order_acquire)) {
            std::string text;
            json::Value status;
            if (!tryReadFile(dir + "/status.json", text) ||
                !json::parse(text, status, nullptr))
                continue;
            const int g =
                static_cast<int>(status.numberOr("generation", -1.0));
            ASSERT_GE(g, 0) << text;
            EXPECT_TRUE(fileExists(dir + "/population_" +
                                   std::to_string(g) + ".pop"))
                << "generation " << g;
            EXPECT_GE(dataRows(dir + "/history.csv"), g + 1);
            EXPECT_GE(dataRows(dir + "/digests.csv"), g + 1);
            ++checked;
        }
    });
    config::runFromConfig(cfg);
    done.store(true, std::memory_order_release);
    poller.join();

    EXPECT_GT(checked, 0);
    EXPECT_EQ(dataRows(dir + "/history.csv"), 40);
    EXPECT_EQ(dataRows(dir + "/digests.csv"), 40);
    removeAll(dir);
}

TEST(RunPipeline, AFailedWriteSurfacesAsFatalErrorOnTheCaller)
{
    const std::string dir = makeTempDir("gest-run");
    config::RunConfig cfg = config::parseConfig(kWriterConfig);
    cfg.outputDirectory = dir;
    cfg.ga.generations = 4;
    // A directory where generation 1's checkpoint belongs: the write
    // fails, and the run must rethrow rather than abort.
    const std::string blocker = dir + "/population_1.pop";
    ensureDir(blocker);

    std::string message;
    try {
        config::runFromConfig(cfg);
    } catch (const FatalError& err) {
        message = err.what();
    }
    EXPECT_NE(message.find(blocker), std::string::npos) << message;
    removeAll(dir);

    // The last generation's write fails: the error reaches the caller
    // before any seal step, and nothing is sealed.
    const std::string last_dir = makeTempDir("gest-run");
    cfg.outputDirectory = last_dir;
    cfg.waveformTopK = 3;
    cfg.recordAttribution = true;
    const std::string last_blocker = last_dir + "/population_" +
                                     std::to_string(cfg.ga.generations - 1) +
                                     ".pop";
    ensureDir(last_blocker);
    message.clear();
    try {
        config::runFromConfig(cfg);
    } catch (const FatalError& err) {
        message = err.what();
    }
    EXPECT_NE(message.find(last_blocker), std::string::npos) << message;
    EXPECT_FALSE(fileExists(last_dir + "/manifest.json"));
    removeAll(last_dir);
}

TEST(RunPipeline, RunDirIsWrittenOnTheCoordinator)
{
    const std::string dir = makeTempDir("gest-run");
    config::RunConfig cfg = config::parseConfig(kWriterConfig);
    cfg.outputDirectory = dir;
    cfg.ga.generations = 5;
    cfg.traceFile = dir + "/trace.json";
    config::runFromConfig(cfg);

    json::Value trace;
    ASSERT_TRUE(json::parse(readFile(cfg.traceFile), trace, nullptr));
    const json::Value* events = trace.find("traceEvents");
    ASSERT_TRUE(events && events->isArray());
    // One write per generation, each on the coordinator's tid 0.
    std::vector<double> generations;
    for (const json::Value& event : events->array) {
        if (event.stringOr("name", "") != "write run dir")
            continue;
        EXPECT_EQ(event.numberOr("tid", -1.0), 0.0);
        const json::Value* args = event.find("args");
        generations.push_back(args ? args->numberOr("generation", -1.0)
                                   : -1.0);
    }
    EXPECT_EQ(generations, (std::vector<double>{0, 1, 2, 3, 4}));
    removeAll(dir);
}

const char kSealConfig[] = R"(
<gest_configuration>
  <ga population_size="12" individual_size="12" generations="4" seed="9"
      tournament_size="2" threads="1"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a7"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="replaced" stats="false" analytics="false"
          provenance="true" waveforms="3" attribution="true"/>
</gest_configuration>
)";

/** Every file under @p dir, keyed by its path relative to @p dir. */
std::map<std::string, std::string>
filesUnder(const std::string& dir)
{
    std::map<std::string, std::string> files;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file())
            files[std::filesystem::relative(entry.path(), dir)
                      .generic_string()] = readFile(entry.path().string());
    }
    return files;
}

/** The manifest's artifact table as comparable tuples. */
std::vector<std::tuple<std::string, std::string, std::uint64_t,
                       std::string>>
artifactTable(const std::string& dir)
{
    provenance::Manifest manifest;
    std::string error;
    EXPECT_TRUE(provenance::loadManifest(dir, manifest, &error)) << error;
    std::vector<std::tuple<std::string, std::string, std::uint64_t,
                           std::string>>
        table;
    for (const provenance::ArtifactEntry& a : manifest.artifacts)
        table.emplace_back(a.path, a.sha256, a.bytes, a.kind);
    return table;
}

/** Spans per name in @p trace_file: on the coordinator, on workers. */
std::pair<std::map<std::string, int>, std::map<std::string, int>>
spansByThread(const std::string& trace_file, int threads)
{
    json::Value trace;
    EXPECT_TRUE(json::parse(readFile(trace_file), trace, nullptr));
    std::map<std::string, int> coordinator, workers;
    const json::Value* events = trace.find("traceEvents");
    if (!events || !events->isArray()) {
        ADD_FAILURE() << trace_file << " has no traceEvents";
        return {};
    }
    for (const json::Value& event : events->array) {
        if (event.stringOr("ph", "") != "X")
            continue;
        const double tid = event.numberOr("tid", -1.0);
        const std::string name = event.stringOr("name", "");
        if (tid == 0)
            ++coordinator[name];
        else if (tid >= 1 && tid <= threads)
            ++workers[name];
    }
    return {coordinator, workers};
}

/** The value after `# annotation <key> ` in an attribution CSV. */
std::int64_t
annotation(const std::string& csv, const std::string& key)
{
    const std::string tag = "# annotation " + key + " ";
    const std::size_t at = csv.find(tag);
    if (at == std::string::npos) {
        ADD_FAILURE() << "no " << key << " annotation";
        return -1;
    }
    const std::size_t end = csv.find('\n', at);
    return parseInt(csv.substr(at + tag.size(), end - at - tag.size()),
                    key);
}

/**
 * Check every attribution artifact sealed under @p dir against a serial
 * computeAttribution of its champion, read back from the checkpoint of
 * the generation it was captured in. @return the champions' bodies.
 */
std::vector<std::vector<isa::InstructionInstance>>
expectSealedAttributionIsSerial(const config::RunConfig& cfg,
                                const std::string& dir)
{
    const config::Evaluator serial = config::buildEvaluator(cfg);
    std::vector<std::vector<isa::InstructionInstance>> champions;
    for (const auto& [name, csv] : filesUnder(dir + "/attribution")) {
        SCOPED_TRACE(name);
        const auto id =
            static_cast<std::uint64_t>(annotation(csv, "individual_id"));
        const int generation =
            static_cast<int>(annotation(csv, "generation"));
        const core::Population pop = core::loadPopulation(
            cfg.library, dir + "/population_" +
                             std::to_string(generation) + ".pop");
        const auto it = std::find_if(
            pop.individuals.begin(), pop.individuals.end(),
            [&](const core::Individual& ind) { return ind.id == id; });
        if (it == pop.individuals.end()) {
            ADD_FAILURE() << "champion " << id << " is not in generation "
                          << generation;
            continue;
        }
        attribution::AttributionResult expected =
            attribution::computeAttribution(
                cfg.library, *serial.measurement, *serial.fitness, *it);
        expected.generation = generation;
        EXPECT_EQ(csv, attribution::formatAttributionCsv(expected));
        champions.push_back(it->code);
    }
    return champions;
}

/** Planned ablation bodies of @p champions: in all, and distinct. */
std::pair<std::size_t, std::size_t>
ablationBodies(const isa::InstructionLibrary& lib,
               const std::vector<std::vector<isa::InstructionInstance>>&
                   champions)
{
    std::vector<std::vector<isa::InstructionInstance>> distinct;
    std::size_t planned = 0;
    for (const auto& code : champions) {
        core::Individual ind;
        ind.code = code;
        for (auto& body : attribution::planAttribution(lib, ind).bodies) {
            ++planned;
            if (std::find(distinct.begin(), distinct.end(), body) ==
                distinct.end())
                distinct.push_back(std::move(body));
        }
    }
    return {planned, distinct.size()};
}

TEST(RunPipeline, SealedArtifactsDoNotDependOnThreadsOrDirectorySpelling)
{
    config::RunConfig cfg = config::parseConfig(kSealConfig);
    const std::string serial = makeTempDir("gest-seal");
    cfg.outputDirectory = serial;
    cfg.ga.threads = 1;
    config::runFromConfig(cfg);

    const auto table = artifactTable(serial);
    ASSERT_FALSE(table.empty());
    const auto waveforms = filesUnder(serial + "/waveforms");
    const auto attributions = filesUnder(serial + "/attribution");
    EXPECT_EQ(waveforms.size(), 4u);  // index + 3 captures
    EXPECT_EQ(attributions.size(), 3u);

    // The pool writes champions and hashes the manifest in any order;
    // the directory may be named with a trailing slash or relatively.
    const std::string pooled = makeTempDir("gest-seal");
    const std::string slashed = makeTempDir("gest-seal");
    const std::string relative = makeTempDir("gest-seal");
    const std::vector<std::pair<std::string, std::string>> runs = {
        {pooled, pooled},
        {slashed, slashed + "/"},
        {relative, std::filesystem::relative(relative).generic_string()},
    };
    for (const auto& [dir, spelled] : runs) {
        SCOPED_TRACE(spelled);
        cfg.outputDirectory = spelled;
        cfg.ga.threads = 4;
        config::runFromConfig(cfg);
        EXPECT_EQ(filesUnder(dir + "/waveforms"), waveforms);
        EXPECT_EQ(filesUnder(dir + "/attribution"), attributions);
        const auto sealed = artifactTable(dir);
        ASSERT_EQ(sealed.size(), table.size());
        for (std::size_t i = 0; i < table.size(); ++i)
            EXPECT_EQ(sealed[i], table[i]);
        removeAll(dir);
    }
    removeAll(serial);
}

TEST(RunPipeline, EverySinkAndSealStepIsTraced)
{
    config::RunConfig cfg = config::parseConfig(kSealConfig);
    const std::string dir = makeTempDir("gest-seal");
    // Outside the run directory, so the manifest's spans land too.
    const std::string trace_dir = makeTempDir("gest-trace");
    cfg.outputDirectory = dir;
    cfg.ga.threads = 4;
    cfg.recordStats = true;
    cfg.traceFile = trace_dir + "/trace.json";
    config::runFromConfig(cfg);

    auto [coordinator, workers] =
        spansByThread(cfg.traceFile, cfg.ga.threads);
    // One span per generation for each sink this run has...
    EXPECT_EQ(coordinator["flight recorder"], cfg.ga.generations);
    EXPECT_EQ(coordinator["provenance append"], cfg.ga.generations);
    EXPECT_EQ(coordinator["write run dir"], cfg.ga.generations);
    EXPECT_EQ(coordinator["analytics"], 0);
    // ...one per seal step on the coordinator, one per champion's
    // capture on the worker that wrote it, and one per distinct
    // ablation body on the worker that measured it.
    for (const char* step : {"seal champions", "stats dump",
                             "manifest walk", "manifest hash"})
        EXPECT_EQ(coordinator[step], 1) << step;
    EXPECT_EQ(workers["champion"], cfg.waveformTopK);
    const auto champions = expectSealedAttributionIsSerial(cfg, dir);
    EXPECT_EQ(workers["ablation"],
              static_cast<int>(
                  ablationBodies(cfg.library, champions).second));

    // metrics.json holds a histogram only for the seal steps that end
    // before it is written, and each of those has its sample.
    json::Value metrics;
    ASSERT_TRUE(json::parse(readFile(dir + "/metrics.json"), metrics,
                            nullptr));
    const json::Value* histograms = metrics.find("histograms");
    ASSERT_TRUE(histograms && histograms->isObject());
    std::vector<std::string> seal_histograms;
    for (const auto& [name, histogram] : histograms->members) {
        if (name.rfind("seal.", 0) != 0)
            continue;
        seal_histograms.push_back(name);
        EXPECT_GT(histogram.numberOr("count", 0.0), 0.0) << name;
    }
    std::sort(seal_histograms.begin(), seal_histograms.end());
    EXPECT_EQ(seal_histograms,
              (std::vector<std::string>{"seal.champion_us",
                                        "seal.champions_us"}));
    removeAll(dir);
    removeAll(trace_dir);
}

TEST(RunPipeline, PooledAttributionEqualsTheSerialOneOnSharedCode)
{
    // Every individual of the seed population has the same body, so the
    // three retained champions share all their ablation bodies and the
    // pool measures each once.
    config::RunConfig cfg = config::parseConfig(kSealConfig);
    const std::string dir = makeTempDir("gest-seal");
    const std::string trace_dir = makeTempDir("gest-trace");
    core::Population seed;
    Rng rng(77);
    std::vector<isa::InstructionInstance> body;
    for (int g = 0; g < cfg.ga.individualSize; ++g)
        body.push_back(cfg.library.randomInstance(rng));
    for (int i = 0; i < cfg.ga.populationSize; ++i) {
        core::Individual ind;
        ind.id = static_cast<std::uint64_t>(i + 1);
        ind.code = body;
        seed.individuals.push_back(std::move(ind));
    }
    core::savePopulation(cfg.library, seed, trace_dir + "/seed.pop");
    cfg.seedPopulationPath = trace_dir + "/seed.pop";
    cfg.ga.generations = 1;
    cfg.ga.threads = 4;
    cfg.outputDirectory = dir;
    cfg.traceFile = trace_dir + "/trace.json";
    config::runFromConfig(cfg);

    const auto champions = expectSealedAttributionIsSerial(cfg, dir);
    ASSERT_EQ(champions.size(), 3u);
    EXPECT_EQ(champions[0], champions[1]);
    EXPECT_EQ(champions[1], champions[2]);
    const auto [planned, distinct] =
        ablationBodies(cfg.library, champions);
    EXPECT_EQ(distinct * 3, planned);
    EXPECT_EQ(spansByThread(cfg.traceFile, cfg.ga.threads)
                  .second["ablation"],
              static_cast<int>(distinct));
    removeAll(dir);
    removeAll(trace_dir);
}

} // namespace
} // namespace gest
