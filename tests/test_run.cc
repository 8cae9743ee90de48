/**
 * @file
 * Tests for the run pipeline (src/run/): with every per-generation sink
 * on, the status snapshot behind status.json and GET /status is exact
 * mid-run (digests_sealed counts the generation it describes), and the
 * final snapshot is the same bytes on disk and over HTTP. The write
 * task never lets status.json run ahead of its generation's files,
 * rethrows a failed write on the caller, and traces on its own thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/recorder.hh"
#include "config/config.hh"
#include "fitness/fitness.hh"
#include "measure/sim_measurements.hh"
#include "net/http_client.hh"
#include "net/telemetry.hh"
#include "platform/platform.hh"
#include "provenance/provenance.hh"
#include "run/pipeline.hh"
#include "util/fileutil.hh"
#include "util/jsonlite.hh"

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
          health="true" provenance="true" listen="127.0.0.1:0"/>
</gest_configuration>
)";

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
        std::make_unique<provenance::ProvenanceRecorder>(dir, lib);
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
    // task fails, and the run must rethrow rather than abort.
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
}

TEST(RunPipeline, RunDirWritesHaveTheirOwnTraceThread)
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
    // Workers hold tids 1..threads; the write task comes next.
    const double writer_tid = cfg.ga.threads + 1;
    int writes = 0;
    bool named = false;
    for (const json::Value& event : events->array) {
        if (event.stringOr("name", "") == "write run dir") {
            EXPECT_EQ(event.numberOr("tid", -1.0), writer_tid);
            ++writes;
        }
        if (event.stringOr("name", "") == "thread_name" &&
            event.numberOr("tid", -1.0) == writer_tid) {
            const json::Value* args = event.find("args");
            named = args && args->stringOr("name", "") == "run-dir writer";
        }
    }
    EXPECT_EQ(writes, 5);
    EXPECT_TRUE(named);
    removeAll(dir);
}

} // namespace
} // namespace gest
