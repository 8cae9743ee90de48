#include "run/pipeline.hh"

#include <cstdio>

#include "analysis/recorder.hh"
#include "net/telemetry.hh"
#include "output/flight_recorder.hh"
#include "output/run_writer.hh"
#include "output/trace_writer.hh"
#include "provenance/manifest.hh"
#include "provenance/provenance.hh"
#include "stats/stats.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace run {

namespace {

/** One histogram per sink of RunPipeline::step. */
struct SinkStats
{
    stats::Histogram& analytics;
    stats::Histogram& flight;
    stats::Histogram& coverage;
    stats::Histogram& watchdog;
    stats::Histogram& provenance;
    stats::Histogram& status;
};

SinkStats&
sinkStats()
{
    auto sink = [](const char* name, const char* desc) -> stats::Histogram& {
        return stats::StatsRegistry::instance().histogram(
            std::string("pipeline.") + name + "_us",
            std::string(desc) + " per generation (us)", 0.0, 50000.0, 40);
    };
    static SinkStats s{
        sink("analytics", "analytics recorder"),
        sink("flight", "flight-recorder top-K bookkeeping"),
        sink("coverage", "coverage ledger"),
        sink("watchdog", "health watchdog"),
        sink("provenance", "digest ledger append"),
        sink("status", "status render"),
    };
    return s;
}

} // namespace

std::string
statusJson(const core::GenerationRecord& record,
           const GenerationFacts& facts, int total_generations,
           const std::string& listen, bool running)
{
    const double elapsed_s = facts.elapsedSeconds;
    const int done = record.generation + 1;
    const std::uint64_t resolved =
        facts.totalMeasured + facts.totalCacheHits;
    const double cache_hit_rate =
        resolved > 0 ? static_cast<double>(facts.totalCacheHits) /
                           static_cast<double>(resolved)
                     : 0.0;
    const double evals_per_sec =
        elapsed_s > 0.0
            ? static_cast<double>(facts.totalMeasured) / elapsed_s
            : 0.0;
    const double eta_s =
        running && done > 0 && total_generations > done
            ? elapsed_s / static_cast<double>(done) *
                  static_cast<double>(total_generations - done)
            : 0.0;

    // Steady-state fast-path counters, looked up without find-or-create:
    // a run that never touches the simulated fast path (native
    // measurements, stats off) must not grow eval.* entries in its
    // metrics.json just by heartbeating.
    unsigned long long steady_hits = 0, cycles_simulated = 0,
                       cycles_tiled = 0;
    for (const stats::Counter* counter :
         stats::StatsRegistry::instance().counterList()) {
        if (counter->name() == "eval.steady_hits")
            steady_hits = counter->value();
        else if (counter->name() == "eval.cycles_simulated")
            cycles_simulated = counter->value();
        else if (counter->name() == "eval.cycles_tiled")
            cycles_tiled = counter->value();
    }

    char buf[1536];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"state\": \"%s\",\n"
        "  \"generation\": %d,\n"
        "  \"total_generations\": %d,\n"
        "  \"best_fitness\": %.17g,\n"
        "  \"average_fitness\": %.17g,\n"
        "  \"diversity\": %.6f,\n"
        "  \"gene_entropy_bits\": %.6f,\n"
        "  \"pairwise_diversity\": %.6f,\n"
        "  \"evaluations\": %llu,\n"
        "  \"cache_hit_rate\": %.6f,\n"
        "  \"evals_per_sec\": %.3f,\n"
        "  \"elapsed_seconds\": %.3f,\n"
        "  \"eta_seconds\": %.3f,\n"
        "  \"steady_hits\": %llu,\n"
        "  \"cycles_simulated\": %llu,\n"
        "  \"cycles_tiled\": %llu,\n",
        running ? "running" : "completed", record.generation,
        total_generations, record.bestFitness, record.averageFitness,
        record.diversity, facts.geneEntropyBits, facts.pairwiseDiversity,
        static_cast<unsigned long long>(facts.totalMeasured),
        cache_hit_rate, evals_per_sec, elapsed_s, eta_s, steady_hits,
        cycles_simulated, cycles_tiled);
    std::string payload = buf;
    if (facts.digestsSealed >= 0)
        payload += "  \"digests_sealed\": " +
                   std::to_string(facts.digestsSealed) + ",\n";
    // A watched clean run says `"raised": 0` — "no alerts", not "not
    // watched".
    if (facts.health) {
        payload += "  \"alerts\": {\n    \"raised\": " +
                   std::to_string(facts.health->alerts) + ",\n";
        payload += "    \"last_generation\": " +
                   std::to_string(facts.health->lastGeneration) + ",\n";
        payload += "    \"last_rule\": \"" +
                   jsonEscape(facts.health->lastRule) + "\"\n  },\n";
    }
    payload += "  \"git_sha\": \"" +
               jsonEscape(provenance::currentGitSha()) + "\",\n";
    payload += "  \"build\": \"" +
               jsonEscape(provenance::currentBuildFingerprint()) + "\",\n";
    payload += "  \"listen\": \"" + jsonEscape(listen) + "\"\n}\n";
    return payload;
}

RunPipeline::RunPipeline(std::string status_path, int total_generations)
    : _statusPath(std::move(status_path)),
      _totalGenerations(total_generations), _startUs(stats::nowUs())
{
    _last.generation = -1;
    // Register the sink histograms with the pipeline, so metrics.json
    // lists them even when no generation is stepped.
    sinkStats();
}

RunPipeline::~RunPipeline()
{
    // Unwinding from a failed run: let the in-flight write finish
    // before the sinks it uses go away. Its own error cannot be thrown
    // from here, so it is logged.
    if (!_pendingWrite.valid())
        return;
    try {
        _pendingWrite.get();
    } catch (const std::exception& err) {
        warn("run-directory write failed: ", err.what());
    }
}

void
RunPipeline::attach(core::Engine& engine)
{
    engine.setAnalytics(recorder.get());
    engine.addGenerationObserver(
        [this](const core::Population& pop,
               const core::GenerationRecord& record) {
            step(pop, record);
        });
}

void
RunPipeline::step(const core::Population& pop,
                  const core::GenerationRecord& record)
{
    GenerationFacts& facts = _facts;
    facts.totalMeasured += record.cacheMisses;
    facts.totalCacheHits += record.cacheHits;
    facts.newAlerts.clear();
    _last = record;

    SinkStats& timers = sinkStats();
    const output::TraceWriter::Args gen = {
        {"generation", static_cast<double>(record.generation)}};
    if (recorder) {
        output::ScopedSpan span(timers.analytics, trace, "analytics",
                                "pipeline", gen);
        recorder->onGenerationEvaluated(pop, record);
        facts.geneEntropyBits = recorder->rows().back().geneEntropyBits;
        facts.pairwiseDiversity =
            recorder->rows().back().pairwiseDiversity;
    }
    if (flight) {
        output::ScopedSpan span(timers.flight, trace, "flight recorder",
                                "pipeline", gen);
        flight->onGenerationEvaluated(pop, record);
    }
    if (coverage) {
        output::ScopedSpan span(timers.coverage, trace, "coverage",
                                "pipeline", gen);
        facts.coverage = coverage->onGenerationEvaluated(pop, record);
    }
    if (watchdog) {
        output::ScopedSpan span(timers.watchdog, trace, "watchdog",
                                "pipeline", gen);
        if (facts.coverage)
            watchdog->noteCoverage(facts.coverage->generation,
                                   facts.coverage->newCells);
        facts.newAlerts = watchdog->onGenerationEvaluated(
            record, facts.totalMeasured, facts.totalCacheHits);
        facts.health = watchdog->summary();
    }
    if (provenance) {
        output::ScopedSpan span(timers.provenance, trace,
                                "provenance append", "pipeline", gen);
        provenance->append(pop, record);
        facts.digestsSealed =
            static_cast<std::int64_t>(provenance->digestsSealed());
    }

    std::string status;
    if (recorder || telemetry) {
        output::ScopedSpan span(timers.status, trace, "status render",
                                "pipeline", gen);
        status = statusFor(/*running=*/true);
    }
    if (writer || recorder) {
        // Hand the run directory's share of this generation to the
        // write task. Waiting for the previous one first keeps at most
        // one generation in flight, so files still land in generation
        // order; the task writes status.json last, after every other
        // file of its generation.
        drain();
        _pendingWrite = std::async(
            std::launch::async,
            [this, pop_copy = pop, record,
             heartbeat = recorder ? status : std::string()] {
                if (writer)
                    writer->onGenerationEvaluated(pop_copy, record);
                // Atomic replace: a poller either sees the previous
                // heartbeat or this one, never a torn file.
                if (!heartbeat.empty())
                    writeFileAtomic(_statusPath, heartbeat);
            });
    }
    if (telemetry)
        telemetry->service().onGenerationEvaluated(pop, record, facts,
                                                   std::move(status));
}

void
RunPipeline::drain()
{
    // get() rethrows a failed write here, on the coordinator.
    if (_pendingWrite.valid())
        _pendingWrite.get();
}

void
RunPipeline::finish()
{
    drain();
    if (!recorder && !telemetry)
        return;
    std::string status = statusFor(/*running=*/false);
    if (recorder) {
        writeFileAtomic(_statusPath, status);
        debug("analytics recorded next to ", _statusPath);
    }
    if (telemetry)
        telemetry->service().noteRunCompleted(std::move(status));
}

std::string
RunPipeline::statusFor(bool running)
{
    _facts.elapsedSeconds = (stats::nowUs() - _startUs) / 1e6;
    return statusJson(_last, _facts, _totalGenerations,
                      telemetry ? telemetry->address() : "", running);
}

} // namespace run
} // namespace gest
