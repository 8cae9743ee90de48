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

/**
 * Copy the steady-state fast-path counters into @p facts. They are
 * looked up without find-or-create: a run that never touches the
 * simulated fast path (native measurements, stats off) must not grow
 * eval.* entries in its metrics.json just by heartbeating.
 */
void
snapshotSearchCounters(GenerationFacts& facts)
{
    for (const stats::Counter* counter :
         stats::StatsRegistry::instance().counterList()) {
        if (counter->name() == "eval.steady_hits")
            facts.steadyHits = counter->value();
        else if (counter->name() == "eval.cycles_simulated")
            facts.cyclesSimulated = counter->value();
        else if (counter->name() == "eval.cycles_tiled")
            facts.cyclesTiled = counter->value();
    }
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

    char buf[1536];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"state\": \"%s\",\n"
        "  \"generation\": %d,\n"
        "  \"total_generations\": %d,\n"
        "  \"best_fitness\": %s,\n"
        "  \"average_fitness\": %s,\n"
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
        total_generations, jsonNumber(record.bestFitness, 17).c_str(),
        jsonNumber(record.averageFitness, 17).c_str(),
        record.diversity, facts.geneEntropyBits, facts.pairwiseDiversity,
        static_cast<unsigned long long>(facts.totalMeasured),
        cache_hit_rate, evals_per_sec, elapsed_s, eta_s,
        static_cast<unsigned long long>(facts.steadyHits),
        static_cast<unsigned long long>(facts.cyclesSimulated),
        static_cast<unsigned long long>(facts.cyclesTiled));
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

RunPipeline::~RunPipeline() = default;

void
RunPipeline::attach(core::Engine& engine)
{
    _lib = &engine.library();
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
    // The digest and the checkpoint share one render of the population,
    // made inside the span of whichever needs it first.
    bool rendered = false;
    auto text = [&]() -> const core::PopulationText& {
        if (!rendered) {
            core::renderPopulation(*_lib, pop, _text);
            rendered = true;
        }
        return _text;
    };
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
        provenance->append(text(), record);
        facts.digestsSealed =
            static_cast<std::int64_t>(provenance->digestsSealed());
    }

    std::string status;
    if (recorder || telemetry) {
        output::ScopedSpan span(timers.status, trace, "status render",
                                "pipeline", gen);
        snapshotSearchCounters(facts);
        status = statusFor(/*running=*/true);
    }
    // The generation's history.csv cells, rendered once the checkpoint
    // write has timed io_ms: the run writer appends them and telemetry
    // serves them as the /history row.
    std::vector<std::string> history;
    if (writer || recorder) {
        // status.json goes last, so whenever it names generation g,
        // every generation-g file is on disk.
        output::ScopedSpan span(trace, "write run dir", "pipeline", gen);
        if (writer) {
            history = output::historyCells(
                record, writer->writePopulation(text(), record.generation));
            writer->appendHistory(history);
        }
        // Atomic replace: a poller either sees the previous heartbeat
        // or this one, never a torn file.
        if (recorder)
            writeFileAtomic(_statusPath, status);
    }
    if (telemetry) {
        if (!writer)
            history = output::historyCells(record, 0.0);
        telemetry->service().onGenerationEvaluated(
            pop, record, history, facts, std::move(status));
    }
}

void
RunPipeline::finish()
{
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
