/**
 * @file
 * The run driver behind config::runFromConfig: build what a
 * configuration names, fill a run::RunPipeline with the sinks its
 * <output> element asks for, run the GA, then seal the post-run
 * artifacts in dependency order.
 */

#include <algorithm>
#include <filesystem>

#include "analysis/recorder.hh"
#include "attribution/attribution.hh"
#include "attribution/attribution_io.hh"
#include "config/config.hh"
#include "fitness/fitness.hh"
#include "measure/sim_measurements.hh"
#include "net/telemetry.hh"
#include "output/flight_recorder.hh"
#include "output/run_writer.hh"
#include "output/trace_writer.hh"
#include "provenance/provenance.hh"
#include "run/pipeline.hh"
#include "stats/stats.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"

namespace gest {
namespace config {

namespace {

namespace fs = std::filesystem;

/**
 * One histogram per post-run step that ends before the stats dump.
 * The dump itself and the manifest come after it, so they are traced
 * only: metrics.json could never hold their samples.
 */
struct SealStats
{
    stats::Histogram& champions;
    stats::Histogram& champion;
    stats::Histogram& drain;
};

SealStats&
sealStats()
{
    auto step = [](const char* name, const char* desc) -> stats::Histogram& {
        return stats::StatsRegistry::instance().histogram(
            std::string("seal.") + name + "_us",
            std::string(desc) + " (us)", 0.0, 1000000.0, 40);
    };
    static SealStats s{
        step("champions", "champion pass: waveforms and attribution"),
        step("champion", "one champion's waveforms and attribution"),
        step("drain", "wait for the last generation's write task"),
    };
    return s;
}

/** @return true when @p file lies inside directory @p dir. */
bool
isInside(const std::string& file, const std::string& dir)
{
    bool failed = false;
    auto normal = [&failed](const std::string& p) {
        std::error_code ec;
        fs::path out = fs::absolute(p, ec);
        if (!ec)
            out = fs::weakly_canonical(out, ec);
        failed = failed || ec;
        return out.has_filename() ? out : out.parent_path();
    };
    const fs::path f = normal(file), d = normal(dir);
    // When in doubt, inside: the caller then finishes the trace early.
    return failed || std::mismatch(d.begin(), d.end(), f.begin(), f.end())
                             .first == d.end();
}

/**
 * One pass over the flight recorder's retained champions (or the
 * best-ever individual without one) on the engine's evaluation pool,
 * one task per champion, on the worker's measurement: capture and
 * write its waveforms, and compute and write its attribution. Neither
 * step reads the run directory, so the pass may overlap the last
 * write task.
 */
void
sealChampions(const RunConfig& cfg, core::Engine& engine,
              const fitness::Fitness& fit, const run::RunPipeline& pipeline,
              RunResult& result)
{
    const bool attribute = cfg.recordAttribution &&
                           !cfg.outputDirectory.empty();
    if (cfg.recordAttribution && !attribute)
        warn("attribution requested but no output directory is set; "
             "skipping");
    if (!pipeline.flight && !attribute)
        return;

    struct Champion
    {
        core::Individual ind;  ///< id and code only
        int generation;        ///< capture generation; -1 for best-ever
    };
    std::vector<Champion> champions;
    if (pipeline.flight) {
        for (const output::FlightRecorder::Entry& entry :
             pipeline.flight->entries()) {
            core::Individual ind;
            ind.id = entry.id;
            ind.code = entry.code;
            champions.push_back({std::move(ind), entry.generation});
        }
    } else if (!result.best.code.empty()) {
        core::Individual ind;
        ind.id = result.best.id;
        ind.code = result.best.code;
        champions.push_back({std::move(ind), -1});
    }

    output::ScopedSpan pass(
        sealStats().champions, pipeline.trace, "seal champions", "seal",
        {{"champions", static_cast<double>(champions.size())}});
    std::vector<signal::WaveformArtifacts> captures(champions.size());
    std::vector<std::string> attributions(champions.size());
    engine.forEachOnWorkers(
        champions.size(),
        [&](std::size_t i, int, measure::Measurement& measurement) {
            const Champion& champion = champions[i];
            output::ScopedSpan span(
                sealStats().champion, pipeline.trace, "champion", "seal",
                {{"individual", static_cast<double>(champion.ind.id)}});
            if (pipeline.flight) {
                // Simulated targets are deterministic: this capture is
                // the measurement the GA scored, now with signals.
                signal::SignalProbe probe;
                measurement.measureWithProbe(champion.ind.code, &probe);
                captures[i] = pipeline.flight->writeCapture(i, probe);
            }
            if (!attribute)
                return;
            attribution::AttributionResult attributed =
                attribution::computeAttribution(cfg.library, measurement,
                                                fit, champion.ind);
            attributed.generation = champion.generation;
            attributions[i] = attribution::writeAttributionArtifacts(
                cfg.outputDirectory + "/attribution",
                "individual_" + std::to_string(champion.ind.id),
                attributed);
        });
    if (pipeline.flight)
        result.waveformFiles = pipeline.flight->writeIndex(captures);
    if (attribute) {
        result.attributionFiles = std::move(attributions);
        if (!champions.empty())
            debug("attribution sealed for ", champions.size(),
                  " individual(s) in ", cfg.outputDirectory,
                  "/attribution");
    }
}

} // namespace

void
registerBuiltins()
{
    measure::registerSimMeasurements();
    fitness::registerBuiltinFitness();
}

Evaluator
buildEvaluator(const RunConfig& cfg)
{
    registerBuiltins();
    Evaluator built;
    built.measurement = measure::MeasurementRegistry::instance().create(
        cfg.measurementClass, cfg.library);
    built.measurement->init(cfg.measurementConfig);
    if (cfg.steadyStateOverride)
        built.measurement->setSteadyState(*cfg.steadyStateOverride);
    built.fitness =
        fitness::FitnessRegistry::instance().create(cfg.fitnessClass);
    built.fitness->init(cfg.fitnessConfig);
    return built;
}

RunResult
runFromConfig(const RunConfig& cfg)
{
    const Evaluator built = buildEvaluator(cfg);

    // The trace outlives the pipeline, whose write task may still be
    // emitting spans when a failed run unwinds. The pipeline is
    // declared before the engine so the engine, which holds the
    // pipeline's observer and recorder, is destroyed first.
    std::unique_ptr<output::TraceWriter> trace;
    const std::string& dir = cfg.outputDirectory;
    run::RunPipeline pipeline(dir + "/status.json", cfg.ga.generations);

    core::Engine engine(cfg.ga, cfg.library, *built.measurement,
                        *built.fitness);
    if (!cfg.seedPopulationPath.empty())
        engine.setSeedPopulation(
            core::loadPopulation(cfg.library, cfg.seedPopulationPath));

    // Observability: stats on by default (the per-sample cost is atomic
    // bumps and clock reads, invisible next to simulation); each run
    // starts from zeroed values so artifacts describe this run only.
    // A failed run restores the setting too.
    struct StatsRestore
    {
        bool enabled = stats::enabled();
        ~StatsRestore() { stats::setEnabled(enabled); }
    } stats_restore;
    if (cfg.recordStats) {
        stats::StatsRegistry::instance().resetValues();
        stats::setEnabled(true);
    }

    if (!cfg.traceFile.empty()) {
        trace = std::make_unique<output::TraceWriter>(cfg.traceFile);
        engine.setTraceWriter(trace.get());
    }

    if (cfg.recordAnalytics && !dir.empty())
        pipeline.recorder =
            std::make_unique<analysis::Recorder>(dir, cfg.library);
    if (cfg.waveformTopK > 0) {
        if (dir.empty())
            warn("waveform capture requested but no output directory "
                 "is set; skipping");
        else
            pipeline.flight = std::make_unique<output::FlightRecorder>(
                dir, cfg.waveformTopK);
    }
    if (!dir.empty()) {
        pipeline.writer = std::make_unique<output::RunWriter>(
            dir, cfg.library,
            cfg.asmTemplate ? &*cfg.asmTemplate : nullptr);
        pipeline.writer->writeRunMetadata(
            cfg.rawText, cfg.asmTemplate ? cfg.asmTemplate->text() : "");
        // The write task gets its own trace thread after the N
        // evaluation workers (tids 1..N).
        const int writer_tid = cfg.ga.threads + 1;
        if (trace)
            trace->setThreadName(writer_tid, "run-dir writer");
        pipeline.writer->setTraceWriter(trace.get(), writer_tid);
    }
    // Coverage and health are useful even without an output directory
    // (live /coverage and /alerts only).
    if (cfg.recordCoverage) {
        pipeline.coverage =
            std::make_unique<attribution::CoverageLedger>(cfg.library);
        if (!dir.empty())
            pipeline.coverage->setCsvPath(dir + "/coverage.csv");
    }
    if (cfg.recordHealth) {
        pipeline.watchdog =
            std::make_unique<analysis::HealthWatchdog>(cfg.healthRules);
        if (!dir.empty()) {
            ensureDir(dir);
            pipeline.watchdog->setCsvPath(dir + "/alerts.csv");
        }
    }
    if (cfg.recordProvenance && !dir.empty())
        pipeline.provenance =
            std::make_unique<provenance::ProvenanceRecorder>(dir,
                                                             cfg.library);
    // Bind before the run so the first generation is already scrapable.
    if (!cfg.listenAddress.empty()) {
        pipeline.telemetry = std::make_unique<net::TelemetryServer>(
            cfg.listenAddress, cfg.library, cfg.ga.generations);
        pipeline.telemetry->start();
        inform("telemetry listening on http://",
               pipeline.telemetry->address());
    }
    pipeline.trace = trace.get();
    pipeline.attach(engine);

    engine.run();

    RunResult result;
    result.best = engine.bestEver();
    result.history = engine.history();
    result.evaluations = engine.evaluations();
    result.cacheHits = engine.cacheHits();
    result.cacheMisses = engine.cacheMisses();

    // The last generation's write task may still be running: the
    // champion pass reads no run-directory file, so it runs beside it
    // on the evaluation pool. Attribution goes before the stats dump,
    // so the attribution.* counters land in metrics.json, and before
    // the provenance seal, so the manifest covers its artifacts.
    sealChampions(cfg, engine, *built.fitness, pipeline, result);
    {
        // Every step below reads the run directory.
        output::ScopedSpan span(sealStats().drain, trace.get(),
                                "drain last write", "seal");
        pipeline.drain();
    }

    if (pipeline.coverage && fileExists(pipeline.coverage->csvPath()))
        result.coverageFile = pipeline.coverage->csvPath();
    if (pipeline.watchdog && fileExists(pipeline.watchdog->csvPath())) {
        const analysis::HealthSummary health =
            pipeline.watchdog->summary();
        if (health.alerts > 0)
            warn("health watchdog raised ", health.alerts,
                 " alert(s); see ", pipeline.watchdog->csvPath());
    }

    if (cfg.recordStats && !dir.empty()) {
        output::ScopedSpan span(trace.get(), "stats dump", "seal");
        // Freshen the process self-observation gauges so the sealed
        // dump agrees with what a final /metrics scrape would have
        // shown.
        stats::updateProcessGauges();
        writeFile(dir + "/metrics.json",
                  stats::StatsRegistry::instance().jsonDump());
        debug("stats recorded in ", dir, "/metrics.json");
    }
    // After the stats dump: the last scrape a client can make agrees
    // with the sealed artifacts.
    pipeline.finish();
    if (trace) {
        // The manifest checksums a trace inside the run directory, so
        // that one is final before the seal; a trace kept elsewhere
        // also records the manifest's walk and hash.
        if (pipeline.provenance && isInside(cfg.traceFile, dir))
            trace->finish();
        result.traceFile = cfg.traceFile;
    }
    if (pipeline.provenance) {
        // Seal last: every other artifact is final, so the manifest's
        // checksums describe exactly what a verifier will find.
        provenance::SealInfo info;
        info.configText = cfg.rawText;
        info.configBaseDir = cfg.configBaseDir;
        info.measurementClass = cfg.measurementClass;
        info.fitnessClass = cfg.fitnessClass;
        info.ga = cfg.ga;
        info.steadyStateOverride = cfg.steadyStateOverride;
        info.waveformTopK = cfg.waveformTopK;
        info.recordStats = cfg.recordStats;
        info.recordAnalytics = cfg.recordAnalytics;
        info.recordCoverage = cfg.recordCoverage;
        info.recordAttribution = cfg.recordAttribution;
        info.generationsCompleted =
            static_cast<int>(result.history.size());
        info.evaluations = result.evaluations;
        info.bestFitness = result.best.fitness;
        info.bestId = result.best.id;
        result.manifestFile = pipeline.provenance->seal(
            info,
            [&engine](std::size_t count,
                      const std::function<void(std::size_t)>& body) {
                engine.forEachOnWorkers(
                    count, [&body](std::size_t i, int,
                                   measure::Measurement&) { body(i); });
            },
            trace.get());
    }
    if (trace)
        trace->finish();
    // Serve the completed status until the run is over, manifest
    // included, so a client never loses the server to a live run.
    if (pipeline.telemetry) {
        result.listenAddress = pipeline.telemetry->address();
        pipeline.telemetry->stop();
    }
    return result;
}

} // namespace config
} // namespace gest
