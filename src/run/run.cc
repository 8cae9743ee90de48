/**
 * @file
 * The run driver behind config::runFromConfig: build what a
 * configuration names, fill a run::RunPipeline with the sinks its
 * <output> element asks for, run the GA, then seal the post-run
 * artifacts in dependency order.
 */

#include <algorithm>
#include <filesystem>
#include <unordered_map>

#include "analysis/recorder.hh"
#include "attribution/attribution.hh"
#include "attribution/attribution_io.hh"
#include "config/config.hh"
#include "core/fitness_cache.hh"
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
 * best-ever individual without one) on the engine's evaluation pool.
 * The pool runs one task per champion that captures and writes its
 * waveforms, then one per distinct ablation body of every champion's
 * attribution plan: champions often share code, and a body two plans
 * hold is simulated once. Each champion's attribution is then
 * assembled and written on the caller's thread.
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

    // Every plan's bodies, each distinct one once (genome hash, then
    // equality); bodyOf[c][k] is the distinct index of plans[c]'s k-th.
    // distinct points into the plans, which are not moved once made.
    using Body = std::vector<isa::InstructionInstance>;
    std::vector<attribution::AttributionPlan> plans;
    std::vector<std::vector<std::size_t>> bodyOf;
    std::vector<const Body*> distinct;
    if (attribute) {
        plans.reserve(champions.size());
        std::unordered_map<std::uint64_t, std::vector<std::size_t>> seen;
        for (const Champion& champion : champions) {
            plans.push_back(
                attribution::planAttribution(cfg.library, champion.ind));
            std::vector<std::size_t>& slots = bodyOf.emplace_back();
            for (const Body& body : plans.back().bodies) {
                std::vector<std::size_t>& same = seen[core::genomeHash(body)];
                auto it = std::find_if(
                    same.begin(), same.end(),
                    [&](std::size_t k) { return *distinct[k] == body; });
                if (it == same.end()) {
                    same.push_back(distinct.size());
                    distinct.push_back(&body);
                    it = same.end() - 1;
                }
                slots.push_back(*it);
            }
        }
    }

    const std::size_t captures = pipeline.flight ? champions.size() : 0;
    std::vector<signal::WaveformArtifacts> waveforms(captures);
    std::vector<std::vector<double>> values(distinct.size());
    engine.forEachOnWorkers(
        captures + distinct.size(),
        [&](std::size_t i, int, measure::Measurement& measurement) {
            if (i < captures) {
                output::ScopedSpan span(
                    sealStats().champion, pipeline.trace, "champion",
                    "seal",
                    {{"individual",
                      static_cast<double>(champions[i].ind.id)}});
                // Simulated targets are deterministic: this capture is
                // the measurement the GA scored, now with signals.
                signal::SignalProbe probe;
                measurement.measureWithProbe(champions[i].ind.code, &probe);
                waveforms[i] = pipeline.flight->writeCapture(i, probe);
                return;
            }
            const std::size_t k = i - captures;
            output::ScopedSpan span(pipeline.trace, "ablation", "seal",
                                    {{"body", static_cast<double>(k)}});
            values[k] = measurement.measure(*distinct[k]).values;
        });
    if (pipeline.flight)
        result.waveformFiles = pipeline.flight->writeIndex(waveforms);
    if (!attribute)
        return;

    for (std::size_t c = 0; c < champions.size(); ++c) {
        std::vector<std::vector<double>> measured;
        measured.reserve(bodyOf[c].size());
        for (const std::size_t k : bodyOf[c])
            measured.push_back(values[k]);
        attribution::AttributionResult attributed =
            attribution::assembleAttribution(cfg.library, fit,
                                             champions[c].ind, plans[c],
                                             measured);
        attributed.generation = champions[c].generation;
        result.attributionFiles.push_back(
            attribution::writeAttributionArtifacts(
                cfg.outputDirectory + "/attribution",
                "individual_" + std::to_string(champions[c].ind.id),
                attributed));
    }
    if (!champions.empty())
        debug("attribution sealed for ", champions.size(),
              " individual(s) in ", cfg.outputDirectory, "/attribution");
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

    // The pipeline is declared before the engine so the engine, which
    // holds the pipeline's observer and recorder, is destroyed first.
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
        pipeline.writer = std::make_unique<output::RunWriter>(dir);
        pipeline.writer->writeRunMetadata(
            cfg.rawText, cfg.asmTemplate ? cfg.asmTemplate->text() : "");
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
            std::make_unique<provenance::ProvenanceRecorder>(dir);
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

    // Attribution goes before the stats dump, so the attribution.*
    // counters land in metrics.json, and before the provenance seal, so
    // the manifest covers its artifacts.
    sealChampions(cfg, engine, *built.fitness, pipeline, result);

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
        provenance::Manifest m;
        m.configHash = provenance::canonicalConfigHash(cfg.rawText);
        m.configBaseDir = cfg.configBaseDir;
        m.measurementClass = cfg.measurementClass;
        m.fitnessClass = cfg.fitnessClass;
        m.hasSeed = true;
        m.seed = cfg.ga.seed;
        m.populationSize = cfg.ga.populationSize;
        m.individualSize = cfg.ga.individualSize;
        m.generations = cfg.ga.generations;
        m.threads = cfg.ga.threads;
        m.fitnessCacheSize = cfg.ga.fitnessCacheSize;
        m.elitism = cfg.ga.elitism;
        m.steadyStateOverride = cfg.steadyStateOverride;
        m.waveformTopK = cfg.waveformTopK;
        m.recordStats = cfg.recordStats;
        m.recordAnalytics = cfg.recordAnalytics;
        m.recordCoverage = cfg.recordCoverage;
        m.recordAttribution = cfg.recordAttribution;
        m.generationsCompleted = static_cast<int>(result.history.size());
        m.evaluations = result.evaluations;
        m.bestFitness = result.best.fitness;
        m.bestId = result.best.id;
        result.manifestFile = pipeline.provenance->seal(
            std::move(m),
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
