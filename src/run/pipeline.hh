/**
 * @file
 * The per-generation run pipeline (§III.A Fig. 2's "save" step, §III.D).
 *
 * A configured run attaches one engine observer: RunPipeline::step().
 * It drives every optional sink of the run in one fixed order, and the
 * order lives in step() alone. On the coordinator thread:
 *
 *  1. analytics recorder — lineage.csv and analytics.csv;
 *  2. flight recorder — the top-K champions the seal captures;
 *  3. coverage ledger — coverage.csv;
 *  4. health watchdog — alerts.csv;
 *  5. provenance — the digests.csv row;
 *  6. status — one snapshot rendered for status.json (analytics on)
 *     and the telemetry service (/status, /history, SSE...), with the
 *     eval.* search counters as the generation left them;
 *  7. run writer — population checkpoint, then history.csv: the
 *     generation's history cells (output::historyCells) are rendered
 *     once the checkpoint write has timed io_ms;
 *  8. status.json, last, so whenever it names generation g every
 *     generation-g file is on disk;
 *  9. telemetry — the snapshot served to clients, its /history row
 *     the same history cells (io_ms 0 without a run writer).
 *
 * Sinks 1-6 are each timed into a `pipeline.<sink>_us` histogram and,
 * with a trace attached, a span on the coordinator's tid; 7 and 8
 * share one trace span, "write run dir" (output.io_us times the
 * checkpoint's file write).
 *
 * The population is rendered in the checkpoint format once per
 * generation, into a buffer kept across generations: the digest
 * hashes its record block and the run writer writes the whole text.
 * The render runs in the first span that needs it, the provenance
 * sink's when provenance is on and "write run dir" otherwise.
 *
 * Producers fill the generation's GenerationFacts record; consumers
 * later in the step read it, so no sink holds a callback into another.
 * Every sink only reads const views of the population and never the GA
 * RNG: run artifacts are byte-identical with any subset of sinks on.
 */

#ifndef GEST_RUN_PIPELINE_HH
#define GEST_RUN_PIPELINE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/health.hh"
#include "attribution/coverage.hh"
#include "core/engine.hh"

namespace gest {

namespace analysis {
class Recorder;
} // namespace analysis

namespace output {
class FlightRecorder;
class RunWriter;
class TraceWriter;
} // namespace output

namespace provenance {
class ProvenanceRecorder;
} // namespace provenance

namespace net {
class TelemetryServer;
} // namespace net

namespace run {

/** What the pipeline knows after one generation's producers ran. */
struct GenerationFacts
{
    /** Run-cumulative measurements and cache hits (the record's sums). */
    std::uint64_t totalMeasured = 0;
    std::uint64_t totalCacheHits = 0;

    /** Seconds since the pipeline was built, taken for the status. */
    double elapsedSeconds = 0.0;

    /** Analytics of the generation; -1 when analytics are off. */
    double geneEntropyBits = -1.0;
    double pairwiseDiversity = -1.0;

    /** The coverage ledger's tick; empty when coverage is off. */
    std::optional<attribution::CoverageLedger::Snapshot> coverage;

    /** Alerts the watchdog raised this generation. */
    std::vector<analysis::Alert> newAlerts;

    /** The watchdog's run summary; empty when the run is not watched. */
    std::optional<analysis::HealthSummary> health;

    /** Digest rows sealed so far; -1 when provenance is off. */
    std::int64_t digestsSealed = -1;

    /**
     * The eval.steady_hits / cycles_simulated / cycles_tiled counters
     * as the generation left them. The completed status keeps the last
     * generation's values, so the seal's captures and ablations do not
     * count as search work.
     */
    std::uint64_t steadyHits = 0;
    std::uint64_t cyclesSimulated = 0;
    std::uint64_t cyclesTiled = 0;
};

/**
 * Render the status.json / GET /status payload for @p record. The
 * digests_sealed key and the alerts block appear only when @p facts
 * carries them, so runs without provenance or a watchdog keep the
 * older schema byte for byte.
 */
std::string statusJson(const core::GenerationRecord& record,
                       const GenerationFacts& facts,
                       int total_generations, const std::string& listen,
                       bool running);

/**
 * The optional sinks of one run and the step that drives them. The run
 * driver fills the sink members it wants (null means off), attaches
 * step() with Engine::addGenerationObserver and calls finish() once
 * every post-run artifact is final.
 */
class RunPipeline
{
  public:
    /**
     * @param status_path where the status heartbeat is written while
     *        an analytics recorder is attached (unused otherwise)
     * @param total_generations the run's generation budget (ETA)
     */
    RunPipeline(std::string status_path, int total_generations);
    ~RunPipeline();  ///< out of line: the sinks are incomplete here

    RunPipeline(const RunPipeline&) = delete;
    RunPipeline& operator=(const RunPipeline&) = delete;

    std::unique_ptr<analysis::Recorder> recorder;
    std::unique_ptr<output::RunWriter> writer;
    std::unique_ptr<output::FlightRecorder> flight;
    std::unique_ptr<attribution::CoverageLedger> coverage;
    std::unique_ptr<analysis::HealthWatchdog> watchdog;
    std::unique_ptr<provenance::ProvenanceRecorder> provenance;
    std::unique_ptr<net::TelemetryServer> telemetry;

    /** Trace for each sink's per-generation span (null: untraced). */
    output::TraceWriter* trace = nullptr;

    /**
     * Hand @p engine the recorder's birth hooks and install step() as
     * its generation observer. Call once the sinks are in place; the
     * pipeline must outlive the engine's run.
     */
    void attach(core::Engine& engine);

    /** Run one evaluated generation through every sink, in order. */
    void step(const core::Population& pop,
              const core::GenerationRecord& record);

    /**
     * Publish the final "completed" status: status.json (analytics on)
     * and /status carry the same bytes, and /events streams end.
     */
    void finish();

  private:
    std::string statusFor(bool running);

    std::string _statusPath;
    const isa::InstructionLibrary* _lib = nullptr;  ///< from attach()
    core::PopulationText _text;  ///< the generation's render
    int _totalGenerations;
    double _startUs;
    GenerationFacts _facts;
    core::GenerationRecord _last;
};

} // namespace run
} // namespace gest

#endif // GEST_RUN_PIPELINE_HH
