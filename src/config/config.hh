/**
 * @file
 * The main configuration file (§III.B.1) and the run entry point.
 *
 * A GeST configuration is an XML file that carries (a) the GA engine
 * parameters of Table I, (b) the operand and instruction definitions the
 * search draws from (or the name of a bundled library), and (c) the
 * measurement and fitness classes plus their own configuration, the
 * output directory, the optional template file and the optional seed
 * population. Example:
 *
 * @code{.xml}
 * <gest_configuration>
 *   <ga population_size="50" individual_size="50" mutation_rate="0.02"
 *       crossover_operator="one_point"
 *       parent_selection_method="tournament" tournament_size="5"
 *       elitism="true" generations="100" seed="1"/>
 *   <library name="arm"/>
 *   <operands>
 *     <operand id="my_regs" type="register" values="x4 x5 x6"/>
 *     <operand id="imm" type="immediate" min="0" max="256" stride="8"/>
 *   </operands>
 *   <instructions>
 *     <instruction name="MYLDR" num_of_operands="3"
 *         operand1="mem_result" operand2="mem_address_register"
 *         operand3="imm" format="LDR op1, [op2, #op3]" type="mem"/>
 *   </instructions>
 *   <measurement class="SimPowerMeasurement">
 *     <config platform="cortex-a15"/>
 *   </measurement>
 *   <fitness class="DefaultFitness"/>
 *   <output directory="runs/a15_power"/>
 * </gest_configuration>
 * @endcode
 *
 * Measurement/fitness parameters may live inline (a <config> child, as
 * above) or in their own XML file (config="file.xml"), matching the
 * paper's separation of measurement configuration from the main file.
 */

#ifndef GEST_CONFIG_CONFIG_HH
#define GEST_CONFIG_CONFIG_HH

#include <memory>
#include <optional>
#include <string>

#include "analysis/health.hh"
#include "core/engine.hh"
#include "core/ga_params.hh"
#include "isa/asm_template.hh"
#include "isa/library.hh"
#include "xml/xml.hh"

namespace gest {
namespace config {

/** A fully parsed run configuration. */
struct RunConfig
{
    core::GaParams ga;
    isa::InstructionLibrary library;

    std::string measurementClass = "SimPowerMeasurement";
    std::string fitnessClass = "DefaultFitness";

    std::string outputDirectory;      ///< empty: no artifacts written
    std::string seedPopulationPath;   ///< empty: random seed population
    std::optional<isa::AsmTemplate> asmTemplate;

    /**
     * Chrome-trace output path (<output trace="..."> or the CLI's
     * --trace). Empty: no trace. A relative path resolves against the
     * output directory when one is set, else against the config's
     * directory.
     */
    std::string traceFile;

    /**
     * Record run statistics (<output stats="...">, default true): the
     * stats registry is enabled for the run and metrics.json is
     * written into the output directory.
     */
    bool recordStats = true;

    /**
     * Record evolution analytics (<output analytics="...">, default
     * true): an analysis::Recorder is attached to the engine and
     * lineage.csv, analytics.csv and the status.json heartbeat are
     * maintained in the output directory. Has no effect without an
     * output directory. Recording never perturbs the GA RNG, so
     * results are bit-identical with analytics on or off.
     */
    bool recordAnalytics = true;

    /**
     * Keep signal captures of the run's top-K individuals
     * (<output waveforms="K">, default 0 = off): a FlightRecorder
     * keeps the top-K champions and the seal re-measures each once
     * with a SignalProbe, sealing waveforms/<id>.csv artifacts in the
     * output directory. Requires an output directory. Capture never
     * perturbs the GA RNG, so results are bit-identical with
     * waveforms on or off.
     */
    int waveformTopK = 0;

    /**
     * When set, forces the measurement's steady-state fast path on or
     * off after its own configuration is applied (the CLI's
     * --steady-state flag). Results are bit-identical either way; the
     * knob exists for verification and as an escape hatch.
     */
    std::optional<bool> steadyStateOverride;

    /**
     * Track search-space coverage (<output coverage="true"/>, default
     * false): an attribution::CoverageLedger observes every evaluated
     * generation and seals a per-generation coverage.csv in the output
     * directory (plus the /coverage endpoint when --listen is on).
     * Observation is read-only — never the GA RNG — so all other
     * artifacts are byte-identical with the ledger on or off.
     */
    bool recordCoverage = false;

    /**
     * Attribute champion fitness at seal time (<output
     * attribution="true"/>, default false): after the run, the flight
     * recorder's retained champions (or the best-ever individual when
     * no flight recorder ran) are ablated gene by gene on the pool
     * worker's measurement that the champion pass runs on, and one
     * `attribution/individual_<id>.csv` per champion is sealed into
     * the output directory. Post-run only: the GA itself is untouched.
     */
    bool recordAttribution = false;

    /**
     * Watch GA health during the run (<output health="true"/>, default
     * false): an analysis::HealthWatchdog observes every evaluated
     * generation, evaluates the declarative rules in
     * analysis::HealthRules and seals a `# gest-alerts v1` alerts.csv
     * in the output directory (plus the /alerts endpoint and `alert`
     * SSE events when --listen is on, and an `alerts` block in
     * status.json). Observation is read-only — never the GA RNG — so
     * all other artifacts are byte-identical with the watchdog on or
     * off. Thresholds tune via health_plateau, health_collapse_factor,
     * health_cache_floor, health_coverage_stall and
     * health_starvation_share attributes (zero disables a rule).
     */
    bool recordHealth = false;
    analysis::HealthRules healthRules;

    /**
     * Record run provenance (<output provenance="...">, default true):
     * a digests.csv population-digest ledger is appended during the
     * run and a manifest.json — canonical config hash, seed, build
     * fingerprint, artifact checksums — is sealed into the output
     * directory when the run finishes. `gest verify` replays against
     * them. Has no effect without an output directory. Recording is
     * strictly observational (never touches the GA RNG) and every
     * pre-existing artifact is byte-identical with provenance on or
     * off.
     */
    bool recordProvenance = true;

    /**
     * The base directory relative file references resolved against
     * (parseConfig's base_dir), recorded into the manifest so a replay
     * can re-resolve them.
     */
    std::string configBaseDir = ".";

    /**
     * host:port for the live telemetry server (<output
     * listen="127.0.0.1:0"/> or the CLI's --listen; default off). When
     * set, the run hosts the embedded HTTP endpoints (/metrics,
     * /status, /history, /champion, /events) for its duration; port 0
     * asks the kernel for an ephemeral port, echoed to the log and
     * into status.json. Serving is strictly read-only and never
     * touches the GA RNG: run artifacts are bit-identical with the
     * server on or off. See docs/observability.md, "Live endpoints".
     */
    std::string listenAddress;

    /** Raw main-configuration text (record keeping). */
    std::string rawText;

    /** Owning documents backing the config elements below. */
    std::shared_ptr<xml::Document> mainDoc;
    std::shared_ptr<xml::Document> measurementDoc;
    std::shared_ptr<xml::Document> fitnessDoc;

    /** Measurement parameters element (may be null). */
    const xml::Element* measurementConfig = nullptr;

    /** Fitness parameters element (may be null). */
    const xml::Element* fitnessConfig = nullptr;
};

/** Parsing options. */
struct ParseOptions
{
    /**
     * Resolve and load referenced files (template, external
     * measurement/fitness configs). Disable when only the embedded
     * information is needed — e.g. rebuilding the instruction library
     * from a configuration recorded inside a run directory, where the
     * original relative paths no longer resolve.
     */
    bool loadReferencedFiles = true;
};

/**
 * Parse a configuration from text. Relative file references (template,
 * external measurement config, seed population) resolve against
 * @p base_dir.
 */
RunConfig parseConfig(const std::string& text,
                      const std::string& base_dir = ".",
                      const ParseOptions& options = {});

/** Parse the configuration file at @p path. */
RunConfig loadConfig(const std::string& path);

/** Outcome of a full configured run. */
struct RunResult
{
    core::Individual best;
    std::vector<core::GenerationRecord> history;
    std::uint64_t evaluations = 0;

    /** Fitness-cache totals (zero when the cache is disabled). */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;

    /** Path of the written Chrome trace (empty when tracing was off). */
    std::string traceFile;

    /**
     * Waveform artifacts sealed by the flight recorder (index.csv
     * first; empty when waveform capture was off).
     */
    std::vector<std::string> waveformFiles;

    /**
     * host:port the telemetry server actually bound (ephemeral port
     * resolved; empty when --listen was off).
     */
    std::string listenAddress;

    /**
     * Path of the sealed manifest.json (empty when provenance was off
     * or no output directory was set).
     */
    std::string manifestFile;

    /**
     * Path of the sealed coverage.csv (empty when coverage tracking
     * was off or no output directory was set).
     */
    std::string coverageFile;

    /**
     * Attribution CSVs sealed after the run, one per attributed
     * individual (empty when attribution was off).
     */
    std::vector<std::string> attributionFiles;
};

/** A configuration's measurement and fitness, ready to evaluate. */
struct Evaluator
{
    std::unique_ptr<measure::Measurement> measurement;
    std::unique_ptr<fitness::Fitness> fitness;
};

/**
 * Instantiate @p cfg's measurement and fitness by name (registering
 * the bundled classes first), apply their configurations and the
 * steady-state override. Throws FatalError for an unknown class or a
 * bad configuration. Defined in run/run.cc.
 */
Evaluator buildEvaluator(const RunConfig& cfg);

/**
 * Execute one GA run described by a configuration: instantiate the
 * measurement and fitness by name, fill the run pipeline with the
 * sinks the <output> element asks for, seed, run, seal. Defined in
 * run/run.cc.
 */
RunResult runFromConfig(const RunConfig& cfg);

/** Register all bundled measurement and fitness classes (idempotent). */
void registerBuiltins();

} // namespace config
} // namespace gest

#endif // GEST_CONFIG_CONFIG_HH
