/**
 * @file
 * The GA health watchdog: a generation observer that evaluates a small
 * set of declarative rules against the run as it unfolds and raises
 * alerts when the search looks sick — the campaign-level counterpart
 * of `gest explain`'s post-mortem pathology detection.
 *
 * The watchdog is strictly observational: it reads the per-generation
 * record (plus the run's cumulative totals and coverage tick, handed in
 * by the run pipeline, and the stats registry's worker counters), never
 * touches the GA RNG or the population, and runs on the coordinator
 * thread after the generation is sealed, so every other artifact is
 * byte-identical with the watchdog on or off.
 *
 * Each rule *latches*: it raises at most one alert per run, when its
 * condition first holds, so a stuck run produces one actionable line
 * per failure mode instead of one per generation. Alerts land in three
 * places: an append-only `# gest-alerts v1` alerts.csv in the run
 * directory, an `alerts` block in the status.json heartbeat, and — when
 * the run listens — the /alerts endpoint plus `alert` SSE events (see
 * docs/fleet.md, "Alert rules").
 */

#ifndef GEST_ANALYSIS_HEALTH_HH
#define GEST_ANALYSIS_HEALTH_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "output/ledger.hh"

namespace gest {
namespace analysis {

/**
 * Thresholds for the declarative rules. A zero/negative threshold
 * disables its rule; the defaults arm everything except the cache
 * floor (no universally sane floor exists — a cold library legitimately
 * runs at 0%).
 */
struct HealthRules
{
    /**
     * "fitness_plateau": best fitness has not improved for this many
     * consecutive generations.
     */
    int plateauGenerations = 20;

    /**
     * "throughput_collapse": this generation's measured evals/sec fell
     * below the run's median by more than this factor (after
     * throughputMinGenerations of warmup). Requires timing columns,
     * i.e. stats recording on.
     */
    double throughputCollapseFactor = 4.0;
    int throughputMinGenerations = 8;

    /**
     * "cache_hit_floor": the cumulative fitness-cache hit rate sits
     * below this floor after cacheWarmupGenerations. Disabled by
     * default (0.0: no rate is below the floor).
     */
    double cacheHitRateFloor = 0.0;
    int cacheWarmupGenerations = 5;

    /**
     * "coverage_stall": the coverage ledger reported zero new cells
     * for this many consecutive generations. Only armed when the run
     * records coverage (noteCoverage is fed).
     */
    int coverageStallGenerations = 25;

    /**
     * "worker_starvation": the least-busy evaluation worker did under
     * this share of the busiest worker's per-generation busy time for
     * workerStarvationGenerations in a row. Only armed with >= 2
     * workers reporting (threads > 1 and stats on).
     */
    double workerStarvationShare = 0.10;
    int workerStarvationGenerations = 5;

    // "non_finite_fitness" (best or average fitness is NaN/Inf) has no
    // threshold: it is always armed and always critical.
};

/** One raised alert. The message never contains commas or newlines. */
struct Alert
{
    int generation = 0;
    std::string rule;      ///< e.g. "fitness_plateau"
    std::string severity;  ///< "warning" or "critical"
    double value = 0.0;      ///< observed value the rule tripped on
    double threshold = 0.0;  ///< the configured threshold
    std::string message;
};

/** The heartbeat's `alerts` block, in composable form. */
struct HealthSummary
{
    std::uint64_t alerts = 0;
    int lastGeneration = -1;
    std::string lastRule;
};

class HealthWatchdog
{
  public:
    explicit HealthWatchdog(HealthRules rules = HealthRules());

    /**
     * Write alerts to @p path as `# gest-alerts v1` CSV. The header is
     * written immediately, so a clean run with the watchdog on leaves
     * a schema-valid, zero-row ledger that proves "no alerts" rather
     * than "not watched".
     */
    void setCsvPath(std::string path);

    /** The ledger's path; empty when no CSV is written. */
    std::string csvPath() const { return _csv ? _csv->path() : ""; }

    /**
     * Feed one coverage-ledger tick before onGenerationEvaluated() of
     * the same generation (the run pipeline steps the ledger first).
     * Never calling this leaves the coverage_stall rule disarmed.
     */
    void noteCoverage(int generation, std::uint64_t new_cells);

    /**
     * Evaluate every rule against the sealed generation.
     * @param total_measured run-cumulative measurements so far
     * @param total_cache_hits run-cumulative cache hits so far
     * @return the alerts raised by this generation (usually none)
     */
    std::vector<Alert> onGenerationEvaluated(
        const core::GenerationRecord& record, std::uint64_t total_measured,
        std::uint64_t total_cache_hits);

    const std::vector<Alert>& alerts() const { return _alerts; }

    HealthSummary summary() const;

    const HealthRules& rules() const { return _rules; }

  private:
    void raise(int generation, const char* rule, const char* severity,
               double value, double threshold, std::string message);

    HealthRules _rules;
    std::optional<ledger::Writer> _csv;
    std::vector<Alert> _alerts;

    // Per-rule latches: one alert per run per failure mode.
    bool _plateauFired = false;
    bool _throughputFired = false;
    bool _cacheFired = false;
    bool _coverageFired = false;
    bool _starvationFired = false;
    bool _nonFiniteFired = false;

    // fitness_plateau state.
    bool _haveBest = false;
    double _bestSeen = 0.0;
    int _generationsSinceImprovement = 0;

    // throughput_collapse state.
    std::vector<double> _evalRates;  ///< evals/sec per timed generation

    // cache_hit_floor state.
    int _generationsSeen = 0;

    // coverage_stall state.
    int _coverageTickGeneration = -1;
    std::uint64_t _coverageNewCells = 0;
    int _coverageStallStreak = 0;

    // worker_starvation state.
    std::vector<std::uint64_t> _workerBusyTotals;
    int _starvationStreak = 0;
};

/**
 * Parse @p run_dir/alerts.csv. @return false when the file is absent;
 * fatal() when it exists but is malformed or a later schema version.
 * A torn last row is dropped.
 */
bool loadAlerts(const std::string& run_dir, std::vector<Alert>& out);

/** One alert as a JSON object (the /alerts rows and SSE payloads). */
std::string formatAlertJson(const Alert& alert);

} // namespace analysis
} // namespace gest

#endif // GEST_ANALYSIS_HEALTH_HH
