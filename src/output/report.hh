/**
 * @file
 * Run-summary analysis behind `gest report <run_dir>` and the
 * search-dynamics analysis behind `gest explain <run_dir>`.
 *
 * `report` works from `history.csv` alone, so it summarizes both
 * finished and in-flight runs (the RunWriter appends one complete row
 * per generation); when the run also recorded `analytics.csv` the
 * summary gains an evolution-analytics section. loadHistory() is the
 * one history.csv reader; `gest runs` and `gest top` use it too. Both
 * files are read through the ledger reader (output/ledger.hh): v1
 * history files (pre-timing columns) report everything except the
 * phase breakdown, a torn last row is dropped, and malformed files
 * fatal() with an actionable message instead of crashing or
 * mis-summarizing. `--json` renders the same summary machine-readable.
 *
 * `explain` reads `lineage.csv` + `analytics.csv` and answers *why*
 * the GA got where it did: the champion's ancestry chain back to
 * generation 0, which crossovers/mutations contributed its genes, the
 * instruction-mix trajectory across generations, and convergence
 * pathologies (diversity collapse, operator starvation, elite
 * stagnation) with actionable messages.
 */

#ifndef GEST_OUTPUT_REPORT_HH
#define GEST_OUTPUT_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/analytics.hh"
#include "analysis/lineage.hh"
#include "core/population.hh"

namespace gest {
namespace output {

/**
 * history.csv's rows and their run totals: what `gest report`,
 * `gest runs`, `gest compare` and `gest top` read of a run's history.
 */
struct RunHistory
{
    /** Version from the `# gest-history v<N>` comment (1 if absent). */
    int historyVersion = 1;

    /** True when the file carries the v2 per-phase timing columns. */
    bool hasTimings = false;

    /**
     * One record per row; a column the file predates reads as 0, and
     * bestBreakdown, which history.csv does not carry, stays 0.
     */
    std::vector<core::GenerationRecord> rows;

    // Fitness trajectory.
    double firstBest = 0.0;
    double bestFitness = 0.0;
    int bestGeneration = 0;
    double finalAverage = 0.0;
    double finalDiversity = 0.0;

    // Work accounting.
    std::uint64_t totalMeasured = 0;   ///< sum of cache_misses
    std::uint64_t totalCacheHits = 0;  ///< sum of cache_hits

    // Phase totals in milliseconds (zero without timing columns).
    double selectionMs = 0.0;
    double crossoverMs = 0.0;
    double mutationMs = 0.0;
    double evaluationMs = 0.0;
    double ioMs = 0.0;  ///< io_ms, read as this sum only

    /** Cache hit rate in [0, 1]. */
    double cacheHitRate() const;

    /** Measurements per second of evaluation time; 0 if unknown. */
    double evaluationsPerSecond() const;
};

/** How far a run's history.csv has got. */
enum class HistoryFound
{
    NoFile,    ///< no readable history.csv
    NoHeader,  ///< empty, or a version line only
    NoRows,    ///< a header but no complete generation row
    Rows,      ///< at least one complete row
};

/**
 * Read @p run_dir/history.csv into @p out and total its rows: the one
 * history.csv reader. A torn last row is dropped; a complete row that
 * is short or malformed fatal()s with the ledger's `file:line`. The
 * "nothing yet" cases are returned, not fatal, so `gest top` can wait
 * on them.
 */
HistoryFound loadHistory(const std::string& run_dir, RunHistory& out);

/**
 * loadHistory() for callers that need at least one row. fatal() with
 * an actionable message when the directory or file is missing or
 * holds no complete generation row.
 */
RunHistory analyzeHistory(const std::string& run_dir);

/** Everything `gest report` prints, in analyzable form. */
struct RunReport : RunHistory
{
    std::string runDir;

    /**
     * Evolution analytics, present when the run recorded
     * analytics.csv (runs predating the analytics subsystem, or with
     * <output analytics="false"/>, summarize without it).
     */
    bool hasAnalytics = false;
    double finalGeneEntropyBits = 0.0;
    double finalPairwiseDiversity = 0.0;
    std::uint64_t crossoverChildren = 0;  ///< run totals
    std::uint64_t crossoverImproved = 0;
    std::uint64_t mutationChildren = 0;
    std::uint64_t mutationImproved = 0;
    std::uint64_t eliteCopies = 0;

    /**
     * Steady-state fast-path counters, present when the run wrote
     * metrics.json with the eval.* counters (runs predating the fast
     * path, or with stats off, summarize without them). Cycle totals
     * span every simulated-platform measurement of the run.
     */
    bool hasSteadyStats = false;
    std::uint64_t simEvaluations = 0;   ///< measure.sim.evaluations
    std::uint64_t steadyHits = 0;       ///< eval.steady_hits
    std::uint64_t cyclesSimulated = 0;  ///< eval.cycles_simulated
    std::uint64_t cyclesSkipped = 0;    ///< eval.cycles_skipped (0 if absent)
    std::uint64_t cyclesTiled = 0;      ///< eval.cycles_tiled

    /** Fraction of measurements cut short by the detector, [0, 1]. */
    double steadyHitRate() const;

    /** Fraction of measured cycles covered by tiling, [0, 1]. */
    double tiledCycleFraction() const;
};

/**
 * analyzeHistory() plus the run's analytics.csv and metrics.json
 * counters, for `gest report` and `gest compare`.
 */
RunReport analyzeRun(const std::string& run_dir);

/** Render the report as the text `gest report` prints. */
std::string formatReport(const RunReport& report);

/**
 * Render the report as one JSON object (`gest report --json`): the
 * same fields machine-readable, with an "analytics" sub-object when
 * the run recorded analytics.csv (null otherwise).
 */
std::string formatReportJson(const RunReport& report);

/** Everything `gest explain` prints, in analyzable form. */
struct ExplainReport
{
    std::string runDir;

    /** Parsed lineage.csv, in file order. */
    std::vector<analysis::LineageEvent> events;

    /** Champion ancestry reconstructed from the ledger. */
    analysis::Ancestry ancestry;

    /** Parsed analytics.csv; empty when the file is absent. */
    std::vector<analysis::AnalyticsRow> analytics;

    /**
     * Detected convergence pathologies, one actionable message each;
     * empty when the search looks healthy.
     */
    std::vector<std::string> pathologies;
};

/**
 * Analyze @p run_dir/lineage.csv (+ analytics.csv when present) for
 * `gest explain`. fatal() when the directory or ledger is missing.
 */
ExplainReport analyzeExplain(const std::string& run_dir);

/** Render the report as the text `gest explain` prints. */
std::string formatExplain(const ExplainReport& report);

} // namespace output
} // namespace gest

#endif // GEST_OUTPUT_REPORT_HH
