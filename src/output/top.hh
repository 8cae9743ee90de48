/**
 * @file
 * The live terminal dashboard behind `gest top <url|run_dir>`: one
 * snapshot of an in-flight (or finished) run, collected either by
 * scraping the embedded telemetry server (/status, /history, /metrics)
 * or by polling the run directory's files when no server is listening.
 * Collection and rendering are split so tests can render canned
 * snapshots without a server or a terminal.
 */

#ifndef GEST_OUTPUT_TOP_HH
#define GEST_OUTPUT_TOP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "output/ledger.hh"

namespace gest {
namespace output {

/** Everything one `gest top` refresh displays. */
struct TopSnapshot
{
    /** true: scraped over HTTP; false: read from run-dir files. */
    bool live = false;

    /** The URL or run directory the snapshot came from. */
    std::string source;

    std::string state = "unknown";  ///< "running" or "completed"
    int generation = -1;
    int totalGenerations = 0;

    double bestFitness = 0.0;
    double averageFitness = 0.0;
    double diversity = 0.0;

    // Population analytics (negative: analytics off → rendered "n/a",
    // never a misleading 0).
    double geneEntropyBits = -1.0;
    double pairwiseDiversity = -1.0;

    // Search-space coverage (valid only when hasCoverage; filled from
    // /coverage live or coverage.csv's last row from files).
    bool hasCoverage = false;
    std::uint64_t coverageCellsSeen = 0;
    std::uint64_t coverageCellsTotal = 0;
    std::uint64_t coverageNewCells = 0;
    double coverageSaturationPct = 0.0;
    double coverageNoveltyRate = 0.0;

    std::uint64_t evaluations = 0;
    double cacheHitRate = 0.0;  ///< [0, 1]
    double evalsPerSec = 0.0;
    double elapsedSeconds = 0.0;
    double etaSeconds = 0.0;

    // Steady-state fast path (zero when stats were off).
    std::uint64_t steadyHits = 0;
    std::uint64_t cyclesSimulated = 0;
    std::uint64_t cyclesTiled = 0;
    std::uint64_t simEvaluations = 0;

    /** best_fitness per generation, for the sparkline. */
    std::vector<double> bestTrajectory;

    // Phase totals, milliseconds (zero when timing was off).
    double selectionMs = 0.0;
    double crossoverMs = 0.0;
    double mutationMs = 0.0;
    double evaluationMs = 0.0;

    /** Busy fraction per evaluation worker, [0, 1]; may be empty. */
    std::vector<double> workerBusyFrac;

    /**
     * Health-watchdog alerts: -1 when the run is unwatched (pane
     * hidden), 0 for a watched clean run ("alerts none"). alertLines
     * holds the most recent alerts, already human-formatted.
     */
    std::int64_t alertsRaised = -1;
    int lastAlertGeneration = -1;
    std::string lastAlertRule;
    std::vector<std::string> alertLines;

    /** Build identity of the serving binary (from /status; may be ""). */
    std::string gitSha;
    std::string build;

    /** Non-empty when collection failed; other fields are unusable. */
    std::string error;
};

/**
 * Scrape @p url (a telemetry server root, e.g. "127.0.0.1:8080" or
 * "http://127.0.0.1:8080"). @return false — with snapshot.error set —
 * when the server is unreachable or responds malformed.
 */
bool fetchTopSnapshot(const std::string& url, TopSnapshot& out);

/**
 * The file poller behind `gest top <run_dir>`, for runs without
 * --listen. Each poll reads only the history.csv bytes appended since
 * the last one and feeds its complete lines to the history ledger's
 * decoder: a partial last line waits for its newline, and a file that
 * shrank (truncated or replaced) is re-read from offset 0. So a refresh
 * costs O(new generations), not O(run length). status.json is a
 * snapshot and is re-read whole. coverage.csv and alerts.csv are
 * per-generation append-only ledgers as well, but are still re-read
 * whole each poll: O(run length) for coverage.csv, while alerts.csv
 * holds at most one row per watchdog rule.
 */
class TopFilePoller
{
  public:
    explicit TopFilePoller(std::string run_dir);

    /**
     * Refresh @p out from the run directory (status.json refines the
     * history.csv totals with rates and the live state). @return false
     * with snapshot.error set when the directory is missing or a
     * ledger is damaged (the error names the file and line); a run
     * with no history.csv yet renders as a waiting frame.
     */
    bool poll(TopSnapshot& out);

  private:
    /** Aggregates over every history row decoded so far. */
    struct Totals
    {
        bool sawRow = false;
        int lastGeneration = -1;
        double lastAverage = 0.0;
        double lastDiversity = 0.0;
        double best = 0.0;
        std::vector<double> trajectory;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        double selectionMs = 0.0;
        double crossoverMs = 0.0;
        double mutationMs = 0.0;
        double evaluationMs = 0.0;
    };

    bool refresh(TopSnapshot& out);  ///< poll() minus error handling
    void reset();
    void readHistory();
    void addRow();

    std::string _runDir;
    std::uint64_t _offset = 0;  ///< history.csv bytes consumed
    std::string _carry;         ///< partial line awaiting its newline
    ledger::Decoder _history;
    Totals _totals;
};

/**
 * Map @p values onto a @p width-glyph Unicode sparkline (block
 * elements U+2581..U+2588); values are bucketed when there are more
 * than @p width of them. Empty input renders as an empty string.
 */
std::string sparkline(const std::vector<double>& values,
                      std::size_t width);

/** Render one dashboard frame (multi-line, trailing newline). */
std::string renderTop(const TopSnapshot& snapshot);

} // namespace output
} // namespace gest

#endif // GEST_OUTPUT_TOP_HH
