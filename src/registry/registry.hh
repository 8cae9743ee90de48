/**
 * @file
 * The experiment registry: the first subsystem that reads *across*
 * runs. A workspace is any directory whose subdirectories are run
 * directories; the registry scans it, indexes every run — sealed runs
 * via their manifest.json, unsealed (in-flight or provenance-off) runs
 * via history.csv/status.json, unreadable ones as "corrupt" — and
 * writes a `# gest-registry v1` CSV into the workspace (and prints the
 * same index as JSON for `gest runs --json`), keyed by config hash,
 * seed, git sha and final fitness.
 *
 * On top of the index sits cross-run regression screening
 * (`gest runs --baseline <run>`): every cohort member sharing the
 * baseline's config hash is compared with stats::permutationPValue —
 * the per-generation best-fitness trajectories gate the *regression*
 * flag (deterministic: two same-seed runs are identical and never
 * flag), while throughput drift is reported separately as
 * informational, the same result-vs-performance split `gest compare`
 * uses. See docs/fleet.md.
 */

#ifndef GEST_REGISTRY_REGISTRY_HH
#define GEST_REGISTRY_REGISTRY_HH

#include <cstdint>
#include <string>
#include <vector>

namespace gest {
namespace registry {

/** Registry schema version written by this build. */
constexpr int registryVersion = 1;

/** One indexed run directory. */
struct RunEntry
{
    std::string name;  ///< directory name inside the workspace
    std::string path;  ///< workspace-joined path

    /**
     * How the run was indexed: "sealed" (manifest.json), "unsealed"
     * (history.csv/status.json fallback) or "corrupt" (a manifest
     * exists but cannot be read; see note).
     */
    std::string status;

    /** "running", "completed" or "unknown" (no status.json). */
    std::string state = "unknown";

    std::string configHash;  ///< canonical config hash; "" unknown
    bool hasSeed = false;
    std::uint64_t seed = 0;
    std::string gitSha;
    std::string measurementClass;
    std::string fitnessClass;
    std::string created;  ///< manifest seal time; "" when unsealed

    int generations = 0;  ///< budget; 0 unknown
    int generationsCompleted = 0;
    std::uint64_t evaluations = 0;
    double bestFitness = 0.0;
    std::uint64_t bestId = 0;

    std::uint64_t alerts = 0;  ///< data rows in alerts.csv
    std::string listen;  ///< live telemetry endpoint, from status.json
    std::string note;    ///< diagnostics (comma-free); e.g. why corrupt
};

/**
 * Scan @p workspace for run directories (any subdirectory holding a
 * manifest.json, history.csv, status.json or run_configuration.xml)
 * and index each. Subdirectories that are not runs are skipped;
 * nothing fatal()s on a sick run — it is indexed as "corrupt" with the
 * reason in note. fatal() only when @p workspace itself is not a
 * directory.
 */
std::vector<RunEntry> scanWorkspace(const std::string& workspace);

/** Render the `# gest-registry v1` CSV index. */
std::string formatRegistryCsv(const std::vector<RunEntry>& entries);

/** Render the index as JSON (what `gest runs --json` prints). */
std::string formatRegistryJson(const std::string& workspace,
                               const std::vector<RunEntry>& entries);

/**
 * Write registry.csv into @p workspace (atomically: a concurrent
 * reader sees the previous index or this one).
 * @return the CSV path.
 */
std::string writeRegistry(const std::string& workspace,
                          const std::vector<RunEntry>& entries);

/**
 * The CSV cell value of @p entry's column @p key (e.g. "config_hash",
 * "seed", "state"); "" for an unknown key.
 */
std::string entryField(const RunEntry& entry, const std::string& key);

/**
 * `--filter key=value`: true when the entry's column equals @p value
 * or starts with it (so hash prefixes work like git's).
 */
bool matchesFilter(const RunEntry& entry, const std::string& key,
                   const std::string& value);

/** One cohort member screened against the baseline run. */
struct BaselineComparison
{
    std::string baseline;   ///< baseline run name
    std::string candidate;  ///< cohort run name
    bool sameSeed = false;

    double baselineBest = 0.0;
    double candidateBest = 0.0;

    /**
     * Permutation p-value over the per-generation best-fitness
     * trajectories, and the relative mean delta. The regression flag
     * is p < 0.05: deterministic (the test is seeded), and two
     * same-seed runs have identical trajectories, hence p = 1.
     */
    double fitnessP = 1.0;
    double fitnessRelDelta = 0.0;
    bool fitnessRegression = false;

    /**
     * Throughput drift (per-generation measured evals/sec): flagged
     * when p < 0.05 AND the relative delta exceeds 10%, but — like
     * `gest compare`'s performance section — reported separately and
     * never part of the regression verdict, because wall-clock noise
     * is not a result change.
     */
    double baselineEvalsPerSec = 0.0;
    double candidateEvalsPerSec = 0.0;
    double throughputP = 1.0;
    double throughputRelDelta = 0.0;
    bool throughputDrift = false;

    std::string error;  ///< non-empty: this member could not be read
};

/**
 * Screen every indexed run sharing @p baseline_name's config hash
 * against it. fatal() when the baseline is not in @p entries or has no
 * readable history.
 */
std::vector<BaselineComparison>
screenBaseline(const std::string& workspace,
               const std::string& baseline_name,
               const std::vector<RunEntry>& entries);

/** Render the human-readable `gest runs` table. */
std::string formatRunsTable(const std::vector<RunEntry>& entries);

/** Render the human-readable screening section. */
std::string
formatBaselineTable(const std::vector<BaselineComparison>& rows);

/** JSON rows of the screening (an array). */
std::string
formatBaselineJson(const std::vector<BaselineComparison>& rows);

} // namespace registry
} // namespace gest

#endif // GEST_REGISTRY_REGISTRY_HH
