#include "registry/registry.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "analysis/health.hh"
#include "output/report.hh"
#include "output/top.hh"
#include "provenance/manifest.hh"
#include "stats/resample.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace registry {

namespace {

const char* const registryColumns =
    "run,status,state,config_hash,seed,git_sha,measurement,fitness,"
    "created,generations,generations_completed,evaluations,"
    "best_fitness,best_id,alerts,listen,note";

/** CSV cells must stay one-field: commas and newlines become ';'. */
std::string
csvSanitize(const std::string& s)
{
    std::string out = s;
    for (char& c : out) {
        if (c == ',' || c == '\n' || c == '\r')
            c = ';';
    }
    return out;
}

std::string
fitnessString(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Fill @p entry from the run's status.json, when present/parseable. */
void
applyStatusFile(const std::string& run_dir, RunEntry& entry)
{
    output::TopSnapshot status;
    status.state = entry.state;  // kept when status.json names none
    if (!output::readStatusFile(run_dir, status))
        return;
    if (!status.state.empty())
        entry.state = status.state;
    entry.listen = status.listen;
    if (entry.generations == 0)
        entry.generations = status.totalGenerations;
    if (entry.gitSha.empty())
        entry.gitSha = status.gitSha;
}

/** Count alerts.csv data rows; tolerate absent/malformed ledgers. */
void
applyAlerts(const std::string& run_dir, RunEntry& entry)
{
    try {
        std::vector<analysis::Alert> alerts;
        if (analysis::loadAlerts(run_dir, alerts))
            entry.alerts = alerts.size();
    } catch (const FatalError&) {
        // A malformed alerts ledger does not invalidate the run index.
    }
}

/** Index one run directory; never fatal()s. */
RunEntry
indexRun(const std::string& workspace, const std::string& name)
{
    RunEntry entry;
    entry.name = name;
    entry.path = workspace + "/" + name;

    if (fileExists(entry.path + "/manifest.json")) {
        provenance::Manifest manifest;
        std::string error;
        if (!provenance::loadManifest(entry.path, manifest, &error)) {
            entry.status = "corrupt";
            entry.note = csvSanitize(error);
            applyStatusFile(entry.path, entry);
            applyAlerts(entry.path, entry);
            return entry;
        }
        entry.status = "sealed";
        entry.state = "completed";
        entry.configHash = manifest.configHash;
        entry.hasSeed = manifest.hasSeed;
        entry.seed = manifest.seed;
        entry.gitSha = manifest.gitSha;
        entry.measurementClass = manifest.measurementClass;
        entry.fitnessClass = manifest.fitnessClass;
        entry.created = manifest.created;
        entry.generations = manifest.generations;
        entry.generationsCompleted = manifest.generationsCompleted;
        entry.evaluations = manifest.evaluations;
        entry.bestFitness = manifest.bestFitness;
        entry.bestId = manifest.bestId;
        applyStatusFile(entry.path, entry);
        applyAlerts(entry.path, entry);
        return entry;
    }

    // Unsealed: an in-flight run, or one recorded with provenance off.
    // history.csv carries the trajectory; status.json the live state;
    // the recorded configuration yields the cohort key.
    entry.status = "unsealed";
    try {
        const output::RunHistory history =
            output::analyzeHistory(entry.path);
        entry.generationsCompleted =
            static_cast<int>(history.rows.size());
        entry.evaluations = history.totalMeasured;
        entry.bestFitness = history.bestFitness;
    } catch (const FatalError& err) {
        entry.note = csvSanitize(err.what());
    }
    std::string config_text;
    if (tryReadFile(entry.path + "/run_configuration.xml",
                    config_text)) {
        try {
            entry.configHash =
                provenance::canonicalConfigHash(config_text);
        } catch (const FatalError&) {
            // Malformed recorded config: leave the cohort key empty.
        }
    }
    applyStatusFile(entry.path, entry);
    applyAlerts(entry.path, entry);
    return entry;
}

/** Per-generation samples a screening needs from one run. */
struct RunSamples
{
    std::vector<double> best;   ///< best_fitness per generation
    std::vector<double> rates;  ///< evals/sec per timed generation
    double evalsPerSec = 0.0;
    std::string error;  ///< non-empty: the run could not be read
};

RunSamples
collectSamples(const std::string& run_dir)
{
    RunSamples out;
    try {
        const output::RunHistory history =
            output::analyzeHistory(run_dir);
        for (const output::HistoryRow& row : history.rows) {
            out.best.push_back(row.bestFitness);
            if (row.evaluationMs > 0.0 && row.cacheMisses > 0)
                out.rates.push_back(
                    static_cast<double>(row.cacheMisses) /
                    (row.evaluationMs / 1e3));
        }
        out.evalsPerSec = history.evaluationsPerSecond();
    } catch (const FatalError& err) {
        out.error = err.what();
    }
    return out;
}

double
relDelta(double baseline, double candidate)
{
    const double denom = std::max(std::fabs(baseline), 1e-12);
    return (candidate - baseline) / denom;
}

} // namespace

std::vector<RunEntry>
scanWorkspace(const std::string& workspace)
{
    if (!dirExists(workspace))
        fatal("workspace '", workspace, "' is not a directory");
    std::vector<RunEntry> entries;
    for (const std::string& name : listDirs(workspace)) {
        const std::string dir = workspace + "/" + name;
        const bool looks_like_run =
            fileExists(dir + "/manifest.json") ||
            fileExists(dir + "/history.csv") ||
            fileExists(dir + "/status.json") ||
            fileExists(dir + "/run_configuration.xml");
        if (!looks_like_run)
            continue;
        entries.push_back(indexRun(workspace, name));
    }
    return entries;
}

std::string
formatRegistryCsv(const std::vector<RunEntry>& entries)
{
    std::string out = "# gest-registry v" +
                      std::to_string(registryVersion) + "\n";
    out += registryColumns;
    out += "\n";
    for (const RunEntry& e : entries) {
        out += csvSanitize(e.name) + "," + e.status + "," + e.state +
               "," + e.configHash + ",";
        out += e.hasSeed ? std::to_string(e.seed) : "";
        out += "," + csvSanitize(e.gitSha) + "," +
               csvSanitize(e.measurementClass) + "," +
               csvSanitize(e.fitnessClass) + "," +
               csvSanitize(e.created) + ",";
        out += std::to_string(e.generations) + "," +
               std::to_string(e.generationsCompleted) + "," +
               std::to_string(e.evaluations) + "," +
               fitnessString(e.bestFitness) + "," +
               std::to_string(e.bestId) + "," +
               std::to_string(e.alerts) + "," + csvSanitize(e.listen) +
               "," + csvSanitize(e.note) + "\n";
    }
    return out;
}

std::string
formatRegistryJson(const std::string& workspace,
                   const std::vector<RunEntry>& entries)
{
    std::string out = "{\n  \"gest_registry_version\": " +
                      std::to_string(registryVersion) + ",\n";
    out += "  \"workspace\": \"" + jsonEscape(workspace) + "\",\n";
    out += "  \"runs\": [";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const RunEntry& e = entries[i];
        out += i == 0 ? "\n    {" : ",\n    {";
        out += "\n      \"run\": \"" + jsonEscape(e.name) + "\",";
        out += "\n      \"status\": \"" + e.status + "\",";
        out += "\n      \"state\": \"" + e.state + "\",";
        out += "\n      \"config_hash\": \"" + e.configHash + "\",";
        // Seed as a JSON string, the manifest's convention (a uint64
        // does not fit a double losslessly); null when unknown.
        out += "\n      \"seed\": ";
        out += e.hasSeed ? "\"" + std::to_string(e.seed) + "\"" : "null";
        out += ",";
        out += "\n      \"git_sha\": \"" + jsonEscape(e.gitSha) + "\",";
        out += "\n      \"measurement_class\": \"" +
               jsonEscape(e.measurementClass) + "\",";
        out += "\n      \"fitness_class\": \"" +
               jsonEscape(e.fitnessClass) + "\",";
        out += "\n      \"created\": \"" + jsonEscape(e.created) + "\",";
        out += "\n      \"generations\": " +
               std::to_string(e.generations) + ",";
        out += "\n      \"generations_completed\": " +
               std::to_string(e.generationsCompleted) + ",";
        out += "\n      \"evaluations\": " +
               std::to_string(e.evaluations) + ",";
        out += "\n      \"best_fitness\": " +
               fitnessString(e.bestFitness) + ",";
        out += "\n      \"best_id\": " + std::to_string(e.bestId) + ",";
        out += "\n      \"alerts\": " + std::to_string(e.alerts) + ",";
        out += "\n      \"listen\": \"" + jsonEscape(e.listen) + "\",";
        out += "\n      \"note\": \"" + jsonEscape(e.note) + "\"";
        out += "\n    }";
    }
    out += entries.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

std::string
writeRegistry(const std::string& workspace,
              const std::vector<RunEntry>& entries)
{
    const std::string csv_path = workspace + "/registry.csv";
    writeFileAtomic(csv_path, formatRegistryCsv(entries));
    return csv_path;
}

std::string
entryField(const RunEntry& e, const std::string& key)
{
    if (key == "run")
        return e.name;
    if (key == "status")
        return e.status;
    if (key == "state")
        return e.state;
    if (key == "config_hash")
        return e.configHash;
    if (key == "seed")
        return e.hasSeed ? std::to_string(e.seed) : "";
    if (key == "git_sha")
        return e.gitSha;
    if (key == "measurement")
        return e.measurementClass;
    if (key == "fitness")
        return e.fitnessClass;
    if (key == "created")
        return e.created;
    if (key == "generations")
        return std::to_string(e.generations);
    if (key == "generations_completed")
        return std::to_string(e.generationsCompleted);
    if (key == "evaluations")
        return std::to_string(e.evaluations);
    if (key == "best_fitness")
        return fitnessString(e.bestFitness);
    if (key == "best_id")
        return std::to_string(e.bestId);
    if (key == "alerts")
        return std::to_string(e.alerts);
    if (key == "listen")
        return e.listen;
    if (key == "note")
        return e.note;
    return "";
}

bool
matchesFilter(const RunEntry& entry, const std::string& key,
              const std::string& value)
{
    const std::string cell = entryField(entry, key);
    return cell == value || startsWith(cell, value);
}

std::vector<BaselineComparison>
screenBaseline(const std::string& workspace,
               const std::string& baseline_name,
               const std::vector<RunEntry>& entries)
{
    // Accept the run's name or its path (trailing slashes stripped).
    std::string wanted = baseline_name;
    while (!wanted.empty() && wanted.back() == '/')
        wanted.pop_back();
    const std::size_t slash = wanted.find_last_of('/');
    if (slash != std::string::npos)
        wanted = wanted.substr(slash + 1);

    const RunEntry* baseline = nullptr;
    for (const RunEntry& e : entries) {
        if (e.name == wanted) {
            baseline = &e;
            break;
        }
    }
    if (baseline == nullptr)
        fatal("baseline run '", baseline_name, "' is not indexed in ",
              workspace, " (run `gest runs ", workspace,
              "` to see the index)");
    if (baseline->configHash.empty())
        fatal("baseline run '", baseline->name,
              "' has no config hash to build a cohort from");

    const RunSamples base = collectSamples(baseline->path);
    if (!base.error.empty())
        fatal("baseline run '", baseline->name, "': ", base.error);

    std::vector<BaselineComparison> out;
    for (const RunEntry& e : entries) {
        if (e.name == baseline->name || e.status == "corrupt" ||
            e.configHash != baseline->configHash)
            continue;
        BaselineComparison cmp;
        cmp.baseline = baseline->name;
        cmp.candidate = e.name;
        cmp.sameSeed =
            baseline->hasSeed && e.hasSeed && baseline->seed == e.seed;
        cmp.baselineBest = baseline->bestFitness;
        cmp.candidateBest = e.bestFitness;

        const RunSamples cand = collectSamples(e.path);
        if (!cand.error.empty()) {
            cmp.error = cand.error;
            out.push_back(std::move(cmp));
            continue;
        }
        cmp.fitnessP = stats::permutationPValue(base.best, cand.best);
        cmp.fitnessRelDelta =
            relDelta(stats::mean(base.best), stats::mean(cand.best));
        cmp.fitnessRegression = cmp.fitnessP < 0.05;

        cmp.baselineEvalsPerSec = base.evalsPerSec;
        cmp.candidateEvalsPerSec = cand.evalsPerSec;
        cmp.throughputP =
            stats::permutationPValue(base.rates, cand.rates);
        cmp.throughputRelDelta =
            relDelta(stats::mean(base.rates), stats::mean(cand.rates));
        cmp.throughputDrift =
            cmp.throughputP < 0.05 &&
            std::fabs(cmp.throughputRelDelta) > 0.10;
        out.push_back(std::move(cmp));
    }
    return out;
}

std::string
formatRunsTable(const std::vector<RunEntry>& entries)
{
    char line[512];
    std::string out;
    std::snprintf(line, sizeof(line),
                  "%-24s %-8s %-10s %9s %12s %-12s %-12s %6s\n", "run",
                  "status", "state", "gens", "best", "config",
                  "git sha", "alerts");
    out += line;
    std::uint64_t alerts = 0;
    int running = 0;
    for (const RunEntry& e : entries) {
        const std::string gens =
            std::to_string(e.generationsCompleted) + "/" +
            (e.generations > 0 ? std::to_string(e.generations) : "?");
        std::snprintf(line, sizeof(line),
                      "%-24s %-8s %-10s %9s %12.6f %-12s %-12s %6llu\n",
                      e.name.c_str(), e.status.c_str(),
                      e.state.c_str(), gens.c_str(), e.bestFitness,
                      e.configHash.substr(0, 12).c_str(),
                      e.gitSha.substr(0, 12).c_str(),
                      static_cast<unsigned long long>(e.alerts));
        out += line;
        if (!e.note.empty())
            out += "    note: " + e.note + "\n";
        alerts += e.alerts;
        if (e.state == "running")
            ++running;
    }
    std::snprintf(line, sizeof(line),
                  "%zu run(s) indexed, %d running, %llu alert(s)\n",
                  entries.size(), running,
                  static_cast<unsigned long long>(alerts));
    out += line;
    return out;
}

std::string
formatBaselineTable(const std::vector<BaselineComparison>& rows)
{
    std::string out;
    if (rows.empty())
        return "cohort: no other runs share the baseline's config "
               "hash\n";
    char line[512];
    out += "cohort screening (baseline " + rows.front().baseline +
           "):\n";
    for (const BaselineComparison& cmp : rows) {
        if (!cmp.error.empty()) {
            out += "  " + cmp.candidate + ": unreadable (" + cmp.error +
                   ")\n";
            continue;
        }
        std::snprintf(
            line, sizeof(line),
            "  %-24s %s  fitness p=%.4f delta %+.2f%%  "
            "throughput p=%.4f delta %+.1f%%%s%s\n",
            cmp.candidate.c_str(),
            cmp.fitnessRegression ? "REGRESSION" : "ok        ",
            cmp.fitnessP, 100.0 * cmp.fitnessRelDelta, cmp.throughputP,
            100.0 * cmp.throughputRelDelta,
            cmp.throughputDrift ? "  (throughput drift)" : "",
            cmp.sameSeed ? "  [same seed]" : "");
        out += line;
    }
    return out;
}

std::string
formatBaselineJson(const std::vector<BaselineComparison>& rows)
{
    std::string out = "[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const BaselineComparison& cmp = rows[i];
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "\n  {\"baseline\": \"%s\", \"candidate\": \"%s\", "
            "\"same_seed\": %s, \"fitness_p\": %.6f, "
            "\"fitness_rel_delta\": %.9g, \"fitness_regression\": %s, "
            "\"throughput_p\": %.6f, \"throughput_rel_delta\": %.9g, "
            "\"throughput_drift\": %s, \"error\": \"%s\"}",
            jsonEscape(cmp.baseline).c_str(),
            jsonEscape(cmp.candidate).c_str(),
            cmp.sameSeed ? "true" : "false", cmp.fitnessP,
            cmp.fitnessRelDelta, cmp.fitnessRegression ? "true" : "false",
            cmp.throughputP, cmp.throughputRelDelta,
            cmp.throughputDrift ? "true" : "false",
            jsonEscape(cmp.error).c_str());
        out += buf;
        if (i + 1 < rows.size())
            out += ",";
    }
    out += rows.empty() ? "]\n" : "\n]\n";
    return out;
}

} // namespace registry
} // namespace gest
