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

/**
 * One registry cell: its text, which `--filter` matches and
 * registry.csv writes (a String through csvSanitize), and its JSON
 * form: a quoted String, a bare Number, or null.
 */
struct Cell
{
    enum class Json { String, Number, Null };
    std::string text;
    Json json;
};

Cell
text(std::string s)
{
    return {std::move(s), Cell::Json::String};
}

template <typename Int>
Cell
integer(Int v)
{
    return {std::to_string(v), Cell::Json::Number};
}

/** `%.17g`, which round-trips the double; null in JSON unless finite. */
Cell
number(double v)
{
    Cell cell{"", std::isfinite(v) ? Cell::Json::Number : Cell::Json::Null};
    appendNumber(cell.text, v);
    return cell;
}

/** One RunEntry field as a registry column. */
struct Column
{
    const char* name;     ///< registry.csv header and --filter key
    const char* jsonKey;  ///< `gest runs --json` key
    Cell (*cell)(const RunEntry&);
};

const Column columns[] = {
    {"run", "run", [](const RunEntry& e) { return text(e.name); }},
    {"status", "status", [](const RunEntry& e) { return text(e.status); }},
    {"state", "state", [](const RunEntry& e) { return text(e.state); }},
    {"config_hash", "config_hash",
     [](const RunEntry& e) { return text(e.configHash); }},
    // A JSON string, the manifest's convention (a uint64 does not fit
    // a double losslessly); null when unknown.
    {"seed", "seed",
     [](const RunEntry& e) {
         return e.hasSeed ? text(std::to_string(e.seed))
                          : Cell{"", Cell::Json::Null};
     }},
    {"git_sha", "git_sha", [](const RunEntry& e) { return text(e.gitSha); }},
    {"measurement", "measurement_class",
     [](const RunEntry& e) { return text(e.measurementClass); }},
    {"fitness", "fitness_class",
     [](const RunEntry& e) { return text(e.fitnessClass); }},
    {"created", "created", [](const RunEntry& e) { return text(e.created); }},
    {"generations", "generations",
     [](const RunEntry& e) { return integer(e.generations); }},
    {"generations_completed", "generations_completed",
     [](const RunEntry& e) { return integer(e.generationsCompleted); }},
    {"evaluations", "evaluations",
     [](const RunEntry& e) { return integer(e.evaluations); }},
    {"best_fitness", "best_fitness",
     [](const RunEntry& e) { return number(e.bestFitness); }},
    {"best_id", "best_id", [](const RunEntry& e) { return integer(e.bestId); }},
    {"alerts", "alerts", [](const RunEntry& e) { return integer(e.alerts); }},
    {"listen", "listen", [](const RunEntry& e) { return text(e.listen); }},
    {"note", "note", [](const RunEntry& e) { return text(e.note); }},
};

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
        for (const core::GenerationRecord& row : history.rows) {
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
    for (const Column& column : columns) {
        out += &column == columns ? "" : ",";
        out += column.name;
    }
    out += "\n";
    for (const RunEntry& e : entries) {
        for (const Column& column : columns) {
            out += &column == columns ? "" : ",";
            const Cell cell = column.cell(e);
            out += cell.json == Cell::Json::String ? csvSanitize(cell.text)
                                                  : cell.text;
        }
        out += "\n";
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
        out += i == 0 ? "\n    {" : ",\n    {";
        for (const Column& column : columns) {
            out += &column == columns ? "\n      \"" : ",\n      \"";
            out += column.jsonKey;
            out += "\": ";
            const Cell cell = column.cell(entries[i]);
            switch (cell.json) {
              case Cell::Json::String:
                out += "\"" + jsonEscape(cell.text) + "\"";
                break;
              case Cell::Json::Number: out += cell.text; break;
              case Cell::Json::Null: out += "null"; break;
            }
        }
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
    for (const Column& column : columns) {
        if (key == column.name)
            return column.cell(e).text;
    }
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
        out += "\n  {\"baseline\": \"" + jsonEscape(cmp.baseline);
        out += "\", \"candidate\": \"" + jsonEscape(cmp.candidate);
        out += "\", \"same_seed\": ";
        out += cmp.sameSeed ? "true" : "false";
        out += ", \"fitness_p\": " + formatFixed(cmp.fitnessP, 6);
        out += ", \"fitness_rel_delta\": " +
               jsonNumber(cmp.fitnessRelDelta, 9);
        out += ", \"fitness_regression\": ";
        out += cmp.fitnessRegression ? "true" : "false";
        out += ", \"throughput_p\": " + formatFixed(cmp.throughputP, 6);
        out += ", \"throughput_rel_delta\": " +
               jsonNumber(cmp.throughputRelDelta, 9);
        out += ", \"throughput_drift\": ";
        out += cmp.throughputDrift ? "true" : "false";
        out += ", \"error\": \"" + jsonEscape(cmp.error) + "\"}";
        if (i + 1 < rows.size())
            out += ",";
    }
    out += rows.empty() ? "]\n" : "\n]\n";
    return out;
}

} // namespace registry
} // namespace gest
