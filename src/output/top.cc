#include "output/top.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "analysis/health.hh"
#include "net/http_client.hh"
#include "output/ledger.hh"
#include "output/report.hh"
#include "util/fileutil.hh"
#include "util/jsonlite.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace output {

namespace {

/**
 * Fill the /status-shaped fields of @p out from parsed JSON: the one
 * status.json parser. An absent `state` keeps @p out's.
 */
void
applyStatus(const json::Value& status, TopSnapshot& out)
{
    out.gitSha = status.stringOr("git_sha", "");
    out.build = status.stringOr("build", "");
    if (const json::Value* alerts = status.find("alerts")) {
        out.alertsRaised = static_cast<std::int64_t>(
            alerts->numberOr("raised", 0.0));
        out.lastAlertGeneration = static_cast<int>(
            alerts->numberOr("last_generation", -1.0));
        out.lastAlertRule = alerts->stringOr("last_rule", "");
    }
    out.state = status.stringOr("state", out.state);
    out.listen = status.stringOr("listen", "");
    out.generation =
        static_cast<int>(status.numberOr("generation", -1));
    out.totalGenerations =
        static_cast<int>(status.numberOr("total_generations", 0));
    out.bestFitness = status.numberOr("best_fitness", 0.0);
    out.averageFitness = status.numberOr("average_fitness", 0.0);
    out.diversity = status.numberOr("diversity", 0.0);
    out.evaluations = static_cast<std::uint64_t>(
        status.numberOr("evaluations", 0.0));
    out.cacheHitRate = status.numberOr("cache_hit_rate", 0.0);
    out.evalsPerSec = status.numberOr("evals_per_sec", 0.0);
    out.elapsedSeconds = status.numberOr("elapsed_seconds", 0.0);
    out.etaSeconds = status.numberOr("eta_seconds", 0.0);
    out.steadyHits = static_cast<std::uint64_t>(
        status.numberOr("steady_hits", 0.0));
    out.cyclesSimulated = static_cast<std::uint64_t>(
        status.numberOr("cycles_simulated", 0.0));
    out.cyclesTiled = static_cast<std::uint64_t>(
        status.numberOr("cycles_tiled", 0.0));
    // Negative sentinels survive analytics-off status.json (which
    // run::statusJson writes as -1) and missing keys alike.
    out.geneEntropyBits = status.numberOr("gene_entropy_bits", -1.0);
    out.pairwiseDiversity =
        status.numberOr("pairwise_diversity", -1.0);
}

/** Fill the coverage fields of @p out from parsed /coverage JSON. */
void
applyCoverage(const json::Value& coverage, TopSnapshot& out)
{
    const std::uint64_t total = static_cast<std::uint64_t>(
        coverage.numberOr("cells_total", 0.0));
    if (total == 0)
        return;  // "coverage not recorded" placeholder
    out.hasCoverage = true;
    out.coverageCellsTotal = total;
    out.coverageCellsSeen = static_cast<std::uint64_t>(
        coverage.numberOr("cells_seen", 0.0));
    out.coverageNewCells = static_cast<std::uint64_t>(
        coverage.numberOr("cells_new", 0.0));
    out.coverageSaturationPct =
        coverage.numberOr("saturation_pct", 0.0);
    out.coverageNoveltyRate = coverage.numberOr("novelty_rate", 0.0);
}

/**
 * Fill the coverage fields of @p out from @p run_dir's coverage.csv
 * (last complete row), when the run recorded one.
 */
void
loadCoverageCsv(const std::string& run_dir, TopSnapshot& out)
{
    const std::string path = run_dir + "/" + ledger::coverage.file;
    std::string text;
    if (!tryReadFile(path, text))
        return;
    ledger::decode(ledger::coverage, path, text,
                   [&](const ledger::Decoder& row) {
        out.hasCoverage = true;
        out.coverageCellsTotal =
            static_cast<std::uint64_t>(row.integer("cells_total"));
        out.coverageCellsSeen =
            static_cast<std::uint64_t>(row.integer("cells_seen"));
        out.coverageNewCells =
            static_cast<std::uint64_t>(row.integer("cells_new"));
        out.coverageSaturationPct = row.number("saturation_pct");
        out.coverageNoveltyRate = row.number("novelty_rate");
    });
}

/** An alert as one dashboard pane line. */
std::string
formatAlertLine(int generation, const std::string& rule,
                const std::string& severity, const std::string& message)
{
    return "gen " + std::to_string(generation) + " " + rule + " (" +
           severity + "): " + message;
}

/** Fill the alerts pane of @p out from @p run_dir's alerts.csv. */
void
loadAlertsCsv(const std::string& run_dir, TopSnapshot& out)
{
    std::vector<analysis::Alert> alerts;
    if (!analysis::loadAlerts(run_dir, alerts))
        return;
    out.alertsRaised = static_cast<std::int64_t>(alerts.size());
    if (!alerts.empty()) {
        out.lastAlertGeneration = alerts.back().generation;
        out.lastAlertRule = alerts.back().rule;
    }
    const std::size_t first = alerts.size() > 3 ? alerts.size() - 3 : 0;
    for (std::size_t i = first; i < alerts.size(); ++i)
        out.alertLines.push_back(
            formatAlertLine(alerts[i].generation, alerts[i].rule,
                            alerts[i].severity, alerts[i].message));
}

/** Value of the first "<metric> <number>" line, or @p fallback. */
double
metricValue(const std::string& metrics, const std::string& metric,
            double fallback)
{
    std::size_t pos = 0;
    while (pos < metrics.size()) {
        std::size_t eol = metrics.find('\n', pos);
        if (eol == std::string::npos)
            eol = metrics.size();
        if (metrics.compare(pos, metric.size(), metric) == 0 &&
            pos + metric.size() < eol &&
            metrics[pos + metric.size()] == ' ') {
            return std::strtod(metrics.c_str() + pos + metric.size() + 1,
                               nullptr);
        }
        pos = eol + 1;
    }
    return fallback;
}

/** Per-worker busy fractions from engine.worker.N.busy_us counters. */
std::vector<double>
workerBusyFromMetrics(const std::string& metrics, double elapsed_s)
{
    std::vector<double> out;
    if (elapsed_s <= 0.0)
        return out;
    for (int w = 0;; ++w) {
        const double busy_us = metricValue(
            metrics,
            "gest_engine_worker_" + std::to_string(w) + "_busy_us_total",
            -1.0);
        if (busy_us < 0.0)
            break;
        out.push_back(
            std::min(1.0, busy_us / 1e6 / elapsed_s));
    }
    return out;
}

} // namespace

bool
fetchTopSnapshot(const std::string& url, TopSnapshot& out)
{
    out = TopSnapshot();
    out.live = true;
    std::string base = url;
    while (!base.empty() && base.back() == '/')
        base.pop_back();
    out.source = base;

    const net::HttpResult status_res = net::httpGet(base + "/status");
    if (!status_res.ok || status_res.status != 200) {
        out.error = status_res.ok
                        ? "/status returned HTTP " +
                              std::to_string(status_res.status)
                        : status_res.error;
        return false;
    }
    json::Value status;
    std::string parse_error;
    if (!json::parse(status_res.body, status, &parse_error)) {
        out.error = "/status is not valid JSON: " + parse_error;
        return false;
    }
    applyStatus(status, out);

    const net::HttpResult history_res = net::httpGet(base + "/history");
    if (history_res.ok && history_res.status == 200) {
        json::Value history;
        if (json::parse(history_res.body, history, nullptr) &&
            history.isArray()) {
            for (const json::Value& row : history.array) {
                out.bestTrajectory.push_back(
                    row.numberOr("best_fitness", 0.0));
                out.evaluationMs += row.numberOr("evaluation_ms", 0.0);
            }
        }
    }

    const net::HttpResult metrics_res = net::httpGet(base + "/metrics");
    if (metrics_res.ok && metrics_res.status == 200) {
        const std::string& m = metrics_res.body;
        out.selectionMs =
            metricValue(m, "gest_engine_selection_us_sum", 0.0) / 1e3;
        out.crossoverMs =
            metricValue(m, "gest_engine_crossover_us_sum", 0.0) / 1e3;
        out.mutationMs =
            metricValue(m, "gest_engine_mutation_us_sum", 0.0) / 1e3;
        out.simEvaluations = static_cast<std::uint64_t>(metricValue(
            m, "gest_measure_sim_evaluations_total", 0.0));
        out.workerBusyFrac =
            workerBusyFromMetrics(m, out.elapsedSeconds);
    }

    const net::HttpResult coverage_res =
        net::httpGet(base + "/coverage");
    if (coverage_res.ok && coverage_res.status == 200) {
        json::Value coverage;
        if (json::parse(coverage_res.body, coverage, nullptr))
            applyCoverage(coverage, out);
    }

    const net::HttpResult alerts_res = net::httpGet(base + "/alerts");
    if (alerts_res.ok && alerts_res.status == 200) {
        json::Value alerts;
        if (json::parse(alerts_res.body, alerts, nullptr) &&
            alerts.isArray()) {
            // /alerts exists on every serving build, but only watched
            // runs publish into it; status.json's alerts block is the
            // authority on watched-vs-not, so an empty array does not
            // flip the -1 sentinel on its own.
            if (!alerts.array.empty())
                out.alertsRaised =
                    static_cast<std::int64_t>(alerts.array.size());
            const std::size_t first =
                alerts.array.size() > 3 ? alerts.array.size() - 3 : 0;
            for (std::size_t i = first; i < alerts.array.size(); ++i) {
                const json::Value& a = alerts.array[i];
                out.alertLines.push_back(formatAlertLine(
                    static_cast<int>(a.numberOr("generation", 0.0)),
                    a.stringOr("rule", "?"),
                    a.stringOr("severity", "?"),
                    a.stringOr("message", "")));
            }
        }
    }
    return true;
}

bool
readStatusFile(const std::string& run_dir, TopSnapshot& out)
{
    std::string text;
    if (!tryReadFile(run_dir + "/status.json", text))
        return false;
    json::Value status;
    if (json::parse(text, status, nullptr))
        applyStatus(status, out);
    return true;
}

bool
loadTopSnapshot(const std::string& run_dir, TopSnapshot& out)
{
    out = TopSnapshot();
    out.source = run_dir;
    try {
        RunHistory history;
        const HistoryFound found = loadHistory(run_dir, history);
        if (found == HistoryFound::NoFile && !dirExists(run_dir)) {
            out.error = "run directory '" + run_dir + "' does not exist";
            return false;
        }
        if (found != HistoryFound::Rows) {
            out.state = "waiting for first generation";
            return true;
        }

        out.generation = history.rows.back().generation;
        out.bestFitness = history.bestFitness;
        out.averageFitness = history.finalAverage;
        out.diversity = history.finalDiversity;
        for (const HistoryRow& row : history.rows)
            out.bestTrajectory.push_back(row.bestFitness);
        out.evaluations = history.totalMeasured;
        out.cacheHitRate = history.cacheHitRate();
        out.evalsPerSec = history.evaluationsPerSecond();
        out.selectionMs = history.selectionMs;
        out.crossoverMs = history.crossoverMs;
        out.mutationMs = history.mutationMs;
        out.evaluationMs = history.evaluationMs;

        if (!readStatusFile(run_dir, out))
            out.state = "unknown (no status.json; analytics off?)";
        loadCoverageCsv(run_dir, out);
        loadAlertsCsv(run_dir, out);
    } catch (const FatalError& err) {
        out.error = err.what();
        return false;
    }
    return true;
}

std::string
sparkline(const std::vector<double>& values, std::size_t width)
{
    static const char* glyphs[] = {"▁", "▂", "▃", "▄",
                                   "▅", "▆", "▇", "█"};
    if (values.empty() || width == 0)
        return "";

    // Bucket down to `width` cells, keeping each bucket's last value
    // (the trajectory is monotone enough that last ≈ max and the right
    // edge always shows the current value).
    std::vector<double> cells;
    const std::size_t n = values.size();
    if (n <= width) {
        cells = values;
    } else {
        for (std::size_t c = 0; c < width; ++c) {
            const std::size_t end = (c + 1) * n / width;
            cells.push_back(values[end == 0 ? 0 : end - 1]);
        }
    }
    const auto [lo_it, hi_it] =
        std::minmax_element(cells.begin(), cells.end());
    const double lo = *lo_it, hi = *hi_it;
    std::string out;
    for (double v : cells) {
        int level = 3;  // flat line renders mid-height
        if (hi > lo) {
            level = static_cast<int>((v - lo) / (hi - lo) * 7.0 + 0.5);
            level = std::min(7, std::max(0, level));
        }
        out += glyphs[level];
    }
    return out;
}

std::string
renderTop(const TopSnapshot& snapshot)
{
    char line[256];
    std::string out;
    out += "gest top — " + snapshot.source +
           (snapshot.live ? " (live)" : " (files)");
    if (!snapshot.gitSha.empty() && snapshot.gitSha != "unknown")
        out += "   git " + snapshot.gitSha.substr(0, 12);
    out += "\n";
    if (!snapshot.build.empty())
        out += "build " + snapshot.build + "\n";
    if (!snapshot.error.empty()) {
        out += "error: " + snapshot.error + "\n";
        return out;
    }
    if (startsWith(snapshot.state, "waiting")) {
        out += "state " + snapshot.state +
               " — no history.csv yet; the dashboard fills in once "
               "the first generation is evaluated\n";
        return out;
    }

    std::snprintf(line, sizeof(line),
                  "state %-10s gen %d/%d   elapsed %.1fs   eta %.1fs\n",
                  snapshot.state.c_str(), snapshot.generation,
                  snapshot.totalGenerations, snapshot.elapsedSeconds,
                  snapshot.etaSeconds);
    out += line;
    std::snprintf(line, sizeof(line),
                  "best %.6f   avg %.6f   diversity %.3f\n",
                  snapshot.bestFitness, snapshot.averageFitness,
                  snapshot.diversity);
    out += line;
    // Analytics-derived measures: "n/a" — not a fake 0 — when the run
    // records no analytics (negative sentinel).
    if (snapshot.geneEntropyBits >= 0.0)
        std::snprintf(line, sizeof(line), "entropy %.2f bits   ",
                      snapshot.geneEntropyBits);
    else
        std::snprintf(line, sizeof(line), "entropy n/a   ");
    out += line;
    if (snapshot.pairwiseDiversity >= 0.0)
        std::snprintf(line, sizeof(line), "pairwise diversity %.3f\n",
                      snapshot.pairwiseDiversity);
    else
        std::snprintf(line, sizeof(line), "pairwise diversity n/a\n");
    out += line;
    if (!snapshot.bestTrajectory.empty()) {
        out += "fitness " + sparkline(snapshot.bestTrajectory, 60) +
               "\n";
    }
    std::snprintf(line, sizeof(line),
                  "evals %llu (%.1f/s)   cache hits %.1f%%",
                  static_cast<unsigned long long>(snapshot.evaluations),
                  snapshot.evalsPerSec, 100.0 * snapshot.cacheHitRate);
    out += line;
    if (snapshot.simEvaluations > 0) {
        std::snprintf(
            line, sizeof(line), "   steady hits %.1f%%",
            100.0 * static_cast<double>(snapshot.steadyHits) /
                static_cast<double>(snapshot.simEvaluations));
        out += line;
    }
    const std::uint64_t cycles =
        snapshot.cyclesSimulated + snapshot.cyclesTiled;
    if (cycles > 0) {
        std::snprintf(line, sizeof(line), "   tiled cycles %.1f%%",
                      100.0 * static_cast<double>(snapshot.cyclesTiled) /
                          static_cast<double>(cycles));
        out += line;
    }
    out += "\n";

    if (snapshot.hasCoverage) {
        std::snprintf(
            line, sizeof(line),
            "coverage %llu/%llu cells (%.1f%%)   new this gen %llu   "
            "novelty %.2f\n",
            static_cast<unsigned long long>(snapshot.coverageCellsSeen),
            static_cast<unsigned long long>(
                snapshot.coverageCellsTotal),
            snapshot.coverageSaturationPct,
            static_cast<unsigned long long>(snapshot.coverageNewCells),
            snapshot.coverageNoveltyRate);
        out += line;
    }

    const double phase_total = snapshot.selectionMs +
                               snapshot.crossoverMs +
                               snapshot.mutationMs +
                               snapshot.evaluationMs;
    if (phase_total > 0.0) {
        std::snprintf(line, sizeof(line),
                      "phases selection %.1f ms | crossover %.1f ms | "
                      "mutation %.1f ms | evaluation %.1f ms\n",
                      snapshot.selectionMs, snapshot.crossoverMs,
                      snapshot.mutationMs, snapshot.evaluationMs);
        out += line;
    }
    if (!snapshot.workerBusyFrac.empty()) {
        out += "workers";
        for (std::size_t w = 0; w < snapshot.workerBusyFrac.size();
             ++w) {
            std::snprintf(line, sizeof(line), " #%zu %.0f%%", w,
                          100.0 * snapshot.workerBusyFrac[w]);
            out += line;
        }
        out += "\n";
    }

    // Alerts pane: hidden for unwatched runs; a watched clean run says
    // so explicitly ("none" is information, absence is not).
    if (snapshot.alertsRaised == 0) {
        out += "alerts none\n";
    } else if (snapshot.alertsRaised > 0) {
        std::snprintf(
            line, sizeof(line), "alerts %lld (last: %s @ gen %d)\n",
            static_cast<long long>(snapshot.alertsRaised),
            snapshot.lastAlertRule.empty()
                ? "?"
                : snapshot.lastAlertRule.c_str(),
            snapshot.lastAlertGeneration);
        out += line;
        for (const std::string& alert : snapshot.alertLines)
            out += "  " + alert + "\n";
    }
    return out;
}

} // namespace output
} // namespace gest
