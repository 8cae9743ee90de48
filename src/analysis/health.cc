#include "analysis/health.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "stats/stats.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace analysis {

namespace {

/** Median of @p values (copied; the caller keeps insertion order). */
double
medianOf(const std::vector<double>& values)
{
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2]
                      : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

/** %.6g without trailing noise, comma-free for CSV messages. */
std::string
compactDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace

HealthWatchdog::HealthWatchdog(HealthRules rules) : _rules(rules) {}

void
HealthWatchdog::setCsvPath(std::string path)
{
    _csv.emplace(ledger::alerts, std::move(path));
    _csv->open();
}

void
HealthWatchdog::noteCoverage(int generation, std::uint64_t new_cells)
{
    _coverageTickGeneration = generation;
    _coverageNewCells = new_cells;
}

void
HealthWatchdog::raise(int generation, const char* rule,
                      const char* severity, double value,
                      double threshold, std::string message)
{
    Alert alert;
    alert.generation = generation;
    alert.rule = rule;
    alert.severity = severity;
    alert.value = value;
    alert.threshold = threshold;
    alert.message = std::move(message);

    warn("health: ", alert.rule, " at generation ", generation, ": ",
         alert.message);
    stats::StatsRegistry::instance()
        .counter("health.alerts", "alerts raised by the GA watchdog")
        .inc();

    if (_csv) {
        char prefix[128];
        std::snprintf(prefix, sizeof(prefix), "%d,%s,%s,%.9g,%.9g,",
                      generation, rule, severity, value, threshold);
        _csv->append(prefix + alert.message + "\n");
    }
    _alerts.push_back(alert);
}

std::vector<Alert>
HealthWatchdog::onGenerationEvaluated(const core::GenerationRecord& rec,
                                      std::uint64_t total_measured,
                                      std::uint64_t total_cache_hits)
{
    const std::size_t alerts_before = _alerts.size();
    ++_generationsSeen;

    // non_finite_fitness — always armed, always critical: a NaN best
    // poisons selection silently, so it outranks every other rule.
    if (!_nonFiniteFired && (!std::isfinite(rec.bestFitness) ||
                             !std::isfinite(rec.averageFitness))) {
        _nonFiniteFired = true;
        raise(rec.generation, "non_finite_fitness", "critical",
              rec.bestFitness, 0.0,
              std::isfinite(rec.bestFitness)
                  ? "average fitness is not finite"
                  : "best fitness is not finite");
    }

    // fitness_plateau: count consecutive generations without a strict
    // best-fitness improvement.
    if (!_haveBest || rec.bestFitness > _bestSeen) {
        _haveBest = true;
        _bestSeen = rec.bestFitness;
        _generationsSinceImprovement = 0;
    } else {
        ++_generationsSinceImprovement;
    }
    if (!_plateauFired && _rules.plateauGenerations > 0 &&
        _generationsSinceImprovement >= _rules.plateauGenerations) {
        _plateauFired = true;
        raise(rec.generation, "fitness_plateau", "warning",
              _generationsSinceImprovement, _rules.plateauGenerations,
              "no best-fitness improvement for " +
                  std::to_string(_generationsSinceImprovement) +
                  " generations (best " + compactDouble(_bestSeen) +
                  ")");
    }

    // throughput_collapse: this generation's measured evals/sec vs the
    // run median so far. Only timed generations with real measurements
    // contribute (cache-only generations would read as zero work, not
    // slow work).
    if (_rules.throughputCollapseFactor > 0.0 &&
        rec.evaluationMs > 0.0 && rec.cacheMisses > 0) {
        const double rate = static_cast<double>(rec.cacheMisses) /
                            (rec.evaluationMs / 1e3);
        if (!_throughputFired &&
            static_cast<int>(_evalRates.size()) >=
                _rules.throughputMinGenerations) {
            const double median = medianOf(_evalRates);
            if (median > 0.0 &&
                rate < median / _rules.throughputCollapseFactor) {
                _throughputFired = true;
                raise(rec.generation, "throughput_collapse", "warning",
                      rate, median / _rules.throughputCollapseFactor,
                      "evals/sec " + compactDouble(rate) +
                          " collapsed below run median " +
                          compactDouble(median) + " / " +
                          compactDouble(_rules.throughputCollapseFactor));
            }
        }
        _evalRates.push_back(rate);
    }

    // cache_hit_floor: cumulative hit rate after warmup.
    if (!_cacheFired && _rules.cacheHitRateFloor > 0.0 &&
        _generationsSeen > _rules.cacheWarmupGenerations &&
        total_cache_hits + total_measured > 0) {
        const double rate =
            static_cast<double>(total_cache_hits) /
            static_cast<double>(total_cache_hits + total_measured);
        if (rate < _rules.cacheHitRateFloor) {
            _cacheFired = true;
            raise(rec.generation, "cache_hit_floor", "warning", rate,
                  _rules.cacheHitRateFloor,
                  "cumulative cache hit rate " + compactDouble(rate) +
                      " below floor " +
                      compactDouble(_rules.cacheHitRateFloor));
        }
    }

    // coverage_stall: consecutive generations whose coverage tick
    // reported zero new cells. Generations without a tick (ledger off)
    // never arm the rule.
    if (_rules.coverageStallGenerations > 0 &&
        _coverageTickGeneration == rec.generation) {
        _coverageStallStreak =
            _coverageNewCells == 0 ? _coverageStallStreak + 1 : 0;
        if (!_coverageFired &&
            _coverageStallStreak >= _rules.coverageStallGenerations) {
            _coverageFired = true;
            raise(rec.generation, "coverage_stall", "warning",
                  _coverageStallStreak, _rules.coverageStallGenerations,
                  "no new coverage cells for " +
                      std::to_string(_coverageStallStreak) +
                      " generations");
        }
    }

    // worker_starvation: per-generation busy-time deltas of the
    // engine.worker.N.busy_us counters. Reading the counter list here
    // is once per generation on the coordinator thread — never the
    // evaluation hot path — and uses lookup only, so watching a run
    // cannot grow its stats.
    if (_rules.workerStarvationShare > 0.0) {
        std::vector<std::uint64_t> totals;
        for (const stats::Counter* counter :
             stats::StatsRegistry::instance().counterList()) {
            const std::string& name = counter->name();
            if (!startsWith(name, "engine.worker.") ||
                !endsWith(name, ".busy_us"))
                continue;
            const std::size_t index = static_cast<std::size_t>(
                std::strtoul(name.c_str() + 14, nullptr, 10));
            if (totals.size() <= index)
                totals.resize(index + 1, 0);
            totals[index] = counter->value();
        }
        if (totals.size() >= 2 &&
            _workerBusyTotals.size() == totals.size()) {
            std::uint64_t min_delta = UINT64_MAX, max_delta = 0;
            std::size_t min_worker = 0;
            for (std::size_t w = 0; w < totals.size(); ++w) {
                const std::uint64_t delta =
                    totals[w] - _workerBusyTotals[w];
                if (delta < min_delta) {
                    min_delta = delta;
                    min_worker = w;
                }
                max_delta = std::max(max_delta, delta);
            }
            const bool starved =
                max_delta > 0 &&
                static_cast<double>(min_delta) <
                    _rules.workerStarvationShare *
                        static_cast<double>(max_delta);
            _starvationStreak = starved ? _starvationStreak + 1 : 0;
            if (!_starvationFired &&
                _starvationStreak >= _rules.workerStarvationGenerations) {
                _starvationFired = true;
                const double share =
                    static_cast<double>(min_delta) /
                    static_cast<double>(max_delta);
                raise(rec.generation, "worker_starvation", "warning",
                      share, _rules.workerStarvationShare,
                      "worker " + std::to_string(min_worker) +
                          " did " + compactDouble(100.0 * share) +
                          "% of the busiest worker's work for " +
                          std::to_string(_starvationStreak) +
                          " generations");
            }
        }
        _workerBusyTotals = std::move(totals);
    }
    return {_alerts.begin() + static_cast<std::ptrdiff_t>(alerts_before),
            _alerts.end()};
}

HealthSummary
HealthWatchdog::summary() const
{
    HealthSummary out;
    out.alerts = _alerts.size();
    if (!_alerts.empty()) {
        out.lastGeneration = _alerts.back().generation;
        out.lastRule = _alerts.back().rule;
    }
    return out;
}

bool
loadAlerts(const std::string& run_dir, std::vector<Alert>& out)
{
    out.clear();
    std::string text;
    const std::string path = run_dir + "/" + ledger::alerts.file;
    if (!tryReadFile(path, text))
        return false;

    // The message is the last column and comma-free by construction,
    // so the reader's plain split is exact.
    ledger::decode(ledger::alerts, path, text,
                   [&](const ledger::Decoder& row) {
        Alert alert;
        alert.generation = static_cast<int>(row.integer("generation"));
        alert.rule = row.text("rule");
        alert.severity = row.text("severity");
        alert.value = row.number("value");
        alert.threshold = row.number("threshold");
        alert.message = row.text("message");
        out.push_back(std::move(alert));
    });
    return true;
}

std::string
formatAlertJson(const Alert& alert)
{
    // A non_finite_fitness alert's value is the NaN or inf it caught:
    // jsonNumber() writes it as null.
    return "{\"generation\": " + std::to_string(alert.generation) +
           ", \"rule\": \"" + jsonEscape(alert.rule) +
           "\", \"severity\": \"" + jsonEscape(alert.severity) +
           "\", \"value\": " + jsonNumber(alert.value, 9) +
           ", \"threshold\": " + jsonNumber(alert.threshold, 9) +
           ", \"message\": \"" + jsonEscape(alert.message) + "\"}";
}

} // namespace analysis
} // namespace gest
