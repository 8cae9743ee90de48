#include "output/report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "isa/instr_class.hh"
#include "output/ledger.hh"
#include "util/fileutil.hh"
#include "util/jsonlite.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace output {

double
RunHistory::cacheHitRate() const
{
    const double total =
        static_cast<double>(totalMeasured + totalCacheHits);
    return total == 0.0 ? 0.0
                        : static_cast<double>(totalCacheHits) / total;
}

double
RunHistory::evaluationsPerSecond() const
{
    if (!hasTimings || evaluationMs <= 0.0)
        return 0.0;
    return static_cast<double>(totalMeasured) / (evaluationMs / 1000.0);
}

double
RunReport::steadyHitRate() const
{
    return simEvaluations == 0
               ? 0.0
               : static_cast<double>(steadyHits) /
                     static_cast<double>(simEvaluations);
}

double
RunReport::tiledCycleFraction() const
{
    const double total =
        static_cast<double>(cyclesSimulated + cyclesTiled);
    return total == 0.0 ? 0.0
                        : static_cast<double>(cyclesTiled) / total;
}

HistoryFound
loadHistory(const std::string& run_dir, RunHistory& out)
{
    out = RunHistory();
    const std::string path = run_dir + "/" + ledger::history.file;
    std::string text;
    if (!tryReadFile(path, text))
        return HistoryFound::NoFile;

    const ledger::Decoder decoder = ledger::decode(
        ledger::history, path, text, [&](const ledger::Decoder& in) {
            HistoryRow row;
            row.generation = static_cast<int>(in.number("generation"));
            row.bestFitness = in.number("best_fitness");
            row.averageFitness = in.number("average_fitness");
            row.diversity = in.number("diversity");
            row.cacheHits =
                static_cast<std::uint64_t>(in.number("cache_hits"));
            row.cacheMisses =
                static_cast<std::uint64_t>(in.number("cache_misses"));
            row.selectionMs = in.number("selection_ms");
            row.crossoverMs = in.number("crossover_ms");
            row.mutationMs = in.number("mutation_ms");
            row.evaluationMs = in.number("evaluation_ms");
            row.ioMs = in.number("io_ms");
            out.rows.push_back(row);
        });
    if (!decoder.hasHeader())
        return HistoryFound::NoHeader;
    out.historyVersion = decoder.version();
    out.hasTimings = decoder.has("evaluation_ms");
    if (out.rows.empty())
        return HistoryFound::NoRows;

    out.firstBest = out.rows.front().bestFitness;
    out.finalAverage = out.rows.back().averageFitness;
    out.finalDiversity = out.rows.back().diversity;
    for (const HistoryRow& row : out.rows) {
        if (row.bestFitness > out.bestFitness ||
            &row == &out.rows.front()) {
            out.bestFitness = row.bestFitness;
            out.bestGeneration = row.generation;
        }
        out.totalMeasured += row.cacheMisses;
        out.totalCacheHits += row.cacheHits;
        out.selectionMs += row.selectionMs;
        out.crossoverMs += row.crossoverMs;
        out.mutationMs += row.mutationMs;
        out.evaluationMs += row.evaluationMs;
        out.ioMs += row.ioMs;
    }
    return HistoryFound::Rows;
}

RunHistory
analyzeHistory(const std::string& run_dir)
{
    if (!dirExists(run_dir))
        fatal("run directory '", run_dir, "' does not exist");
    const std::string path = run_dir + "/" + ledger::history.file;
    RunHistory history;
    switch (loadHistory(run_dir, history)) {
      case HistoryFound::NoFile:
        fatal("no history.csv in '", run_dir,
              "' — is this a gest run directory? Pass the directory "
              "named by <output directory=\"...\"> (runs without an "
              "<output> element record no history)");
      case HistoryFound::NoHeader:
        fatal("'", path, "' is empty — the run has not written its "
              "header yet (or the file was clobbered); rerun or wait "
              "for the first generation to complete");
      case HistoryFound::NoRows:
        fatal("'", path, "' contains no generation rows yet — the run "
              "has not completed generation 0; retry once it has");
      case HistoryFound::Rows:
        break;
    }
    return history;
}

RunReport
analyzeRun(const std::string& run_dir)
{
    RunReport report;
    static_cast<RunHistory&>(report) = analyzeHistory(run_dir);
    report.runDir = run_dir;

    std::vector<analysis::AnalyticsRow> analytics;
    if (analysis::tryLoadAnalytics(run_dir, analytics) &&
        !analytics.empty()) {
        report.hasAnalytics = true;
        report.finalGeneEntropyBits = analytics.back().geneEntropyBits;
        report.finalPairwiseDiversity =
            analytics.back().pairwiseDiversity;
        for (const analysis::AnalyticsRow& row : analytics) {
            report.crossoverChildren += row.crossoverChildren;
            report.crossoverImproved += row.crossoverImproved;
            report.mutationChildren += row.mutationChildren;
            report.mutationImproved += row.mutationImproved;
            report.eliteCopies += row.eliteCopies;
        }
    }

    std::string metrics_text;
    json::Value metrics;
    const json::Value* counters = nullptr;
    if (tryReadFile(run_dir + "/metrics.json", metrics_text) &&
        json::parse(metrics_text, metrics, nullptr))
        counters = metrics.find("counters");
    // All three eval.* counters are registered together, so any one
    // present means the run used a fast-path-aware build.
    if (counters && counters->find("eval.steady_hits") &&
        counters->find("eval.cycles_simulated") &&
        counters->find("eval.cycles_tiled")) {
        const auto counter = [&](const char* name) {
            return static_cast<std::uint64_t>(
                counters->numberOr(name, 0.0));
        };
        report.hasSteadyStats = true;
        report.steadyHits = counter("eval.steady_hits");
        report.cyclesSimulated = counter("eval.cycles_simulated");
        report.cyclesSkipped = counter("eval.cycles_skipped");
        report.cyclesTiled = counter("eval.cycles_tiled");
        report.simEvaluations = counter("measure.sim.evaluations");
    }
    return report;
}

std::string
formatReport(const RunReport& report)
{
    std::ostringstream os;
    char buf[256];

    os << "run: " << report.runDir << " (history v"
       << report.historyVersion << ", " << report.rows.size()
       << " generations)\n";

    std::snprintf(buf, sizeof(buf),
                  "fitness: first-gen best %.6f -> best %.6f at "
                  "generation %d",
                  report.firstBest, report.bestFitness,
                  report.bestGeneration);
    os << buf;
    if (report.firstBest > 0.0) {
        std::snprintf(buf, sizeof(buf), " (%+.1f%%)",
                      100.0 * (report.bestFitness - report.firstBest) /
                          report.firstBest);
        os << buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "\n         final average %.6f, final diversity %.3f\n",
                  report.finalAverage, report.finalDiversity);
    os << buf;

    std::snprintf(buf, sizeof(buf),
                  "evaluations: %llu measured, %llu cache hits "
                  "(%.1f%% hit rate)\n",
                  static_cast<unsigned long long>(report.totalMeasured),
                  static_cast<unsigned long long>(report.totalCacheHits),
                  100.0 * report.cacheHitRate());
    os << buf;

    if (report.hasSteadyStats) {
        std::snprintf(
            buf, sizeof(buf),
            "steady state: %llu of %llu simulated measurements hit "
            "(%.1f%%)\n",
            static_cast<unsigned long long>(report.steadyHits),
            static_cast<unsigned long long>(report.simEvaluations),
            100.0 * report.steadyHitRate());
        os << buf;
        std::snprintf(
            buf, sizeof(buf),
            "              %llu cycles simulated (%llu skipped idle), "
            "%llu tiled (%.1f%% of measured cycles tiled)\n",
            static_cast<unsigned long long>(report.cyclesSimulated),
            static_cast<unsigned long long>(report.cyclesSkipped),
            static_cast<unsigned long long>(report.cyclesTiled),
            100.0 * report.tiledCycleFraction());
        os << buf;
    }

    if (report.hasAnalytics) {
        std::snprintf(buf, sizeof(buf),
                      "evolution analytics: final gene entropy %.3f "
                      "bits, pairwise diversity %.3f\n",
                      report.finalGeneEntropyBits,
                      report.finalPairwiseDiversity);
        os << buf;
        auto efficacy = [&](const char* name, std::uint64_t children,
                            std::uint64_t improved) {
            std::snprintf(
                buf, sizeof(buf),
                "  %-10s %6llu children, %6llu improved on both "
                "parents (%5.1f%%)\n",
                name, static_cast<unsigned long long>(children),
                static_cast<unsigned long long>(improved),
                children == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(improved) /
                          static_cast<double>(children));
            os << buf;
        };
        efficacy("crossover", report.crossoverChildren,
                 report.crossoverImproved);
        efficacy("mutation", report.mutationChildren,
                 report.mutationImproved);
        std::snprintf(buf, sizeof(buf), "  %-10s %6llu carried\n",
                      "elite",
                      static_cast<unsigned long long>(
                          report.eliteCopies));
        os << buf;
    }

    if (!report.hasTimings) {
        os << "phase breakdown: n/a — this history.csv predates the "
              "timing columns (v2); rerun with a current build to "
              "record them\n";
        return os.str();
    }

    const double eps = report.evaluationsPerSecond();
    if (eps > 0.0) {
        std::snprintf(buf, sizeof(buf),
                      "throughput: %.0f evaluations/sec (over %.2f s "
                      "of evaluation time)\n",
                      eps, report.evaluationMs / 1000.0);
        os << buf;
    } else {
        os << "throughput: n/a — no timed evaluation recorded (run "
              "with stats enabled)\n";
    }

    const double total = report.selectionMs + report.crossoverMs +
                         report.mutationMs + report.evaluationMs +
                         report.ioMs;
    os << "phase breakdown (totals across the run):\n";
    auto phase = [&](const char* name, double ms) {
        std::snprintf(buf, sizeof(buf), "  %-12s %10.1f ms  (%5.1f%%)\n",
                      name, ms, total > 0.0 ? 100.0 * ms / total : 0.0);
        os << buf;
    };
    phase("selection", report.selectionMs);
    phase("crossover", report.crossoverMs);
    phase("mutation", report.mutationMs);
    phase("evaluation", report.evaluationMs);
    phase("output I/O", report.ioMs);
    return os.str();
}

namespace {

/** A double as a JSON number (always finite here). */
std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonNumber(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

std::string
formatReportJson(const RunReport& report)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"run_dir\": \"" << jsonEscape(report.runDir) << "\",\n"
       << "  \"history_version\": " << report.historyVersion << ",\n"
       << "  \"generations\": " << report.rows.size() << ",\n"
       << "  \"first_best\": " << jsonNumber(report.firstBest) << ",\n"
       << "  \"best_fitness\": " << jsonNumber(report.bestFitness)
       << ",\n"
       << "  \"best_generation\": " << report.bestGeneration << ",\n"
       << "  \"final_average\": " << jsonNumber(report.finalAverage)
       << ",\n"
       << "  \"final_diversity\": " << jsonNumber(report.finalDiversity)
       << ",\n"
       << "  \"total_measured\": " << jsonNumber(report.totalMeasured)
       << ",\n"
       << "  \"total_cache_hits\": "
       << jsonNumber(report.totalCacheHits) << ",\n"
       << "  \"cache_hit_rate\": " << jsonNumber(report.cacheHitRate())
       << ",\n"
       << "  \"has_timings\": "
       << (report.hasTimings ? "true" : "false") << ",\n"
       << "  \"evaluations_per_second\": "
       << jsonNumber(report.evaluationsPerSecond()) << ",\n";
    os << "  \"phase_ms\": {"
       << "\"selection\": " << jsonNumber(report.selectionMs) << ", "
       << "\"crossover\": " << jsonNumber(report.crossoverMs) << ", "
       << "\"mutation\": " << jsonNumber(report.mutationMs) << ", "
       << "\"evaluation\": " << jsonNumber(report.evaluationMs) << ", "
       << "\"io\": " << jsonNumber(report.ioMs) << "},\n";
    if (report.hasSteadyStats) {
        os << "  \"steady_state\": {"
           << "\"hits\": " << jsonNumber(report.steadyHits) << ", "
           << "\"evaluations\": " << jsonNumber(report.simEvaluations)
           << ", "
           << "\"hit_rate\": " << jsonNumber(report.steadyHitRate())
           << ", "
           << "\"cycles_simulated\": "
           << jsonNumber(report.cyclesSimulated) << ", "
           << "\"cycles_skipped\": " << jsonNumber(report.cyclesSkipped)
           << ", "
           << "\"cycles_tiled\": " << jsonNumber(report.cyclesTiled)
           << ", "
           << "\"tiled_cycle_fraction\": "
           << jsonNumber(report.tiledCycleFraction()) << "},\n";
    } else {
        os << "  \"steady_state\": null,\n";
    }
    if (report.hasAnalytics) {
        os << "  \"analytics\": {\n"
           << "    \"final_gene_entropy_bits\": "
           << jsonNumber(report.finalGeneEntropyBits) << ",\n"
           << "    \"final_pairwise_diversity\": "
           << jsonNumber(report.finalPairwiseDiversity) << ",\n"
           << "    \"crossover_children\": "
           << jsonNumber(report.crossoverChildren) << ",\n"
           << "    \"crossover_improved\": "
           << jsonNumber(report.crossoverImproved) << ",\n"
           << "    \"mutation_children\": "
           << jsonNumber(report.mutationChildren) << ",\n"
           << "    \"mutation_improved\": "
           << jsonNumber(report.mutationImproved) << ",\n"
           << "    \"elite_copies\": " << jsonNumber(report.eliteCopies)
           << "\n  }\n";
    } else {
        os << "  \"analytics\": null\n";
    }
    os << "}\n";
    return os.str();
}

namespace {

/**
 * Convergence-pathology screening over the analytics trajectory. Each
 * detector appends one actionable message; the window sizes are modest
 * so short runs are judged on what they have.
 */
void
detectPathologies(const std::vector<analysis::AnalyticsRow>& rows,
                  std::vector<std::string>& out)
{
    if (rows.empty())
        return;
    char buf[512];

    // Diversity collapse: the population has become (nearly) clones,
    // so crossover can no longer recombine anything new.
    const double finalDiversity = rows.back().pairwiseDiversity;
    if (rows.size() >= 2 && finalDiversity < 0.05) {
        std::snprintf(
            buf, sizeof(buf),
            "diversity collapse: final pairwise diversity %.3f "
            "(below 0.05) — the population is near-clonal and "
            "crossover is recombining copies; raise mutation_rate "
            "or population_size, or lower tournament_size to ease "
            "selection pressure",
            finalDiversity);
        out.push_back(buf);
    }

    // Operator starvation: an operator keeps producing children but
    // none has beaten its parents for a meaningful stretch.
    const std::size_t window = std::min<std::size_t>(10, rows.size());
    std::uint64_t xChildren = 0, xImproved = 0;
    std::uint64_t mChildren = 0, mImproved = 0;
    for (std::size_t i = rows.size() - window; i < rows.size(); ++i) {
        xChildren += rows[i].crossoverChildren;
        xImproved += rows[i].crossoverImproved;
        mChildren += rows[i].mutationChildren;
        mImproved += rows[i].mutationImproved;
    }
    if (xChildren > 0 && xImproved == 0) {
        std::snprintf(
            buf, sizeof(buf),
            "crossover starvation: %llu crossover children over the "
            "last %zu generations and none improved on both parents; "
            "the building blocks may be exhausted — consider the "
            "uniform crossover_operator or a larger population_size",
            static_cast<unsigned long long>(xChildren), window);
        out.push_back(buf);
    }
    if (mChildren > 0 && mImproved == 0) {
        std::snprintf(
            buf, sizeof(buf),
            "mutation starvation: %llu mutated children over the last "
            "%zu generations and none improved on both parents; the "
            "search may have peaked — consider lowering mutation_rate "
            "for finer steps or stopping via stagnation_limit",
            static_cast<unsigned long long>(mChildren), window);
        out.push_back(buf);
    }

    // Elite stagnation: the best fitness has been flat for the whole
    // recent window (only meaningful when the run is longer than it).
    if (rows.size() > window) {
        const double last = rows.back().fitnessMax;
        bool flat = true;
        for (std::size_t i = rows.size() - window; i < rows.size(); ++i)
            if (rows[i].fitnessMax < last)
                flat = false;
        if (flat && window >= 2) {
            std::snprintf(
                buf, sizeof(buf),
                "elite stagnation: best fitness %.6f has not improved "
                "over the last %zu generations; set stagnation_limit "
                "to stop such runs early, or restart with a different "
                "seed",
                last, window);
            out.push_back(buf);
        }
    }
}

} // namespace

ExplainReport
analyzeExplain(const std::string& run_dir)
{
    if (!dirExists(run_dir))
        fatal("run directory '", run_dir, "' does not exist");

    ExplainReport report;
    report.runDir = run_dir;
    report.events = analysis::loadLineage(run_dir);
    report.ancestry = analysis::championAncestry(report.events);
    analysis::tryLoadAnalytics(run_dir, report.analytics);
    detectPathologies(report.analytics, report.pathologies);
    return report;
}

std::string
formatExplain(const ExplainReport& report)
{
    std::ostringstream os;
    char buf[256];

    int maxGeneration = 0;
    for (const analysis::LineageEvent& e : report.events)
        maxGeneration = std::max(maxGeneration, e.generation);
    os << "run: " << report.runDir << " (lineage v"
       << ledger::lineage.version << ", " << report.events.size()
       << " birth events, " << maxGeneration + 1 << " generations)\n";

    const analysis::Ancestry& anc = report.ancestry;
    const analysis::LineageEvent& champion =
        report.events[anc.chain.front()];
    std::snprintf(buf, sizeof(buf),
                  "champion: id %llu, fitness %.6f, born generation "
                  "%d by %s",
                  static_cast<unsigned long long>(champion.id),
                  champion.fitness, champion.generation,
                  analysis::toString(champion.op));
    os << buf;
    if (!champion.mutatedGenes.empty()) {
        os << " (mutated genes";
        for (std::uint32_t g : champion.mutatedGenes)
            os << ' ' << g;
        os << ')';
    }
    os << '\n';

    os << "ancestry: " << anc.ancestorCount << " distinct ancestors";
    if (anc.reachesGeneration0) {
        os << ", every line reaches generation 0\n";
    } else if (!anc.unknownParents.empty()) {
        os << "; " << anc.unknownParents.size()
           << " parent id(s) predate this ledger (resumed run) — "
              "ancestry stops at the checkpoint\n";
    } else {
        os << "; some lines stop at resumed individuals born after "
              "generation 0 (resumed run)\n";
    }
    os << "  by operator:";
    static const char* opNames[analysis::numBirthOps] = {
        "seed", "resumed", "crossover", "mutation", "elite copy"};
    for (int i = 0; i < analysis::numBirthOps; ++i)
        os << ' ' << anc.opCounts[static_cast<std::size_t>(i)] << ' '
           << opNames[i] << (i + 1 < analysis::numBirthOps ? "," : "");
    os << '\n';

    os << "primary descent line (champion first, following the fitter "
          "parent):\n";
    for (std::size_t idx : anc.chain) {
        const analysis::LineageEvent& e = report.events[idx];
        std::snprintf(buf, sizeof(buf),
                      "  gen %4d  id %6llu  %-10s fitness %.6f",
                      e.generation,
                      static_cast<unsigned long long>(e.id),
                      analysis::toString(e.op), e.fitness);
        os << buf;
        if (e.parent1 != 0 || e.parent2 != 0) {
            os << "  parents "
               << static_cast<unsigned long long>(e.parent1) << ","
               << static_cast<unsigned long long>(e.parent2);
        }
        if (!e.mutatedGenes.empty()) {
            os << "  mutated";
            for (std::uint32_t g : e.mutatedGenes)
                os << ' ' << g;
        }
        os << '\n';
    }

    if (!report.analytics.empty()) {
        os << "instruction-mix trajectory (population share):\n";
        os << "  gen ";
        for (int c = 0; c < isa::numInstrClasses; ++c) {
            std::snprintf(buf, sizeof(buf), " %10s",
                          isa::toString(static_cast<isa::InstrClass>(c)));
            os << buf;
        }
        os << '\n';
        // Sample ~10 evenly spaced generations, always including the
        // first and the last.
        const std::size_t n = report.analytics.size();
        const std::size_t stride = std::max<std::size_t>(1, n / 10);
        for (std::size_t i = 0; i < n;
             i = (i + stride < n || i == n - 1) ? i + stride : n - 1) {
            const analysis::AnalyticsRow& row = report.analytics[i];
            std::uint64_t total = 0;
            for (std::uint64_t c : row.classMix)
                total += c;
            std::snprintf(buf, sizeof(buf), "  %4d ", row.generation);
            os << buf;
            for (std::uint64_t c : row.classMix) {
                std::snprintf(buf, sizeof(buf), " %9.1f%%",
                              total == 0
                                  ? 0.0
                                  : 100.0 * static_cast<double>(c) /
                                        static_cast<double>(total));
                os << buf;
            }
            os << '\n';
        }
    } else {
        os << "instruction-mix trajectory: n/a — no analytics.csv in "
              "this run directory (recorded by default; was the run "
              "configured with <output analytics=\"false\"/>?)\n";
    }

    if (report.pathologies.empty()) {
        os << "convergence pathologies: none detected\n";
    } else {
        os << "convergence pathologies:\n";
        for (const std::string& p : report.pathologies)
            os << "  - " << p << '\n';
    }
    return os.str();
}

} // namespace output
} // namespace gest
