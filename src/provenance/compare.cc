#include "provenance/compare.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "config/config.hh"
#include "core/individual.hh"
#include "output/report.hh"
#include "output/stats.hh"
#include "provenance/digest.hh"
#include "provenance/manifest.hh"
#include "stats/resample.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace provenance {

namespace {

/**
 * The run's champion rendered as text, using the run's own recorded
 * library so two runs with different instruction alphabets still
 * compare. @return false (with @p why set) when the run records no
 * checkpoints or configuration to render from.
 */
bool
championLines(const std::string& run_dir, std::vector<std::string>& out,
              double& fitness, std::string& why)
{
    std::string config_text;
    if (!tryReadFile(run_dir + "/run_configuration.xml", config_text)) {
        why = "no run_configuration.xml in " + run_dir;
        return false;
    }
    try {
        config::ParseOptions no_files;
        no_files.loadReferencedFiles = false;
        const config::RunConfig cfg =
            config::parseConfig(config_text, run_dir, no_files);
        const core::Individual best =
            output::fittestInRun(cfg.library, run_dir);
        out = core::renderLines(cfg.library, best);
        fitness = best.fitness;
        return true;
    } catch (const FatalError& err) {
        why = err.what();
        return false;
    }
}

/** Deterministic history columns of one row, comparable exactly. */
bool
rowsEqual(const core::GenerationRecord& a, const core::GenerationRecord& b)
{
    return a.generation == b.generation &&
           a.bestFitness == b.bestFitness &&
           a.averageFitness == b.averageFitness &&
           a.diversity == b.diversity && a.cacheHits == b.cacheHits &&
           a.cacheMisses == b.cacheMisses;
}

PerfDelta
makeDelta(const std::string& metric, double baseline, double candidate)
{
    PerfDelta d;
    d.metric = metric;
    d.baseline = baseline;
    d.candidate = candidate;
    d.relDelta =
        baseline != 0.0 ? (candidate - baseline) / baseline : 0.0;
    return d;
}

std::string
formatPercent(double rel)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.1f%%", 100.0 * rel);
    return buf;
}

} // namespace

RunComparison
compareRuns(const std::string& baseline_dir,
            const std::string& candidate_dir)
{
    RunComparison cmp;
    cmp.baselineDir = baseline_dir;
    cmp.candidateDir = candidate_dir;

    const output::RunReport base = output::analyzeRun(baseline_dir);
    const output::RunReport cand = output::analyzeRun(candidate_dir);

    // Seeds, for context: a different seed explains every delta below.
    Manifest base_manifest, cand_manifest;
    const bool base_sealed =
        loadManifest(baseline_dir, base_manifest, nullptr);
    const bool cand_sealed =
        loadManifest(candidate_dir, cand_manifest, nullptr);
    if (base_sealed && cand_sealed) {
        if (base_manifest.hasSeed && cand_manifest.hasSeed &&
            base_manifest.seed != cand_manifest.seed)
            cmp.notes.push_back(
                "seeds differ (" + std::to_string(base_manifest.seed) +
                " vs " + std::to_string(cand_manifest.seed) +
                "): result deltas are expected");
        if (!base_manifest.configHash.empty() &&
            base_manifest.configHash != cand_manifest.configHash)
            cmp.notes.push_back(
                "configurations differ (" +
                base_manifest.configHash.substr(0, 12) + "… vs " +
                cand_manifest.configHash.substr(0, 12) +
                "…): result deltas are expected");
        if (buildFingerprintOf(base_manifest) !=
            buildFingerprintOf(cand_manifest))
            cmp.notes.push_back("builds differ (" +
                                buildFingerprintOf(base_manifest) +
                                " vs " +
                                buildFingerprintOf(cand_manifest) + ")");
    } else if (!base_sealed || !cand_sealed) {
        cmp.notes.push_back(
            std::string("no manifest.json in ") +
            (!base_sealed ? baseline_dir : candidate_dir) +
            "; comparing from history/checkpoints alone");
    }

    // Fitness trajectory and the other deterministic history columns.
    if (base.rows.size() != cand.rows.size()) {
        ++cmp.significantDeltas;
        cmp.deterministic.push_back(
            "generation counts differ: " +
            std::to_string(base.rows.size()) + " vs " +
            std::to_string(cand.rows.size()));
    }
    const std::size_t common =
        std::min(base.rows.size(), cand.rows.size());
    bool trajectory_differs = false;
    for (std::size_t i = 0; i < common; ++i) {
        const double delta = std::fabs(cand.rows[i].bestFitness -
                                       base.rows[i].bestFitness);
        cmp.maxAbsFitnessDelta = std::max(cmp.maxAbsFitnessDelta, delta);
        if (!rowsEqual(base.rows[i], cand.rows[i]) &&
            !trajectory_differs) {
            trajectory_differs = true;
            cmp.firstFitnessDivergence = base.rows[i].generation;
        }
    }
    if (trajectory_differs) {
        ++cmp.significantDeltas;
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "fitness trajectory diverges at generation %d "
                      "(max |Δbest| %.6g over %zu generations)",
                      cmp.firstFitnessDivergence,
                      cmp.maxAbsFitnessDelta, common);
        cmp.deterministic.push_back(buf);
    }

    // Champion genome diff.
    std::vector<std::string> base_lines, cand_lines;
    double base_fit = 0.0, cand_fit = 0.0;
    std::string base_why, cand_why;
    const bool have_base =
        championLines(baseline_dir, base_lines, base_fit, base_why);
    const bool have_cand =
        championLines(candidate_dir, cand_lines, cand_fit, cand_why);
    if (have_base && have_cand) {
        if (base_lines != cand_lines || base_fit != cand_fit) {
            ++cmp.significantDeltas;
            std::size_t differing = 0;
            const std::size_t n =
                std::max(base_lines.size(), cand_lines.size());
            for (std::size_t i = 0; i < n; ++i) {
                const std::string* a =
                    i < base_lines.size() ? &base_lines[i] : nullptr;
                const std::string* b =
                    i < cand_lines.size() ? &cand_lines[i] : nullptr;
                if (a && b && *a == *b)
                    continue;
                ++differing;
                if (cmp.genomeDiff.size() >= 16) {
                    if (cmp.genomeDiff.size() == 16)
                        cmp.genomeDiff.push_back("…");
                    continue;
                }
                const std::string where =
                    "gene " + std::to_string(i) + ": ";
                if (a)
                    cmp.genomeDiff.push_back("- " + where + *a);
                if (b)
                    cmp.genomeDiff.push_back("+ " + where + *b);
            }
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "champion differs: %zu of %zu genes, fitness "
                          "%.6g vs %.6g",
                          differing, n, base_fit, cand_fit);
            cmp.deterministic.push_back(buf);
        }
    } else {
        cmp.notes.push_back("champion diff skipped: " +
                            (have_base ? cand_why : base_why));
    }

    // Digest ledgers, when both runs sealed one.
    std::vector<DigestRow> base_digests, cand_digests;
    std::string digest_error;
    if (loadDigests(baseline_dir, base_digests, &digest_error) &&
        loadDigests(candidate_dir, cand_digests, &digest_error)) {
        cmp.digestsCompared = true;
        const std::size_t rows =
            std::min(base_digests.size(), cand_digests.size());
        for (std::size_t i = 0; i < rows; ++i) {
            if (base_digests[i].digest != cand_digests[i].digest) {
                cmp.firstDigestDivergence = base_digests[i].generation;
                break;
            }
        }
        if (cmp.firstDigestDivergence < 0 &&
            base_digests.size() != cand_digests.size())
            cmp.firstDigestDivergence = static_cast<int>(rows);
        if (cmp.firstDigestDivergence >= 0) {
            ++cmp.significantDeltas;
            cmp.deterministic.push_back(
                "population digests diverge at generation " +
                std::to_string(cmp.firstDigestDivergence));
        }
    } else {
        cmp.notes.push_back("digest ledgers not compared: " +
                            digest_error);
    }

    // Performance: reported separately, never a significant delta by
    // itself. Per-generation evaluation times feed the permutation
    // test; the other metrics are run-level scalars.
    std::vector<double> base_eval_ms, cand_eval_ms;
    for (const core::GenerationRecord& row : base.rows)
        base_eval_ms.push_back(row.evaluationMs);
    for (const core::GenerationRecord& row : cand.rows)
        cand_eval_ms.push_back(row.evaluationMs);
    const bool timed = base.evaluationMs > 0.0 && cand.evaluationMs > 0.0;

    cmp.perf.push_back(makeDelta("evals_per_sec",
                                 base.evaluationsPerSecond(),
                                 cand.evaluationsPerSecond()));
    {
        PerfDelta d = makeDelta("evaluation_ms_total", base.evaluationMs,
                                cand.evaluationMs);
        if (timed) {
            d.resampled = true;
            d.pValue =
                stats::permutationPValue(base_eval_ms, cand_eval_ms);
            d.flagged =
                d.pValue < 0.05 && std::fabs(d.relDelta) > 0.10;
        }
        cmp.perf.push_back(d);
    }
    cmp.perf.push_back(makeDelta("selection_ms_total", base.selectionMs,
                                 cand.selectionMs));
    cmp.perf.push_back(makeDelta("crossover_ms_total", base.crossoverMs,
                                 cand.crossoverMs));
    cmp.perf.push_back(makeDelta("mutation_ms_total", base.mutationMs,
                                 cand.mutationMs));
    cmp.perf.push_back(
        makeDelta("io_ms_total", base.ioMs, cand.ioMs));
    cmp.perf.push_back(makeDelta("cache_hit_rate", base.cacheHitRate(),
                                 cand.cacheHitRate()));
    cmp.perf.push_back(makeDelta("steady_hit_rate",
                                 base.steadyHitRate(),
                                 cand.steadyHitRate()));
    for (const PerfDelta& d : cmp.perf)
        if (d.flagged)
            ++cmp.flaggedPerf;
    if (!timed)
        cmp.notes.push_back(
            "timing columns are zero (stats off); perf deltas carry no "
            "significance test");

    return cmp;
}

std::string
formatComparison(const RunComparison& cmp)
{
    std::ostringstream os;
    os << "compare: " << cmp.baselineDir << " (baseline) vs "
       << cmp.candidateDir << "\n";
    for (const std::string& note : cmp.notes)
        os << "  note: " << note << "\n";
    for (const std::string& line : cmp.deterministic)
        os << "  delta: " << line << "\n";
    for (const std::string& line : cmp.genomeDiff)
        os << "    " << line << "\n";
    if (cmp.deterministic.empty())
        os << "  deterministic results identical (trajectory, champion"
           << (cmp.digestsCompared ? ", digests" : "") << ")\n";
    os << "  perf:\n";
    for (const PerfDelta& d : cmp.perf) {
        char buf[200];
        if (d.resampled)
            std::snprintf(buf, sizeof(buf),
                          "    %-20s %12.4g -> %12.4g  (%s, p=%.3f%s)\n",
                          d.metric.c_str(), d.baseline, d.candidate,
                          formatPercent(d.relDelta).c_str(), d.pValue,
                          d.flagged ? ", FLAGGED" : "");
        else
            std::snprintf(buf, sizeof(buf),
                          "    %-20s %12.4g -> %12.4g  (%s)\n",
                          d.metric.c_str(), d.baseline, d.candidate,
                          formatPercent(d.relDelta).c_str());
        os << buf;
    }
    os << "significant deltas: " << cmp.significantDeltas << "\n";
    os << "flagged perf regressions: " << cmp.flaggedPerf << "\n";
    return os.str();
}

std::string
formatComparisonsJson(const std::vector<RunComparison>& comparisons)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\n";
    os << "  \"gest_compare_version\": 1,\n";
    os << "  \"baseline\": \""
       << jsonEscape(comparisons.empty() ? ""
                                         : comparisons[0].baselineDir)
       << "\",\n";
    os << "  \"comparisons\": [\n";
    for (std::size_t c = 0; c < comparisons.size(); ++c) {
        const RunComparison& cmp = comparisons[c];
        os << "    {\n";
        os << "      \"candidate\": \"" << jsonEscape(cmp.candidateDir)
           << "\",\n";
        os << "      \"significant_deltas\": " << cmp.significantDeltas
           << ",\n";
        os << "      \"deterministic\": [";
        for (std::size_t i = 0; i < cmp.deterministic.size(); ++i)
            os << (i ? ", " : "") << "\""
               << jsonEscape(cmp.deterministic[i]) << "\"";
        os << "],\n";
        os << "      \"first_fitness_divergence\": "
           << cmp.firstFitnessDivergence << ",\n";
        os << "      \"max_abs_fitness_delta\": "
           << cmp.maxAbsFitnessDelta << ",\n";
        os << "      \"digests_compared\": "
           << (cmp.digestsCompared ? "true" : "false") << ",\n";
        os << "      \"first_digest_divergence\": "
           << cmp.firstDigestDivergence << ",\n";
        os << "      \"flagged_perf_regressions\": " << cmp.flaggedPerf
           << ",\n";
        os << "      \"perf\": [\n";
        for (std::size_t i = 0; i < cmp.perf.size(); ++i) {
            const PerfDelta& d = cmp.perf[i];
            os << "        {\"metric\": \"" << jsonEscape(d.metric)
               << "\", \"baseline\": " << d.baseline
               << ", \"candidate\": " << d.candidate
               << ", \"rel_delta\": " << d.relDelta
               << ", \"p_value\": " << d.pValue << ", \"resampled\": "
               << (d.resampled ? "true" : "false") << ", \"flagged\": "
               << (d.flagged ? "true" : "false") << "}"
               << (i + 1 < cmp.perf.size() ? "," : "") << "\n";
        }
        os << "      ],\n";
        os << "      \"notes\": [";
        for (std::size_t i = 0; i < cmp.notes.size(); ++i)
            os << (i ? ", " : "") << "\"" << jsonEscape(cmp.notes[i])
               << "\"";
        os << "]\n";
        os << "    }" << (c + 1 < comparisons.size() ? "," : "")
           << "\n";
    }
    os << "  ]\n";
    os << "}\n";
    return os.str();
}

} // namespace provenance
} // namespace gest
