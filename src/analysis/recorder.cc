#include "analysis/recorder.hh"

#include "stats/stats.hh"
#include "util/fileutil.hh"

namespace gest {
namespace analysis {

namespace {

/**
 * Recorder-wide stat handles, resolved once (the engineStats()
 * pattern): the headline analytics mirrored into metrics.json,
 * subject to the global stats::enabled() flag.
 */
struct AnalysisStats
{
    stats::Counter& births;
    stats::Counter& crossoverBirths;
    stats::Counter& mutationBirths;
    stats::Counter& eliteCopies;
    stats::Counter& crossoverImproved;
    stats::Counter& mutationImproved;
    stats::Gauge& geneEntropy;
    stats::Gauge& pairwiseDiversity;
    stats::Gauge& fitnessMedian;
};

AnalysisStats&
analysisStats()
{
    static AnalysisStats s{
        stats::StatsRegistry::instance().counter(
            "analysis.births", "individuals recorded by the ledger"),
        stats::StatsRegistry::instance().counter(
            "analysis.births.crossover",
            "children born by crossover alone"),
        stats::StatsRegistry::instance().counter(
            "analysis.births.mutation",
            "children mutated after crossover"),
        stats::StatsRegistry::instance().counter(
            "analysis.births.elite_copy",
            "elite individuals carried unchanged"),
        stats::StatsRegistry::instance().counter(
            "analysis.improved.crossover",
            "crossover children that beat both parents"),
        stats::StatsRegistry::instance().counter(
            "analysis.improved.mutation",
            "mutated children that beat both parents"),
        stats::StatsRegistry::instance().gauge(
            "analysis.gene_entropy_bits",
            "mean per-gene entropy of the last generation (bits)"),
        stats::StatsRegistry::instance().gauge(
            "analysis.pairwise_diversity",
            "mean pairwise genome distance of the last generation"),
        stats::StatsRegistry::instance().gauge(
            "analysis.fitness_median",
            "median fitness of the last generation"),
    };
    return s;
}

} // namespace

Recorder::Recorder(const std::string& run_dir,
                   const isa::InstructionLibrary& lib)
    : _lib(lib), _ledger(run_dir + "/lineage.csv"),
      _analytics(run_dir + "/analytics.csv")
{
    ensureDir(run_dir);
}

void
Recorder::recordSeed(int generation, const core::Individual& ind,
                     bool resumed)
{
    LineageEvent event;
    event.generation = generation;
    event.id = ind.id;
    event.op = resumed ? BirthOp::Resumed : BirthOp::Seed;
    event.parent1 = ind.parent1;
    event.parent2 = ind.parent2;
    _ledger.recordBirth(std::move(event));
}

void
Recorder::recordChild(int generation, const core::Individual& ind,
                      const std::vector<std::uint32_t>& mutated_genes)
{
    LineageEvent event;
    event.generation = generation;
    event.id = ind.id;
    event.op = mutated_genes.empty() ? BirthOp::Crossover
                                     : BirthOp::Mutation;
    event.parent1 = ind.parent1;
    event.parent2 = ind.parent2;
    event.mutatedGenes = mutated_genes;
    _ledger.recordBirth(std::move(event));
}

void
Recorder::recordEliteCopy(int generation, const core::Individual& ind)
{
    LineageEvent event;
    event.generation = generation;
    event.id = ind.id;
    event.op = BirthOp::EliteCopy;
    // An elite copy is the same individual again, not a child; its
    // true parents are on its birth row, so the copy row points at
    // itself.
    event.parent1 = ind.id;
    event.parent2 = ind.id;
    _ledger.recordBirth(std::move(event));
}

void
Recorder::onGenerationEvaluated(const core::Population& pop,
                                const core::GenerationRecord& record)
{
    const std::vector<LineageEvent> sealed = _ledger.sealGeneration(pop);

    AnalyticsRow row = computeAnalytics(_lib, pop);
    row.generation = record.generation;
    for (const LineageEvent& event : sealed) {
        switch (event.op) {
          case BirthOp::Crossover:
          case BirthOp::Mutation: {
            const bool crossed = event.op == BirthOp::Crossover;
            double p1 = 0.0, p2 = 0.0;
            // Parents are in an earlier sealed generation; efficacy is
            // only chartable when both fitnesses are on record (a
            // resumed run's pre-ledger ancestors are not).
            if (!_ledger.fitnessOf(event.parent1, p1) ||
                !_ledger.fitnessOf(event.parent2, p2))
                break;
            (crossed ? row.crossoverChildren : row.mutationChildren)++;
            if (event.fitness > p1 && event.fitness > p2)
                (crossed ? row.crossoverImproved
                         : row.mutationImproved)++;
            break;
          }
          case BirthOp::EliteCopy:
            ++row.eliteCopies;
            break;
          case BirthOp::Seed:
          case BirthOp::Resumed:
            break;
        }
    }
    _analytics.append(row);
    _rows.push_back(row);

    AnalysisStats& s = analysisStats();
    s.births.inc(sealed.size());
    s.crossoverBirths.inc(row.crossoverChildren);
    s.mutationBirths.inc(row.mutationChildren);
    s.eliteCopies.inc(row.eliteCopies);
    s.crossoverImproved.inc(row.crossoverImproved);
    s.mutationImproved.inc(row.mutationImproved);
    s.geneEntropy.set(row.geneEntropyBits);
    s.pairwiseDiversity.set(row.pairwiseDiversity);
    s.fitnessMedian.set(row.fitnessMedian);
}

} // namespace analysis
} // namespace gest
