/**
 * @file
 * Per-generation population analytics.
 *
 * The paper's evaluation (§V-§VI) reasons about *which instruction
 * mixes* the GA converges to, not only what fitness it reaches. These
 * helpers compute, for one evaluated population: the population-wide
 * instruction-class mix histogram (Table III/IV, but across the whole
 * generation instead of the single champion), the mean per-gene
 * Shannon entropy, the mean pairwise genome distance, and fitness
 * quartiles. The recorder appends one `analytics.csv` row per
 * generation from them; `gest explain` reads the trajectory back.
 */

#ifndef GEST_ANALYSIS_ANALYTICS_HH
#define GEST_ANALYSIS_ANALYTICS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/population.hh"
#include "isa/library.hh"
#include "output/ledger.hh"

namespace gest {
namespace analysis {

/** One analytics.csv row. */
struct AnalyticsRow
{
    int generation = 0;

    /**
     * Instruction occurrences per class summed over every individual
     * in the generation, indexed by isa::InstrClass. Counts, not
     * shares, so a hand computation on a tiny population can check
     * them exactly.
     */
    std::array<std::uint64_t, isa::numInstrClasses> classMix{};

    /**
     * Mean Shannon entropy (bits) of the instruction-definition
     * distribution per gene position. 0 for a population of clones;
     * log2(populationSize) when every individual differs everywhere.
     */
    double geneEntropyBits = 0.0;

    /**
     * Mean normalized Hamming distance over all individual pairs,
     * comparing whole instruction instances (definition + operands).
     * In [0, 1]; finer-grained than Population::genotypeDiversity,
     * which only counts distinct definitions per position.
     */
    double pairwiseDiversity = 0.0;

    // Fitness five-number summary over evaluated individuals.
    double fitnessMin = 0.0;
    double fitnessQ1 = 0.0;
    double fitnessMedian = 0.0;
    double fitnessQ3 = 0.0;
    double fitnessMax = 0.0;

    // Operator efficacy, filled by the recorder from the lineage
    // ledger: offspring per operator, and how many beat both parents.
    std::uint64_t crossoverChildren = 0;
    std::uint64_t crossoverImproved = 0;
    std::uint64_t mutationChildren = 0;
    std::uint64_t mutationImproved = 0;
    std::uint64_t eliteCopies = 0;
};

/** Population-wide instruction-class occurrence counts. */
std::array<std::uint64_t, isa::numInstrClasses>
populationClassMix(const isa::InstructionLibrary& lib,
                   const core::Population& pop);

/** Mean per-gene-position Shannon entropy (bits) of defIndex. */
double geneEntropyBits(const core::Population& pop);

/** Mean normalized pairwise Hamming distance (whole instances). */
double pairwiseDiversity(const core::Population& pop);

/**
 * Compute the population-derived fields of an AnalyticsRow (operator
 * efficacy stays zero; the recorder fills it from the ledger).
 */
AnalyticsRow computeAnalytics(const isa::InstructionLibrary& lib,
                              const core::Population& pop);

/** Appends analytics.csv rows (the ledger's head on the first). */
class AnalyticsWriter
{
  public:
    explicit AnalyticsWriter(std::string path);

    void append(const AnalyticsRow& row);

    const std::string& path() const { return _csv.path(); }

  private:
    ledger::Writer _csv;
};

/**
 * Parse analytics.csv text read from @p file (the name errors cite);
 * fatal() on malformed rows.
 */
std::vector<AnalyticsRow> parseAnalytics(
    const std::string& text, const std::string& file = "analytics.csv");

/**
 * Read and parse @p run_dir/analytics.csv. @return false (leaving
 * @p out untouched) when the file does not exist — callers treat the
 * trajectory as optional; fatal() only on malformed content.
 */
bool tryLoadAnalytics(const std::string& run_dir,
                      std::vector<AnalyticsRow>& out);

} // namespace analysis
} // namespace gest

#endif // GEST_ANALYSIS_ANALYTICS_HH
