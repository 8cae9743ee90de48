/**
 * @file
 * A generation of individuals, with serialization for checkpoints and
 * seed populations (§III.D: each population is saved and can seed a new
 * GA search).
 */

#ifndef GEST_CORE_POPULATION_HH
#define GEST_CORE_POPULATION_HH

#include <string>
#include <string_view>
#include <vector>

#include "core/individual.hh"

namespace gest {
namespace core {

/** One generation. */
struct Population
{
    int generation = 0;
    std::vector<Individual> individuals;

    /** Index of the fittest evaluated individual; -1 if none. */
    int bestIndex() const;

    /** The fittest evaluated individual; panic() if none. */
    const Individual& best() const;

    /** Mean fitness over evaluated individuals (0 if none). */
    double averageFitness() const;

    /**
     * Genotype diversity in [0, 1]: per gene position, the number of
     * distinct instruction definitions used across the population
     * relative to the population size, averaged over positions. 1/N
     * for a population of clones, approaching 1 for a fully random
     * population over a rich alphabet. Standard GA convergence
     * diagnostic; the search has converged once this collapses.
     */
    double genotypeDiversity() const;
};

/**
 * One generation's facts: the engine's history entry, a history.csv
 * row read back (output::loadHistory) and a checkpoint summarized
 * (output::summarizePopulations) are all this record.
 */
struct GenerationRecord
{
    int generation = 0;
    double bestFitness = 0.0;
    double averageFitness = 0.0;
    std::uint64_t bestId = 0;
    std::size_t bestUniqueInstructions = 0;
    std::array<int, isa::numInstrClasses> bestBreakdown{};

    /** Population genotype diversity (Population::genotypeDiversity). */
    double diversity = 0.0;

    /**
     * Evaluations satisfied without running the measurement this
     * generation: fitness-cache hits plus in-generation duplicate
     * genomes folded onto one measurement.
     */
    std::uint64_t cacheHits = 0;

    /** Measurements actually performed this generation. */
    std::uint64_t cacheMisses = 0;

    /**
     * Per-phase wall-clock milliseconds for this generation. All zero
     * unless stats recording (stats::setEnabled) or a trace writer is
     * active when the generation runs — timing the phases costs clock
     * reads the untimed hot path must not pay.
     */
    double selectionMs = 0.0;   ///< parent selection inside breed()
    double crossoverMs = 0.0;   ///< crossover inside breed()
    double mutationMs = 0.0;    ///< mutation inside breed()
    double evaluationMs = 0.0;  ///< cache resolution + measurements
};

/**
 * The record's population-derived fields of @p pop: generation, best
 * fitness and id, average fitness, the best individual's unique
 * instructions and class breakdown, and diversity. The best fields stay
 * 0 when no individual is evaluated; the counters and timings are the
 * engine's to fill.
 */
GenerationRecord summarizeGeneration(const isa::InstructionLibrary& lib,
                                     const Population& pop);

/**
 * A population rendered in the file format, with the span of its
 * individual records: the text between the `generation` line and the
 * closing `end`. The run pipeline renders each generation once; the
 * checkpoint is the whole text and the population digest hashes the
 * records.
 */
struct PopulationText
{
    std::string text;
    std::size_t recordsBegin = 0;
    std::size_t recordsEnd = 0;

    std::string_view
    records() const
    {
        return std::string_view(text).substr(recordsBegin,
                                             recordsEnd - recordsBegin);
    }
};

/**
 * Append the `individual`, `measurements` and `code` records of @p ind
 * to @p out. Doubles carry 17 significant digits, so they round-trip
 * exactly.
 */
void appendIndividualRecords(const isa::InstructionLibrary& lib,
                             const Individual& ind, std::string& out);

/**
 * Render @p pop into @p out in the framework's portable text format,
 * reusing the capacity of its buffer. Instructions are stored by name
 * plus operand-choice indices so files survive library reordering as
 * long as names are stable.
 */
void renderPopulation(const isa::InstructionLibrary& lib,
                      const Population& pop, PopulationText& out);

/** The text renderPopulation() produces, as one string. */
std::string serializePopulation(const isa::InstructionLibrary& lib,
                                const Population& pop);

/**
 * Parse a population file produced by serializePopulation(). fatal() on
 * malformed input or instruction names missing from @p lib, with a
 * message that starts `<source>:<line>: `; @p source names the text.
 */
Population deserializePopulation(const isa::InstructionLibrary& lib,
                                 const std::string& text,
                                 const std::string& source);

/** Write a population file. */
void savePopulation(const isa::InstructionLibrary& lib,
                    const Population& pop, const std::string& path);

/** Read a population file; errors name @p path and the line. */
Population loadPopulation(const isa::InstructionLibrary& lib,
                          const std::string& path);

} // namespace core
} // namespace gest

#endif // GEST_CORE_POPULATION_HH
