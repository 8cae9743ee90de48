/**
 * @file
 * The lineage ledger: an append-only record of every individual's
 * birth across a GA run.
 *
 * The engine's `Individual` carries `parent1`/`parent2`, but until this
 * subsystem nothing ever read them; the search was a black box once the
 * run ended. The ledger writes one row per birth event into
 * `lineage.csv` — generation, id, creating operator (seed, resumed
 * seed, crossover, mutation, elite copy), parent ids, mutated gene
 * indices and the fitness the individual eventually scored — so
 * `gest explain` and `tools/lineage_to_dot.py` can reconstruct the
 * champion's full ancestry back to generation 0 after the fact.
 *
 * Resumed runs: a population loaded from a checkpoint references
 * parent ids that predate this ledger. Those individuals are recorded
 * with op `resumed`, and ancestry reconstruction stops at them
 * gracefully instead of failing.
 */

#ifndef GEST_ANALYSIS_LINEAGE_HH
#define GEST_ANALYSIS_LINEAGE_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/population.hh"
#include "output/ledger.hh"

namespace gest {
namespace analysis {

/** How an individual came to exist. */
enum class BirthOp
{
    Seed,      ///< random generation-0 individual
    Resumed,   ///< loaded from a seed population / checkpoint
    Crossover, ///< bred and left unmutated
    Mutation,  ///< bred and mutated (parents are the crossover pair)
    EliteCopy, ///< the elite carried unchanged into the next generation
};

/** Number of BirthOp values (for per-operator count arrays). */
constexpr int numBirthOps = 5;

/** @return the csv spelling, e.g. "elite_copy". */
const char* toString(BirthOp op);

/** Parse a csv spelling. @return true on success. */
bool birthOpFromString(std::string_view s, BirthOp& out);

/** One birth event — one lineage.csv row. */
struct LineageEvent
{
    int generation = 0;
    std::uint64_t id = 0;
    BirthOp op = BirthOp::Seed;
    std::uint64_t parent1 = 0; ///< 0 = none
    std::uint64_t parent2 = 0; ///< 0 = none

    /** Gene indices rewritten by mutation (empty for other ops). */
    std::vector<std::uint32_t> mutatedGenes;

    /** Fitness scored when the birth generation was evaluated. */
    double fitness = 0.0;
};

/**
 * Records birth events and appends them to `lineage.csv` once their
 * generation is evaluated (fitness is only known then). Also keeps an
 * id -> fitness map so operator efficacy (children beating both
 * parents) can be computed without re-reading the file.
 */
class LineageLedger
{
  public:
    /** @param path the lineage.csv file to create and append to. */
    explicit LineageLedger(std::string path);

    /**
     * Record a birth. Fitness may be unset; sealGeneration() fills it
     * in from the evaluated population and flushes the row.
     */
    void recordBirth(LineageEvent event);

    /**
     * Fill in fitness for this generation's pending births from the
     * evaluated population, append their rows to the file, and return
     * the sealed events (recorder uses them for operator efficacy).
     */
    std::vector<LineageEvent> sealGeneration(const core::Population& pop);

    /** Fitness of a recorded individual. @return true when known. */
    bool fitnessOf(std::uint64_t id, double& out) const;

    /** Birth events recorded and sealed so far. */
    std::uint64_t sealedEvents() const { return _sealed; }

    const std::string& path() const { return _csv.path(); }

  private:
    ledger::Writer _csv;
    std::vector<LineageEvent> _pending;
    std::unordered_map<std::uint64_t, double> _fitnessById;
    std::uint64_t _sealed = 0;
};

/**
 * Parse lineage.csv text read from @p file (the name errors cite);
 * fatal() with an actionable message on malformed rows.
 */
std::vector<LineageEvent> parseLineage(
    const std::string& text, const std::string& file = "lineage.csv");

/** Read and parse @p run_dir/lineage.csv; fatal() when absent. */
std::vector<LineageEvent> loadLineage(const std::string& run_dir);

/**
 * The champion's ancestry, reconstructed from a ledger. The champion
 * is the highest-fitness birth event (earliest generation, then lowest
 * id on ties, so reconstruction is deterministic).
 */
struct Ancestry
{
    /**
     * The primary descent line, champion first: from each individual,
     * the fitter parent is followed until a seed/resumed record (or an
     * ancestor the ledger does not know). Indices into the event list
     * handed to championAncestry().
     */
    std::vector<std::size_t> chain;

    /** Distinct ancestors of the champion (champion included). */
    std::size_t ancestorCount = 0;

    /** Ancestors per creating operator, indexed by BirthOp. */
    std::array<std::size_t, numBirthOps> opCounts{};

    /** True when every ancestry path terminates in a generation-0 row. */
    bool reachesGeneration0 = false;

    /**
     * Parent ids referenced by ancestors but absent from the ledger
     * (non-empty only for resumed runs whose ancestors predate it).
     */
    std::vector<std::uint64_t> unknownParents;
};

/**
 * Reconstruct the champion's ancestry from parsed lineage events.
 * Elite-copy rows re-record an existing id; the first record of each
 * id (its true birth) is used. fatal() when @p events is empty.
 */
Ancestry championAncestry(const std::vector<LineageEvent>& events);

} // namespace analysis
} // namespace gest

#endif // GEST_ANALYSIS_LINEAGE_HH
