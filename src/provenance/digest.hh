/**
 * @file
 * Per-generation population digests: the replay-verification ground
 * truth behind `gest verify`.
 *
 * After each evaluated generation the provenance layer hashes a
 * canonical serialization of the whole population — every individual's
 * id, lineage, fitness, measurement vector and genome — and appends one
 * row to the run's `digests.csv` ledger (`# gest-digests v1`). A replay
 * of the run from its recorded configuration and seed must reproduce
 * every digest bit-for-bit; the first row that differs pins the first
 * divergent generation, and the recorded population checkpoint of that
 * generation pins the first divergent individual.
 *
 * The canonical text deliberately excludes the generation *number*: a
 * population checkpoint reloaded as the seed of a new run (§III.D)
 * holds the same individuals under a different generation index, and
 * its generation-0 digest must equal the checkpoint's.
 */

#ifndef GEST_PROVENANCE_DIGEST_HH
#define GEST_PROVENANCE_DIGEST_HH

#include <string>
#include <vector>

#include "core/engine.hh"
#include "core/population.hh"
#include "output/ledger.hh"

namespace gest {
namespace provenance {

/**
 * The canonical serialization of one individual: its `individual` /
 * `measurements` / `code` records in the population file format
 * (core::appendIndividualRecords). No generation number.
 */
std::string canonicalIndividualText(const isa::InstructionLibrary& lib,
                                    const core::Individual& ind);

/**
 * SHA-256 (64 hex digits) over the canonical serialization of every
 * individual of @p pop, in population order: the record block of the
 * population's checkpoint.
 */
std::string populationDigest(const isa::InstructionLibrary& lib,
                             const core::Population& pop);

/** One parsed digests.csv row. */
struct DigestRow
{
    int generation = 0;
    double bestFitness = 0.0;
    std::string digest;
};

/**
 * Appends one digest row per evaluated generation to
 * `<run_dir>/digests.csv`, driven by the run pipeline. The ledger only
 * reads const views and never touches the GA RNG, so all other
 * artifacts are bit-identical with the ledger on or off.
 */
class DigestLedger
{
  public:
    explicit DigestLedger(std::string run_dir);

    /**
     * Append the row of the population rendered as @p text: SHA-256
     * over its record block (header on the first call).
     */
    void append(const core::PopulationText& text,
                const core::GenerationRecord& record);

    /** Rows appended so far. */
    std::uint64_t rowsSealed() const { return _rows; }

    /**
     * Microseconds spent hashing the rendered records and appending
     * the row, run total. The render is not included: the run
     * pipeline renders each generation once, for this ledger and the
     * checkpoint.
     */
    double digestUsTotal() const { return _digestUs; }

    /** The ledger file's path. */
    const std::string& path() const { return _csv.path(); }

  private:
    ledger::Writer _csv;
    std::uint64_t _rows = 0;
    double _digestUs = 0.0;
};

/**
 * Parse `<run_dir>/digests.csv`. @return false — with @p error set —
 * when the file is absent, has no rows, or is malformed (the ledger
 * reader's message, naming the file and line).
 */
bool loadDigests(const std::string& run_dir, std::vector<DigestRow>& out,
                 std::string* error);

} // namespace provenance
} // namespace gest

#endif // GEST_PROVENANCE_DIGEST_HH
