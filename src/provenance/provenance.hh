/**
 * @file
 * The per-run provenance recorder: the digest ledger plus the final
 * manifest seal.
 *
 * One ProvenanceRecorder per recorded run, wired by the run driver
 * (config::runFromConfig). During the run the run pipeline calls
 * append() once per evaluated generation, adding one population digest
 * to `digests.csv`. After every other artifact is final (flight
 * recorder sealed, status completed, stats dumped) the driver calls
 * seal(), which walks the run directory, checksums every artifact and
 * writes `manifest.json`.
 *
 * Recording is strictly observational: const views only, never the GA
 * RNG, so every pre-existing artifact is byte-identical with
 * provenance on or off.
 *
 * The seal walks the directory once on the caller's thread and hashes
 * the sorted file list through a caller-supplied loop, which the run
 * driver runs on the engine's evaluation pool. Each entry's byte count
 * comes from the read that produced its checksum.
 */

#ifndef GEST_PROVENANCE_PROVENANCE_HH
#define GEST_PROVENANCE_PROVENANCE_HH

#include <functional>
#include <string>

#include "core/engine.hh"
#include "provenance/digest.hh"
#include "provenance/manifest.hh"

namespace gest {

namespace output {
class TraceWriter;
} // namespace output

namespace provenance {

/**
 * A loop the seal hashes through: run body(i) for every i in
 * [0, count), in any order and possibly concurrently, and return when
 * all are done.
 */
using ForEach = std::function<void(
    std::size_t count, const std::function<void(std::size_t)>& body)>;

class ProvenanceRecorder
{
  public:
    explicit ProvenanceRecorder(std::string run_dir);

    /** Append the row of the population rendered as @p text. */
    void append(const core::PopulationText& text,
                const core::GenerationRecord& record)
    {
        _ledger.append(text, record);
    }

    /** Digest rows sealed so far (status.json's digests_sealed). */
    std::uint64_t digestsSealed() const { return _ledger.rowsSealed(); }

    /**
     * Complete @p manifest and write it as manifest.json. The run
     * driver fills what only it knows: the configuration, GA and
     * recording settings and the run outcome. The seal adds the digest
     * totals, the build and platform fingerprint and a checksum of
     * every artifact under the run directory, each artifact's kind
     * inferred from its name (inferArtifactKind). The files are
     * hashed through @p for_each; the table is sorted by path whatever
     * the order. The walk and the hash are spans on @p trace (null:
     * untraced). Call once, after all other artifacts are final.
     * @return the manifest's path.
     */
    std::string seal(Manifest manifest, const ForEach& for_each,
                     output::TraceWriter* trace);

  private:
    std::string _runDir;
    DigestLedger _ledger;
    bool _sealed = false;
};

/**
 * @return the artifact kind inferred from a run-relative path
 * ("history", "population", "waveform", ...).
 */
std::string inferArtifactKind(const std::string& rel_path);

} // namespace provenance
} // namespace gest

#endif // GEST_PROVENANCE_PROVENANCE_HH
