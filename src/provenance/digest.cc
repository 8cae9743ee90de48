#include "provenance/digest.hh"

#include <sstream>

#include "stats/stats.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/sha256.hh"

namespace gest {
namespace provenance {

std::string
canonicalIndividualText(const isa::InstructionLibrary& lib,
                        const core::Individual& ind)
{
    // Mirrors the per-individual records of serializePopulation(): the
    // two formats must agree so a digest of a deserialized checkpoint
    // equals the digest of the population it checkpointed. Precision 17
    // makes the doubles round-trip exactly.
    std::ostringstream os;
    os.precision(17);
    os << "individual " << ind.id << " " << ind.parent1 << " "
       << ind.parent2 << " " << ind.fitness << " "
       << (ind.evaluated ? 1 : 0) << "\n";
    os << "measurements " << ind.measurements.size();
    for (double v : ind.measurements)
        os << " " << v;
    os << "\n";
    os << "code " << ind.code.size() << "\n";
    for (const isa::InstructionInstance& inst : ind.code) {
        os << lib.instruction(inst.defIndex).name;
        for (std::uint32_t choice : inst.operandChoice)
            os << " " << choice;
        os << "\n";
    }
    return os.str();
}

std::string
populationDigest(const isa::InstructionLibrary& lib,
                 const core::Population& pop)
{
    Sha256 hasher;
    for (const core::Individual& ind : pop.individuals)
        hasher.update(canonicalIndividualText(lib, ind));
    return hasher.finishHex();
}

DigestLedger::DigestLedger(std::string run_dir,
                           const isa::InstructionLibrary& lib)
    : _lib(lib), _csv(ledger::digests, run_dir + "/" + ledger::digests.file)
{
    ensureDir(run_dir);
}

void
DigestLedger::append(const core::Population& pop,
                     const core::GenerationRecord& record)
{
    const double start = stats::nowUs();
    const std::string digest = populationDigest(_lib, pop);

    std::ostringstream out;
    out.precision(17);
    out << record.generation << ',' << record.bestFitness << ','
        << digest << '\n';
    _csv.append(out.str());
    ++_rows;
    _digestUs += stats::nowUs() - start;
}

bool
loadDigests(const std::string& run_dir, std::vector<DigestRow>& out,
            std::string* error)
{
    out.clear();
    std::string text;
    const std::string path = run_dir + "/" + ledger::digests.file;
    if (!tryReadFile(path, text)) {
        if (error)
            *error = path + " is missing: the run was recorded without "
                            "provenance (or by a pre-provenance build)";
        return false;
    }
    try {
        ledger::decode(ledger::digests, path, text,
                       [&](const ledger::Decoder& in) {
            DigestRow row;
            row.generation = static_cast<int>(in.integer("generation"));
            row.bestFitness = in.number("best_fitness");
            row.digest = in.text("population_digest");
            if (row.digest.size() != 64)
                fatal(in.where(), ": population_digest is not 64 hex "
                      "digits");
            out.push_back(std::move(row));
        });
    } catch (const FatalError& err) {
        if (error)
            *error = err.what();
        return false;
    }
    if (out.empty()) {
        if (error)
            *error = path + " holds no digest rows";
        return false;
    }
    return true;
}

} // namespace provenance
} // namespace gest
