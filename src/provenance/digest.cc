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
    std::string text;
    core::appendIndividualRecords(lib, ind, text);
    return text;
}

std::string
populationDigest(const isa::InstructionLibrary& lib,
                 const core::Population& pop)
{
    core::PopulationText text;
    core::renderPopulation(lib, pop, text);
    return sha256Hex(text.records());
}

DigestLedger::DigestLedger(std::string run_dir)
    : _csv(ledger::digests, run_dir + "/" + ledger::digests.file)
{
    ensureDir(run_dir);
}

void
DigestLedger::append(const core::PopulationText& text,
                     const core::GenerationRecord& record)
{
    const double start = stats::nowUs();
    std::ostringstream out;
    out.precision(17);
    out << record.generation << ',' << record.bestFitness << ','
        << sha256Hex(text.records()) << '\n';
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
