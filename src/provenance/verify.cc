#include "provenance/verify.hh"

#include <sstream>

#include "config/config.hh"
#include "core/population.hh"
#include "native/native_measurement.hh"
#include "provenance/digest.hh"
#include "provenance/manifest.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/sha256.hh"
#include "util/strutil.hh"

namespace gest {
namespace provenance {

namespace {

std::string
formatDouble17(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

/**
 * Pin the first divergent individual of generation @p gen by comparing
 * the recorded population checkpoint against the replayed population,
 * field by field, in population order.
 */
std::string
bisectGeneration(const std::string& run_dir,
                 const isa::InstructionLibrary& lib,
                 const core::Population& replayed, int gen,
                 std::uint64_t& divergent_id)
{
    const std::string pop_path =
        run_dir + "/population_" + std::to_string(gen) + ".pop";
    std::string text;
    if (!tryReadFile(pop_path, text))
        return "(no " + pop_path + " checkpoint; cannot bisect to an "
               "individual)";
    core::Population recorded;
    try {
        recorded = core::deserializePopulation(lib, text, pop_path);
    } catch (const FatalError& err) {
        return std::string("(checkpoint unreadable: ") + err.what() +
               ")";
    }

    if (recorded.individuals.size() != replayed.individuals.size())
        return "population size recorded " +
               std::to_string(recorded.individuals.size()) +
               " vs replayed " +
               std::to_string(replayed.individuals.size());

    for (std::size_t i = 0; i < recorded.individuals.size(); ++i) {
        const core::Individual& rec = recorded.individuals[i];
        const core::Individual& rep = replayed.individuals[i];
        const std::string who = "individual id " +
                                std::to_string(rec.id) + " (index " +
                                std::to_string(i) + ")";
        divergent_id = rec.id;
        if (rec.id != rep.id)
            return "individual at index " + std::to_string(i) +
                   ": id recorded " + std::to_string(rec.id) +
                   " vs replayed " + std::to_string(rep.id);
        if (canonicalIndividualText(lib, rec) ==
            canonicalIndividualText(lib, rep))
            continue;
        if (rec.code.size() != rep.code.size())
            return who + ": genome length recorded " +
                   std::to_string(rec.code.size()) + " vs replayed " +
                   std::to_string(rep.code.size());
        for (std::size_t g = 0; g < rec.code.size(); ++g) {
            if (rec.code[g].defIndex != rep.code[g].defIndex ||
                rec.code[g].operandChoice != rep.code[g].operandChoice)
                return who + ": genome differs at gene " +
                       std::to_string(g) + " (recorded " +
                       lib.instruction(rec.code[g].defIndex).name +
                       ", replayed " +
                       lib.instruction(rep.code[g].defIndex).name + ")";
        }
        const std::size_t n_meas = std::min(rec.measurements.size(),
                                            rep.measurements.size());
        if (rec.measurements.size() != rep.measurements.size())
            return who + ": measurement count recorded " +
                   std::to_string(rec.measurements.size()) +
                   " vs replayed " +
                   std::to_string(rep.measurements.size());
        for (std::size_t v = 0; v < n_meas; ++v) {
            if (rec.measurements[v] != rep.measurements[v])
                return who + ": measurement " + std::to_string(v) +
                       " recorded " + formatDouble17(rec.measurements[v]) +
                       " vs replayed " +
                       formatDouble17(rep.measurements[v]);
        }
        if (rec.fitness != rep.fitness)
            return who + ": fitness recorded " +
                   formatDouble17(rec.fitness) + " vs replayed " +
                   formatDouble17(rep.fitness);
        if (rec.evaluated != rep.evaluated)
            return who + ": evaluated flag recorded " +
                   std::to_string(rec.evaluated) + " vs replayed " +
                   std::to_string(rep.evaluated);
        return who + ": canonical serialization differs";
    }
    divergent_id = 0;
    return "digests differ but every individual matches the "
           "checkpoint; the checkpoint itself may predate the ledger "
           "row";
}

/** Per-run replay bookkeeping shared with the engine observer. */
struct ReplayState
{
    const std::vector<DigestRow>* rows = nullptr;
    const isa::InstructionLibrary* lib = nullptr;
    std::string runDir;
    std::size_t next = 0;
    bool diverged = false;
    int firstGen = -1;
    std::uint64_t firstId = 0;
    std::string message;
};

} // namespace

VerifyResult
verifyRun(const std::string& run_dir, const VerifyOptions& options)
{
    VerifyResult result;
    auto problem = [&](std::string msg) {
        result.ok = false;
        result.problems.push_back(std::move(msg));
    };

    Manifest manifest;
    std::string error;
    if (!loadManifest(run_dir, manifest, &error)) {
        problem(error);
        return result;
    }
    result.notes.push_back(
        "manifest: config " + manifest.configHash.substr(0, 12) +
        "…, seed " +
        (manifest.hasSeed ? std::to_string(manifest.seed)
                          : std::string("(none)")) +
        ", " + std::to_string(manifest.generationsCompleted) +
        " generations, " + std::to_string(manifest.artifacts.size()) +
        " artifacts, build " + buildFingerprintOf(manifest));

    // Checksum phase: name the first missing or modified artifact.
    for (const ArtifactEntry& artifact : manifest.artifacts) {
        const std::string full = run_dir + "/" + artifact.path;
        std::string hash;
        if (!sha256File(full, hash)) {
            if (result.firstBadArtifact.empty())
                result.firstBadArtifact = artifact.path;
            problem("artifact " + artifact.path + " (kind " +
                    artifact.kind + ") is missing or unreadable");
            continue;
        }
        if (hash != artifact.sha256) {
            if (result.firstBadArtifact.empty())
                result.firstBadArtifact = artifact.path;
            problem("artifact " + artifact.path + " (kind " +
                    artifact.kind + ") checksum mismatch: sealed " +
                    artifact.sha256.substr(0, 12) + "…, found " +
                    hash.substr(0, 12) + "…");
            continue;
        }
        ++result.artifactsVerified;
    }
    result.notes.push_back(
        "checksums: " + std::to_string(result.artifactsVerified) + "/" +
        std::to_string(manifest.artifacts.size()) +
        " artifacts verified");
    if (options.quick) {
        result.notes.push_back("quick mode: replay skipped");
        return result;
    }
    if (!result.ok) {
        result.notes.push_back(
            "replay skipped: artifact checksums already fail");
        return result;
    }

    // Replay phase.
    if (!manifest.hasSeed) {
        problem("manifest records no RNG seed; the run cannot be "
                "replayed (re-record with seed=\"...\" in <ga>)");
        return result;
    }
    if (!manifest.rngGenerator.empty() &&
        manifest.rngGenerator != rngGeneratorId) {
        problem("RNG generator mismatch: the run used '" +
                manifest.rngGenerator + "', this build uses '" +
                rngGeneratorId + "'; a replay cannot reproduce it");
        return result;
    }
    if (buildFingerprintOf(manifest) != currentBuildFingerprint()) {
        result.notes.push_back(
            "note: sealed by a different build (" +
            buildFingerprintOf(manifest) + " vs " +
            currentBuildFingerprint() +
            "); a divergence below may stem from code changes, not "
            "tampering");
    }

    std::vector<DigestRow> rows;
    if (!loadDigests(run_dir, rows, &error)) {
        problem(error);
        return result;
    }

    std::string config_text;
    if (!tryReadFile(run_dir + "/run_configuration.xml", config_text)) {
        problem("run_configuration.xml is missing from " + run_dir +
                "; the run cannot be replayed");
        return result;
    }
    const std::string recomputed_hash = canonicalConfigHash(config_text);
    if (recomputed_hash != manifest.configHash) {
        result.notes.push_back(
            "note: config drift — run_configuration.xml hashes " +
            recomputed_hash.substr(0, 12) +
            "… but the manifest seals " +
            manifest.configHash.substr(0, 12) +
            "…; manifest.json or the configuration was edited");
    }

    const std::string base_dir =
        manifest.configBaseDir.empty() ? "." : manifest.configBaseDir;
    config::RunConfig cfg;
    try {
        cfg = config::parseConfig(config_text, base_dir);
    } catch (const FatalError& err) {
        // External references (template file, measurement config,
        // seed population) may no longer resolve from the original
        // base directory; fall back to the embedded information.
        try {
            config::ParseOptions no_files;
            no_files.loadReferencedFiles = false;
            cfg = config::parseConfig(config_text, base_dir, no_files);
            result.notes.push_back(
                std::string("note: external file references did not "
                            "resolve from ") +
                base_dir + " (" + err.what() +
                "); replaying with embedded configuration only");
        } catch (const FatalError& err2) {
            problem(std::string("recorded configuration no longer "
                                "parses: ") +
                    err2.what());
            return result;
        }
    }

    // The manifest's seed is authoritative: verify replays what the
    // manifest claims, so editing the sealed seed is itself a
    // detectable divergence (at generation 0).
    cfg.ga.seed = manifest.seed;
    if (manifest.steadyStateOverride)
        cfg.steadyStateOverride = manifest.steadyStateOverride;

    native::registerNativeMeasurements();

    config::Evaluator built;
    try {
        built = config::buildEvaluator(cfg);
    } catch (const FatalError& err) {
        problem(std::string("cannot rebuild the run's measurement/"
                            "fitness: ") +
                err.what());
        return result;
    }

    core::Engine engine(cfg.ga, cfg.library, *built.measurement,
                        *built.fitness);
    if (!cfg.seedPopulationPath.empty()) {
        try {
            engine.setSeedPopulation(core::loadPopulation(
                cfg.library, cfg.seedPopulationPath));
        } catch (const FatalError& err) {
            problem("seed population " + cfg.seedPopulationPath +
                    " no longer loads (" + err.what() +
                    "); the replay cannot reconstruct generation 0");
            return result;
        }
    }

    ReplayState state;
    state.rows = &rows;
    state.lib = &cfg.library;
    state.runDir = run_dir;
    engine.addGenerationObserver(
        [&state](const core::Population& pop,
                 const core::GenerationRecord& record) {
            if (state.diverged)
                return;
            if (state.next >= state.rows->size()) {
                state.diverged = true;
                state.firstGen = record.generation;
                state.message =
                    "replay produced generation " +
                    std::to_string(record.generation) +
                    " but the ledger records only " +
                    std::to_string(state.rows->size()) + " generations";
                return;
            }
            const DigestRow& expected = (*state.rows)[state.next];
            const std::string digest =
                populationDigest(*state.lib, pop);
            if (digest == expected.digest) {
                ++state.next;
                return;
            }
            state.diverged = true;
            state.firstGen = record.generation;
            state.message = bisectGeneration(state.runDir, *state.lib,
                                             pop, record.generation,
                                             state.firstId);
        });

    engine.initialize();
    while (!state.diverged && engine.step()) {
    }

    result.generationsVerified = state.next;
    if (state.diverged) {
        result.firstDivergentGeneration = state.firstGen;
        result.firstDivergentIndividual = state.firstId;
        problem("first divergent generation " +
                std::to_string(state.firstGen) + ": " + state.message);
        if (manifest.threads > 1) {
            result.notes.push_back(
                "hint: the run evaluated with threads=" +
                std::to_string(manifest.threads) +
                "; measurements that are not pure functions of the "
                "code (native counters, noisy instruments) make "
                "multi-threaded runs nondeterministic — re-record "
                "with threads=1 or a simulated measurement");
        }
        return result;
    }
    if (state.next < rows.size()) {
        result.firstDivergentGeneration = static_cast<int>(state.next);
        problem("replay ended after " + std::to_string(state.next) +
                " generations but the ledger records " +
                std::to_string(rows.size()) +
                " — first missing generation " +
                std::to_string(rows[state.next].generation));
        return result;
    }
    result.notes.push_back(
        "replay: " + std::to_string(state.next) +
        " generations reproduced bit-identically");
    return result;
}

std::string
formatVerify(const std::string& run_dir, const VerifyResult& result)
{
    std::string out = "verify: " + run_dir + "\n";
    for (const std::string& note : result.notes)
        out += "  " + note + "\n";
    for (const std::string& prob : result.problems)
        out += "FAIL: " + prob + "\n";
    out += result.ok ? "OK: run verified\n"
                     : "verification FAILED\n";
    return out;
}

} // namespace provenance
} // namespace gest
