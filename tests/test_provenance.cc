/**
 * @file
 * Tests of the provenance + audit layer: SHA-256 primitives, canonical
 * configuration hashing, population digests, the manifest round-trip,
 * replay verification (clean, tampered, seed drift) and cross-run
 * comparison, plus the permutation test behind `gest compare`'s perf
 * significance check.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "config/config.hh"
#include "core/population.hh"
#include "isa/standard_libs.hh"
#include "provenance/compare.hh"
#include "provenance/digest.hh"
#include "provenance/manifest.hh"
#include "provenance/provenance.hh"
#include "provenance/verify.hh"
#include "stats/resample.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/sha256.hh"
#include "util/strutil.hh"

namespace gest {
namespace {

const char* kRunConfig = R"(
<gest_configuration>
  <ga population_size="8" individual_size="6" mutation_rate="0.1"
      generations="4" seed="17" fitness_cache_size="32"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a7" min_cycles="1024"/>
  </measurement>
  <fitness class="DefaultFitness"/>
</gest_configuration>
)";

config::RunConfig
runConfigInto(const std::string& out_dir)
{
    config::RunConfig cfg = config::parseConfig(kRunConfig);
    cfg.outputDirectory = out_dir;
    return cfg;
}

/** A deterministic evaluated population for digest tests. */
core::Population
testPopulation(const isa::InstructionLibrary& lib, int count, int genes,
               std::uint64_t first_id)
{
    core::Population pop;
    for (int i = 0; i < count; ++i) {
        core::Individual ind;
        ind.id = first_id + static_cast<std::uint64_t>(i);
        Rng rng(ind.id * 977 + 13);
        for (int g = 0; g < genes; ++g)
            ind.code.push_back(lib.randomInstance(rng));
        ind.measurements = {1.0 + i, 0.5 * i};
        ind.fitness = 1.0 + 0.25 * i;
        ind.evaluated = true;
        pop.individuals.push_back(ind);
    }
    return pop;
}

// ---------------------------------------------------------------------
// SHA-256 (FIPS 180-4 vectors).

TEST(Sha256, KnownVectors)
{
    EXPECT_EQ(sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b"
              "7852b855");
    EXPECT_EQ(sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61"
              "f20015ad");
    EXPECT_EQ(sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlm"
                        "nomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd4"
              "19db06c1");
}

TEST(Sha256, IncrementalUpdatesMatchOneShot)
{
    std::string text;
    for (int i = 0; i < 1000; ++i)
        text += "block " + std::to_string(i) + "\n";

    Sha256 hasher;
    // Uneven chunk sizes exercise the 64-byte block buffering.
    std::size_t pos = 0;
    std::size_t chunk = 1;
    while (pos < text.size()) {
        const std::size_t n = std::min(chunk, text.size() - pos);
        hasher.update(std::string_view(text).substr(pos, n));
        pos += n;
        chunk = chunk * 3 + 1;
    }
    EXPECT_EQ(hasher.finishHex(), sha256Hex(text));
}

TEST(Sha256, FileHashingMatchesInMemory)
{
    const std::string dir = makeTempDir("gest-sha");
    std::string payload;
    for (int i = 0; i < 70000; ++i)  // spans the 64KB read chunk
        payload += static_cast<char>('a' + i % 26);
    writeFile(dir + "/payload.bin", payload);

    std::string hex;
    ASSERT_TRUE(sha256File(dir + "/payload.bin", hex));
    EXPECT_EQ(hex, sha256Hex(payload));
    // The byte count comes from the same read as the checksum.
    std::uint64_t bytes = 0;
    ASSERT_TRUE(sha256File(dir + "/payload.bin", hex, &bytes));
    EXPECT_EQ(bytes, payload.size());

    EXPECT_FALSE(sha256File(dir + "/absent.bin", hex, &bytes));
    EXPECT_EQ(bytes, payload.size());
    removeAll(dir);
}

// ---------------------------------------------------------------------
// Canonical configuration hashing.

TEST(CanonicalConfigHash, InvariantToFormattingAndAttributeOrder)
{
    const std::string a =
        "<gest_configuration>\n"
        "  <ga population_size=\"8\" generations=\"4\" seed=\"1\"/>\n"
        "  <library name=\"arm\"/>\n"
        "</gest_configuration>\n";
    // Same semantics: attribute order shuffled, whitespace reflowed,
    // a comment added.
    const std::string b =
        "<gest_configuration><!-- reformatted -->"
        "<ga seed=\"1\" generations=\"4\" population_size=\"8\"/>"
        "<library name=\"arm\"/></gest_configuration>";
    EXPECT_EQ(provenance::canonicalConfigHash(a),
              provenance::canonicalConfigHash(b));

    // Any semantic change changes the hash.
    const std::string c = replaceAll(a, "seed=\"1\"", "seed=\"2\"");
    EXPECT_NE(provenance::canonicalConfigHash(a),
              provenance::canonicalConfigHash(c));

    // Child-element order is semantic (<instructions> sequences).
    const std::string d =
        "<gest_configuration>"
        "<library name=\"arm\"/>"
        "<ga population_size=\"8\" generations=\"4\" seed=\"1\"/>"
        "</gest_configuration>";
    EXPECT_NE(provenance::canonicalConfigHash(a),
              provenance::canonicalConfigHash(d));

    EXPECT_THROW(provenance::canonicalConfigHash("<broken"), FatalError);
}

// ---------------------------------------------------------------------
// Population digests.

TEST(PopulationDigest, IgnoresGenerationNumberButNotContent)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    core::Population pop = testPopulation(lib, 6, 5, /*first_id=*/1);
    pop.generation = 3;

    core::Population renumbered = pop;
    renumbered.generation = 0;
    EXPECT_EQ(provenance::populationDigest(lib, pop),
              provenance::populationDigest(lib, renumbered));

    core::Population changed = pop;
    changed.individuals[0].fitness += 1.0;
    EXPECT_NE(provenance::populationDigest(lib, pop),
              provenance::populationDigest(lib, changed));

    core::Population reordered = pop;
    std::swap(reordered.individuals[0], reordered.individuals[1]);
    EXPECT_NE(provenance::populationDigest(lib, pop),
              provenance::populationDigest(lib, reordered));
}

TEST(PopulationDigest, IsTheHashOfTheCheckpointRecordBlock)
{
    // The digest hashes exactly the checkpoint's records: the text
    // between the `generation` line and the closing `end`.
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    for (const int count : {0, 1, 7}) {
        core::Population pop = testPopulation(lib, count, 9, 40);
        pop.generation = 11;
        if (count > 0) {
            pop.individuals[0].measurements.clear();
            pop.individuals[0].fitness = -0.0;
            pop.individuals[0].id = 18446744073709551615ULL;
        }
        const std::string text = core::serializePopulation(lib, pop);
        const std::string head = "gest-population 1\ngeneration 11\n";
        const std::string tail = "end\n";
        ASSERT_EQ(text.compare(0, head.size(), head), 0);
        ASSERT_GE(text.size(), head.size() + tail.size());
        ASSERT_EQ(text.compare(text.size() - tail.size(), tail.size(),
                               tail),
                  0);
        EXPECT_EQ(provenance::populationDigest(lib, pop),
                  sha256Hex(std::string_view(text).substr(
                      head.size(),
                      text.size() - head.size() - tail.size())))
            << count << " individuals";
    }
}

TEST(PopulationDigest, LedgerRoundTripsThroughLoadDigests)
{
    const std::string dir = makeTempDir("gest-digest");
    const isa::InstructionLibrary lib = isa::armLikeLibrary();

    provenance::DigestLedger ledger(dir);
    std::vector<std::string> written;
    for (int gen = 0; gen < 3; ++gen) {
        core::Population pop =
            testPopulation(lib, 6, 5, gen * 10 + 1);
        pop.generation = gen;
        core::GenerationRecord record;
        record.generation = gen;
        record.bestFitness = 1.5 + gen;
        core::PopulationText text;
        core::renderPopulation(lib, pop, text);
        ledger.append(text, record);
        written.push_back(provenance::populationDigest(lib, pop));
    }
    EXPECT_EQ(ledger.rowsSealed(), 3u);

    std::vector<provenance::DigestRow> rows;
    std::string error;
    ASSERT_TRUE(provenance::loadDigests(dir, rows, &error)) << error;
    ASSERT_EQ(rows.size(), 3u);
    for (int gen = 0; gen < 3; ++gen) {
        EXPECT_EQ(rows[gen].generation, gen);
        EXPECT_DOUBLE_EQ(rows[gen].bestFitness, 1.5 + gen);
        EXPECT_EQ(rows[gen].digest, written[gen]);
    }

    EXPECT_FALSE(
        provenance::loadDigests(dir + "/absent", rows, &error));
    EXPECT_NE(error.find("digests.csv"), std::string::npos);
    removeAll(dir);
}

// ---------------------------------------------------------------------
// Manifest round-trip.

TEST(Manifest, FormatsAndReloadsLosslessly)
{
    const std::string dir = makeTempDir("gest-manifest");
    provenance::Manifest m;
    m.configHash = sha256Hex("config");
    m.configBaseDir = "/work/configs";
    m.measurementClass = "SimPowerMeasurement";
    m.fitnessClass = "DefaultFitness";
    m.hasSeed = true;
    // Larger than 2^53: survives only because the seed is serialized
    // as a JSON string, not a double.
    m.seed = 0xdeadbeefcafef00dULL;
    m.rngGenerator = provenance::rngGeneratorId;
    m.populationSize = 50;
    m.individualSize = 40;
    m.generations = 100;
    m.threads = 4;
    m.fitnessCacheSize = 1024;
    m.elitism = true;
    provenance::fillBuildInfo(m);
    m.steadyStateOverride = false;
    m.waveformTopK = 2;
    m.recordStats = false;
    m.generationsCompleted = 100;
    m.evaluations = 12345;
    m.bestFitness = 3.25;
    m.bestId = 4242;
    m.digestsSealed = 100;
    m.digestMsTotal = 12.5;
    m.artifacts.push_back(
        {"history.csv", sha256Hex("rows"), 1234, "history"});
    m.artifacts.push_back(
        {"population_0.pop", sha256Hex("pop"), 99, "population"});

    writeFile(dir + "/manifest.json", provenance::formatManifest(m));

    provenance::Manifest loaded;
    std::string error;
    ASSERT_TRUE(provenance::loadManifest(dir, loaded, &error)) << error;
    EXPECT_EQ(loaded.version, provenance::manifestVersion);
    EXPECT_EQ(loaded.configHash, m.configHash);
    EXPECT_EQ(loaded.configBaseDir, m.configBaseDir);
    EXPECT_EQ(loaded.measurementClass, m.measurementClass);
    EXPECT_EQ(loaded.fitnessClass, m.fitnessClass);
    ASSERT_TRUE(loaded.hasSeed);
    EXPECT_EQ(loaded.seed, m.seed);
    EXPECT_EQ(loaded.rngGenerator, m.rngGenerator);
    EXPECT_EQ(loaded.populationSize, 50);
    EXPECT_EQ(loaded.individualSize, 40);
    EXPECT_EQ(loaded.generations, 100);
    EXPECT_EQ(loaded.threads, 4);
    EXPECT_EQ(loaded.fitnessCacheSize, 1024);
    EXPECT_TRUE(loaded.elitism);
    EXPECT_EQ(loaded.compiler, m.compiler);
    EXPECT_EQ(loaded.gitSha, m.gitSha);
    ASSERT_TRUE(loaded.steadyStateOverride.has_value());
    EXPECT_FALSE(*loaded.steadyStateOverride);
    EXPECT_EQ(loaded.waveformTopK, 2);
    EXPECT_FALSE(loaded.recordStats);
    EXPECT_EQ(loaded.generationsCompleted, 100);
    EXPECT_EQ(loaded.evaluations, 12345u);
    EXPECT_DOUBLE_EQ(loaded.bestFitness, 3.25);
    EXPECT_EQ(loaded.bestId, 4242u);
    EXPECT_EQ(loaded.digestsSealed, 100u);
    ASSERT_EQ(loaded.artifacts.size(), 2u);
    EXPECT_EQ(loaded.artifacts[0].path, "history.csv");
    EXPECT_EQ(loaded.artifacts[0].sha256, m.artifacts[0].sha256);
    EXPECT_EQ(loaded.artifacts[0].bytes, 1234u);
    EXPECT_EQ(loaded.artifacts[0].kind, "history");

    // Missing and unsupported-version manifests produce actionable
    // errors.
    EXPECT_FALSE(
        provenance::loadManifest(dir + "/absent", loaded, &error));
    EXPECT_NE(error.find("manifest"), std::string::npos);
    writeFile(dir + "/manifest.json",
              "{\"gest_manifest_version\": 99}\n");
    EXPECT_FALSE(provenance::loadManifest(dir, loaded, &error));
    EXPECT_NE(error.find("99"), std::string::npos);
    removeAll(dir);
}

// ---------------------------------------------------------------------
// Sealed runs: verify clean, tampered, seed drift.

TEST(Verify, CleanRunPassesAndReplayMatchesEveryGeneration)
{
    const std::string dir = makeTempDir("gest-verify");
    const config::RunResult result =
        config::runFromConfig(runConfigInto(dir + "/run"));
    EXPECT_EQ(result.manifestFile, dir + "/run/manifest.json");
    ASSERT_TRUE(fileExists(result.manifestFile));

    const provenance::VerifyResult v =
        provenance::verifyRun(dir + "/run");
    EXPECT_TRUE(v.ok) << provenance::formatVerify(dir + "/run", v);
    EXPECT_EQ(v.firstDivergentGeneration, -1);
    EXPECT_EQ(v.generationsVerified, 4u);
    EXPECT_GT(v.artifactsVerified, 10u);
    EXPECT_TRUE(v.problems.empty());
    removeAll(dir);
}

TEST(Verify, QuickModeSkipsReplay)
{
    const std::string dir = makeTempDir("gest-verify");
    config::runFromConfig(runConfigInto(dir + "/run"));
    provenance::VerifyOptions options;
    options.quick = true;
    const provenance::VerifyResult v =
        provenance::verifyRun(dir + "/run", options);
    EXPECT_TRUE(v.ok);
    EXPECT_EQ(v.generationsVerified, 0u);
    removeAll(dir);
}

TEST(Verify, TamperedArtifactIsNamedExactly)
{
    const std::string dir = makeTempDir("gest-verify");
    config::runFromConfig(runConfigInto(dir + "/run"));

    std::string lineage = readFile(dir + "/run/lineage.csv");
    lineage[lineage.size() / 2] ^= 0x01;
    writeFile(dir + "/run/lineage.csv", lineage);

    const provenance::VerifyResult v =
        provenance::verifyRun(dir + "/run");
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.firstBadArtifact, "lineage.csv");
    ASSERT_FALSE(v.problems.empty());
    EXPECT_NE(v.problems[0].find("lineage.csv"), std::string::npos);
    EXPECT_NE(v.problems[0].find("checksum mismatch"),
              std::string::npos);
    removeAll(dir);
}

TEST(Verify, MissingArtifactIsNamedExactly)
{
    const std::string dir = makeTempDir("gest-verify");
    config::runFromConfig(runConfigInto(dir + "/run"));
    removeAll(dir + "/run/analytics.csv");
    const provenance::VerifyResult v =
        provenance::verifyRun(dir + "/run");
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.firstBadArtifact, "analytics.csv");
    removeAll(dir);
}

TEST(Verify, SeedDriftDivergesAtGenerationZero)
{
    const std::string dir = makeTempDir("gest-verify");
    config::runFromConfig(runConfigInto(dir + "/run"));

    // The manifest's seed is authoritative for the replay; rewriting
    // it models a run whose recorded seed no longer matches its
    // artifacts. manifest.json is excluded from its own checksum
    // table, so only the replay can catch this.
    const std::string manifest_path = dir + "/run/manifest.json";
    const std::string original = readFile(manifest_path);
    ASSERT_NE(original.find("\"seed\": \"17\""), std::string::npos);
    writeFile(manifest_path,
              replaceAll(original, "\"seed\": \"17\"",
                         "\"seed\": \"18\""));

    const provenance::VerifyResult v =
        provenance::verifyRun(dir + "/run");
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.firstDivergentGeneration, 0);
    EXPECT_NE(v.firstDivergentIndividual, 0u);
    ASSERT_FALSE(v.problems.empty());
    EXPECT_NE(v.problems[0].find("generation 0"), std::string::npos);
    removeAll(dir);
}

TEST(Verify, UnsealedRunReportsActionableProblem)
{
    const std::string dir = makeTempDir("gest-verify");
    const provenance::VerifyResult v = provenance::verifyRun(dir);
    EXPECT_FALSE(v.ok);
    ASSERT_FALSE(v.problems.empty());
    EXPECT_NE(v.problems[0].find("manifest"), std::string::npos);
    removeAll(dir);
}

// ---------------------------------------------------------------------
// Seed-population round trip: a reloaded checkpoint must reproduce the
// checkpoint's digest as its generation 0.

TEST(Provenance, SeedPopulationRoundTripReproducesDigest)
{
    const std::string dir = makeTempDir("gest-seedtrip");
    config::runFromConfig(runConfigInto(dir + "/first"));

    std::vector<provenance::DigestRow> first_rows;
    std::string error;
    ASSERT_TRUE(provenance::loadDigests(dir + "/first", first_rows,
                                        &error))
        << error;
    ASSERT_EQ(first_rows.size(), 4u);

    // Resume from the last checkpoint. Generation 0 of the resumed run
    // is the reloaded population re-evaluated — same individuals, new
    // generation index — so its digest must equal the checkpoint's
    // (canonical text excludes the generation number by design).
    config::RunConfig resumed = runConfigInto(dir + "/second");
    resumed.seedPopulationPath = dir + "/first/population_3.pop";
    config::runFromConfig(resumed);

    std::vector<provenance::DigestRow> second_rows;
    ASSERT_TRUE(provenance::loadDigests(dir + "/second", second_rows,
                                        &error))
        << error;
    ASSERT_FALSE(second_rows.empty());
    EXPECT_EQ(second_rows[0].digest, first_rows.back().digest);
    removeAll(dir);
}

// ---------------------------------------------------------------------
// Cross-run comparison.

TEST(Compare, SameSeedRunsHaveZeroSignificantDeltas)
{
    const std::string dir = makeTempDir("gest-compare");
    config::runFromConfig(runConfigInto(dir + "/a"));
    config::runFromConfig(runConfigInto(dir + "/b"));

    const provenance::RunComparison cmp =
        provenance::compareRuns(dir + "/a", dir + "/b");
    EXPECT_EQ(cmp.significantDeltas, 0)
        << provenance::formatComparison(cmp);
    EXPECT_TRUE(cmp.deterministic.empty());
    EXPECT_TRUE(cmp.digestsCompared);
    EXPECT_EQ(cmp.firstDigestDivergence, -1);
    EXPECT_EQ(cmp.firstFitnessDivergence, -1);
    EXPECT_DOUBLE_EQ(cmp.maxAbsFitnessDelta, 0.0);
    EXPECT_FALSE(cmp.perf.empty());

    const std::string json = provenance::formatComparisonsJson({cmp});
    EXPECT_NE(json.find("\"significant_deltas\": 0"),
              std::string::npos);
    removeAll(dir);
}

TEST(Compare, DifferentSeedsReportDeterministicDeltas)
{
    const std::string dir = makeTempDir("gest-compare");
    config::runFromConfig(runConfigInto(dir + "/a"));

    config::RunConfig other = config::parseConfig(
        replaceAll(kRunConfig, "seed=\"17\"", "seed=\"18\""));
    other.outputDirectory = dir + "/b";
    config::runFromConfig(other);

    const provenance::RunComparison cmp =
        provenance::compareRuns(dir + "/a", dir + "/b");
    EXPECT_GT(cmp.significantDeltas, 0);
    EXPECT_EQ(cmp.firstDigestDivergence, 0);
    // The seed note explains why the deltas are expected.
    bool noted = false;
    for (const std::string& note : cmp.notes)
        noted = noted || note.find("seeds differ") != std::string::npos;
    EXPECT_TRUE(noted);
    removeAll(dir);
}

TEST(Compare, MissingRunIsFatal)
{
    const std::string dir = makeTempDir("gest-compare");
    EXPECT_THROW(provenance::compareRuns(dir + "/a", dir + "/b"),
                 FatalError);
    removeAll(dir);
}

// ---------------------------------------------------------------------
// Permutation test.

TEST(Resample, IdenticalSamplesNeverFlag)
{
    const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(stats::permutationPValue(a, a), 1.0);
    EXPECT_DOUBLE_EQ(stats::permutationPValue({}, a), 1.0);
}

TEST(Resample, ClearlySeparatedSamplesAreSignificant)
{
    std::vector<double> slow, fast;
    for (int i = 0; i < 12; ++i) {
        slow.push_back(100.0 + i);
        fast.push_back(10.0 + i);
    }
    EXPECT_LT(stats::permutationPValue(slow, fast), 0.01);

    // Deterministic: the resampling RNG seed is fixed.
    EXPECT_DOUBLE_EQ(stats::permutationPValue(slow, fast),
                     stats::permutationPValue(slow, fast));
}

// ---------------------------------------------------------------------
// Artifact kinds.

TEST(Provenance, InferredArtifactKinds)
{
    EXPECT_EQ(provenance::inferArtifactKind("history.csv"), "history");
    EXPECT_EQ(provenance::inferArtifactKind("digests.csv"), "digests");
    EXPECT_EQ(provenance::inferArtifactKind("lineage.csv"), "lineage");
    EXPECT_EQ(provenance::inferArtifactKind("population_7.pop"),
              "population");
    EXPECT_EQ(provenance::inferArtifactKind("waveforms/42.csv"),
              "waveform");
    EXPECT_EQ(provenance::inferArtifactKind("run_template.txt"),
              "template");
    // §III.D's per-individual sources are an export, not an artifact.
    EXPECT_EQ(provenance::inferArtifactKind("0_1_2.97.txt"), "other");
    EXPECT_EQ(provenance::inferArtifactKind("run_configuration.xml"),
              "config");
    EXPECT_EQ(provenance::inferArtifactKind("metrics.json"), "stats");
}

} // namespace
} // namespace gest
