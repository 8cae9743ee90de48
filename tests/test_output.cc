/**
 * @file
 * Unit tests for the output layer: run directories, the §III.D export
 * and its file naming, statistics post-processing.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "isa/asm_template.hh"
#include "isa/standard_libs.hh"
#include "output/run_writer.hh"
#include "output/stats.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/strutil.hh"

namespace gest {
namespace output {
namespace {

core::Individual
makeIndividual(const isa::InstructionLibrary& lib, std::uint64_t id,
               std::vector<double> measurements, std::uint64_t seed)
{
    core::Individual ind;
    ind.id = id;
    ind.measurements = std::move(measurements);
    ind.fitness = ind.measurements.empty() ? 0.0 : ind.measurements[0];
    ind.evaluated = true;
    Rng rng(seed);
    for (int i = 0; i < 6; ++i)
        ind.code.push_back(lib.randomInstance(rng));
    return ind;
}

/** Write @p pop's checkpoint through @p writer. */
void
writeCheckpoint(RunWriter& writer, const isa::InstructionLibrary& lib,
                const core::Population& pop)
{
    core::PopulationText text;
    core::renderPopulation(lib, pop, text);
    writer.writePopulation(text, pop.generation);
}

/**
 * Export a run holding one checkpoint, generation @p generation with
 * @p ind alone, recorded with @p template_text (none when empty).
 * @return the exported files, name to contents.
 */
std::map<std::string, std::string>
exportOne(const isa::InstructionLibrary& lib, int generation,
          const core::Individual& ind,
          const std::string& template_text = "")
{
    const std::string run_dir = makeTempDir("gest-out");
    const std::string out_dir = makeTempDir("gest-export");
    RunWriter writer(run_dir);
    writer.writeRunMetadata("", template_text);
    core::Population pop;
    pop.generation = generation;
    pop.individuals.push_back(ind);
    writeCheckpoint(writer, lib, pop);

    EXPECT_EQ(exportIndividuals(lib, run_dir, out_dir), 1u);
    std::map<std::string, std::string> files;
    for (const std::string& name : listFiles(out_dir))
        files[name] = readFile(out_dir + "/" + name);
    removeAll(run_dir);
    removeAll(out_dir);
    return files;
}

TEST(Export, FileNameMatchesPaperConvention)
{
    // §III.D: individual 10 of population 1 with measurements 1.30 and
    // 1.33 is saved as 1_10_1.30_1.33.txt.
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto files =
        exportOne(lib, 1, makeIndividual(lib, 10, {1.30, 1.33}, 1));
    ASSERT_EQ(files.size(), 1u);
    EXPECT_EQ(files.begin()->first, "1_10_1.30_1.33.txt");
}

TEST(Export, WritesIndividualSource)
{
    // Without a template: one line per instruction, rendered through
    // the library.
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const core::Individual ind = makeIndividual(lib, 3, {2.5}, 2);
    std::string expected;
    for (const std::string& line : core::renderLines(lib, ind))
        expected += line + "\n";
    const auto files = exportOne(lib, 0, ind);
    ASSERT_EQ(files.count("0_3_2.50.txt"), 1u);
    EXPECT_EQ(files.at("0_3_2.50.txt"), expected);
}

TEST(Export, RendersThroughTemplateWhenGiven)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const isa::AsmTemplate tmpl("prologue\n#loop_code\nepilogue\n");
    const core::Individual ind = makeIndividual(lib, 1, {1.0}, 3);
    const auto files = exportOne(lib, 2, ind, tmpl.text());
    ASSERT_EQ(files.count("2_1_1.00.txt"), 1u);
    const std::string& contents = files.at("2_1_1.00.txt");
    EXPECT_EQ(contents, tmpl.render(core::renderLines(lib, ind)));
    EXPECT_TRUE(startsWith(contents, "prologue\n"));
    EXPECT_TRUE(endsWith(contents, "epilogue\n"));
}

TEST(Export, NegativeMeasurementsInFileNames)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    core::Individual ind = makeIndividual(lib, 2, {-1.5, 0.0}, 5);
    const auto files = exportOne(lib, 3, ind);
    ASSERT_EQ(files.size(), 1u);
    EXPECT_EQ(files.begin()->first, "3_2_-1.50_0.00.txt");
}

TEST(RunWriter, WritesPopulationCheckpointAndMetadata)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const std::string dir = makeTempDir("gest-out");
    RunWriter writer(dir);

    core::Population pop;
    pop.generation = 4;
    pop.individuals.push_back(makeIndividual(lib, 1, {1.5}, 4));
    pop.individuals.push_back(makeIndividual(lib, 2, {2.5}, 5));
    writeCheckpoint(writer, lib, pop);
    writer.writeRunMetadata("<gest_configuration/>", "tmpl #loop_code");

    // The checkpoint is each individual's only record.
    EXPECT_TRUE(fileExists(dir + "/population_4.pop"));
    EXPECT_FALSE(fileExists(dir + "/4_1_1.50.txt"));
    EXPECT_FALSE(fileExists(dir + "/4_2_2.50.txt"));
    EXPECT_TRUE(fileExists(dir + "/run_configuration.xml"));
    EXPECT_TRUE(fileExists(dir + "/run_template.txt"));

    const core::Population loaded =
        core::loadPopulation(lib, dir + "/population_4.pop");
    EXPECT_EQ(loaded.generation, 4);
    EXPECT_EQ(loaded.individuals.size(), 2u);
    removeAll(dir);
}

TEST(Stats, SummarizeRunAcrossGenerations)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const std::string dir = makeTempDir("gest-out");
    RunWriter writer(dir);

    for (int gen = 0; gen < 3; ++gen) {
        core::Population pop;
        pop.generation = gen;
        pop.individuals.push_back(makeIndividual(
            lib, static_cast<std::uint64_t>(gen * 10 + 1),
            {1.0 + gen}, static_cast<std::uint64_t>(gen + 1)));
        pop.individuals.push_back(makeIndividual(
            lib, static_cast<std::uint64_t>(gen * 10 + 2),
            {0.5 + gen}, static_cast<std::uint64_t>(gen + 50)));
        writeCheckpoint(writer, lib, pop);
    }

    const auto summaries = summarizeRun(lib, dir);
    ASSERT_EQ(summaries.size(), 3u);
    for (int gen = 0; gen < 3; ++gen) {
        EXPECT_EQ(summaries[static_cast<std::size_t>(gen)].generation,
                  gen);
        EXPECT_DOUBLE_EQ(
            summaries[static_cast<std::size_t>(gen)].bestFitness,
            1.0 + gen);
        EXPECT_EQ(summaries[static_cast<std::size_t>(gen)].bestId,
                  static_cast<std::uint64_t>(gen * 10 + 1));
    }

    // Fittest across the run comes from the last generation.
    int best_gen = -1;
    const core::Individual best = fittestInRun(lib, dir, &best_gen);
    EXPECT_EQ(best_gen, 2);
    EXPECT_DOUBLE_EQ(best.fitness, 3.0);

    const std::string table = formatSummaryTable(summaries);
    EXPECT_NE(table.find("best_fitness"), std::string::npos);
    EXPECT_NE(table.find("ShortInt"), std::string::npos);
    removeAll(dir);
}

TEST(Stats, EmptyRunDirectoryIsFatal)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const std::string dir = makeTempDir("gest-out");
    EXPECT_THROW(summarizeRun(lib, dir), FatalError);
    EXPECT_THROW(fittestInRun(lib, dir), FatalError);
    EXPECT_THROW(exportIndividuals(lib, dir, dir + "/out"), FatalError);
    removeAll(dir);
}

TEST(Stats, TornCheckpointErrorNamesItsFileAndLine)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const std::string dir = makeTempDir("gest-out");
    RunWriter writer(dir);
    core::Population pop;
    pop.generation = 3;
    pop.individuals.push_back(makeIndividual(lib, 1, {1.5}, 4));
    pop.individuals.push_back(makeIndividual(lib, 2, {2.5}, 5));
    writeCheckpoint(writer, lib, pop);

    // Cut the checkpoint after its sixth line, mid-individual.
    const std::string path = dir + "/population_3.pop";
    const std::vector<std::string> lines = split(readFile(path), '\n');
    std::string torn;
    for (std::size_t i = 0; i < 6; ++i)
        torn += lines[i] + "\n";
    writeFile(path, torn);

    const std::string expected = path + ":7: unexpected end of file";
    for (const auto& load : std::vector<std::function<void()>>{
             [&] { summarizeRun(lib, dir); },
             [&] { fittestInRun(lib, dir); },
             [&] { core::loadPopulation(lib, path); }}) {
        std::string message;
        try {
            load();
        } catch (const FatalError& err) {
            message = err.what();
        }
        EXPECT_EQ(message, expected);
    }
    removeAll(dir);
}

} // namespace
} // namespace output
} // namespace gest
