/**
 * @file
 * Unit tests for the output layer: run directories, file naming,
 * statistics post-processing.
 */

#include <gtest/gtest.h>

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

TEST(RunWriter, FileNameMatchesPaperConvention)
{
    // §III.D: individual 10 of population 1 with measurements 1.30 and
    // 1.33 is saved as 1_10_1.30_1.33.txt.
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const std::string dir = makeTempDir("gest-out");
    RunWriter writer(dir, lib);
    const core::Individual ind =
        makeIndividual(lib, 10, {1.30, 1.33}, 1);
    EXPECT_EQ(writer.individualFileName(1, ind), "1_10_1.30_1.33.txt");
    removeAll(dir);
}

TEST(RunWriter, WritesIndividualSource)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const std::string dir = makeTempDir("gest-out");
    RunWriter writer(dir, lib);
    const core::Individual ind = makeIndividual(lib, 3, {2.5}, 2);
    writer.writeIndividual(0, ind);

    const std::string contents = readFile(dir + "/0_3_2.50.txt");
    // One line per instruction, rendered through the library.
    const auto lines = core::renderLines(lib, ind);
    for (const std::string& line : lines)
        EXPECT_NE(contents.find(line), std::string::npos);
    removeAll(dir);
}

TEST(RunWriter, RendersThroughTemplateWhenGiven)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const isa::AsmTemplate tmpl("prologue\n#loop_code\nepilogue\n");
    const std::string dir = makeTempDir("gest-out");
    RunWriter writer(dir, lib, &tmpl);
    const core::Individual ind = makeIndividual(lib, 1, {1.0}, 3);
    writer.writeIndividual(2, ind);
    const std::string contents = readFile(dir + "/2_1_1.00.txt");
    EXPECT_TRUE(startsWith(contents, "prologue\n"));
    EXPECT_NE(contents.find("epilogue"), std::string::npos);
    removeAll(dir);
}

TEST(RunWriter, WritesPopulationCheckpointAndMetadata)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const std::string dir = makeTempDir("gest-out");
    RunWriter writer(dir, lib);

    core::Population pop;
    pop.generation = 4;
    pop.individuals.push_back(makeIndividual(lib, 1, {1.5}, 4));
    pop.individuals.push_back(makeIndividual(lib, 2, {2.5}, 5));
    writer.writePopulation(pop);
    writer.writeRunMetadata("<gest_configuration/>", "tmpl #loop_code");

    EXPECT_TRUE(fileExists(dir + "/population_4.pop"));
    EXPECT_TRUE(fileExists(dir + "/4_1_1.50.txt"));
    EXPECT_TRUE(fileExists(dir + "/4_2_2.50.txt"));
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
    RunWriter writer(dir, lib);

    for (int gen = 0; gen < 3; ++gen) {
        core::Population pop;
        pop.generation = gen;
        pop.individuals.push_back(makeIndividual(
            lib, static_cast<std::uint64_t>(gen * 10 + 1),
            {1.0 + gen}, static_cast<std::uint64_t>(gen + 1)));
        pop.individuals.push_back(makeIndividual(
            lib, static_cast<std::uint64_t>(gen * 10 + 2),
            {0.5 + gen}, static_cast<std::uint64_t>(gen + 50)));
        writer.writePopulation(pop);
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
    removeAll(dir);
}

} // namespace
} // namespace output
} // namespace gest
