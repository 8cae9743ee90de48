/**
 * @file
 * Unit and integration tests for the configuration loader and the
 * configured-run orchestrator.
 */

#include <gtest/gtest.h>

#include "config/config.hh"
#include "output/stats.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"

namespace gest {
namespace config {
namespace {

const char* kMinimalConfig = R"(
<gest_configuration>
  <ga population_size="10" individual_size="8" mutation_rate="0.1"
      generations="4" seed="3"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a7" min_cycles="1024"/>
  </measurement>
  <fitness class="DefaultFitness"/>
</gest_configuration>
)";

TEST(Config, ParsesGaParametersFromTableOne)
{
    const RunConfig cfg = parseConfig(R"(
<gest_configuration>
  <ga population_size="50" individual_size="50" mutation_rate="0.02"
      operand_mutation_prob="0.4" crossover_operator="one_point"
      parent_selection_method="tournament" tournament_size="5"
      elitism="true" generations="100" seed="42"/>
  <library name="arm"/>
</gest_configuration>
)");
    EXPECT_EQ(cfg.ga.populationSize, 50);
    EXPECT_EQ(cfg.ga.individualSize, 50);
    EXPECT_DOUBLE_EQ(cfg.ga.mutationRate, 0.02);
    EXPECT_DOUBLE_EQ(cfg.ga.operandMutationProb, 0.4);
    EXPECT_EQ(cfg.ga.crossover, core::CrossoverOperator::OnePoint);
    EXPECT_EQ(cfg.ga.selection, core::SelectionMethod::Tournament);
    EXPECT_EQ(cfg.ga.tournamentSize, 5);
    EXPECT_TRUE(cfg.ga.elitism);
    EXPECT_EQ(cfg.ga.generations, 100);
    EXPECT_EQ(cfg.ga.seed, 42u);
}

TEST(Config, LoadsBundledLibraries)
{
    const RunConfig arm = parseConfig(
        "<gest_configuration><library name=\"arm\"/>"
        "</gest_configuration>");
    EXPECT_GE(arm.library.findInstruction("FMLA"), 0);

    const RunConfig x86 = parseConfig(
        "<gest_configuration><library name=\"x86\"/>"
        "</gest_configuration>");
    EXPECT_GE(x86.library.findInstruction("MULPD"), 0);

    EXPECT_THROW(
        parseConfig("<gest_configuration><library name=\"mips\"/>"
                    "</gest_configuration>"),
        FatalError);
}

TEST(Config, ParsesFigure4StyleDefinitions)
{
    const RunConfig cfg = parseConfig(R"(
<gest_configuration>
  <operands>
    <operand id="mem_result" values="x2 x3 x4" type="register"/>
    <operand id="mem_address_register" values="x10" type="register"/>
    <operand id="immediate_value" min="0" max="256" stride="8"
             type="immediate"/>
  </operands>
  <instructions>
    <instruction name="LDR" num_of_operands="3" operand1="mem_result"
        operand2="mem_address_register" operand3="immediate_value"
        format="LDR op1,[op2,#op3]" type="mem"/>
  </instructions>
</gest_configuration>
)");
    ASSERT_EQ(cfg.library.numInstructions(), 1u);
    EXPECT_EQ(cfg.library.variantCount(0), 99u); // the paper's number
    EXPECT_EQ(cfg.library.instruction(0).cls, isa::InstrClass::Mem);
    EXPECT_EQ(cfg.library.instruction(0).opcode, isa::Opcode::Load);
}

TEST(Config, UndefinedOperandIdTerminates)
{
    EXPECT_THROW(parseConfig(R"(
<gest_configuration>
  <instructions>
    <instruction name="LDR" operand1="nonexistent"
        format="LDR op1" type="mem"/>
  </instructions>
</gest_configuration>
)"),
                 FatalError);
}

TEST(Config, OperandCountMismatchIsFatal)
{
    EXPECT_THROW(parseConfig(R"(
<gest_configuration>
  <operands>
    <operand id="r" values="x1" type="register"/>
  </operands>
  <instructions>
    <instruction name="ADD" num_of_operands="3" operand1="r"
        operand2="r" format="ADD op1, op2" type="int"/>
  </instructions>
</gest_configuration>
)"),
                 FatalError);
}

TEST(Config, SemanticAttributeOverridesName)
{
    const RunConfig cfg = parseConfig(R"(
<gest_configuration>
  <operands>
    <operand id="v" values="v0 v1" type="register"/>
  </operands>
  <instructions>
    <instruction name="MYSTERY" semantic="fmul" operand1="v"
        operand2="v" operand3="v" format="FMUL op1, op2, op3"
        type="float"/>
  </instructions>
</gest_configuration>
)");
    EXPECT_EQ(cfg.library.instruction(0).opcode, isa::Opcode::FMul);
}

TEST(Config, UnresolvableSemanticIsFatal)
{
    EXPECT_THROW(parseConfig(R"(
<gest_configuration>
  <operands><operand id="v" values="v0" type="register"/></operands>
  <instructions>
    <instruction name="WIBBLE" operand1="v" format="WOBBLE op1"
        type="int"/>
  </instructions>
</gest_configuration>
)"),
                 FatalError);
}

TEST(Config, RejectsForeignRootAndEmptyLibrary)
{
    EXPECT_THROW(parseConfig("<not_gest/>"), FatalError);
    EXPECT_THROW(parseConfig("<gest_configuration/>"), FatalError);
}

TEST(Config, MeasurementAndFitnessSelection)
{
    const RunConfig cfg = parseConfig(kMinimalConfig);
    EXPECT_EQ(cfg.measurementClass, "SimPowerMeasurement");
    EXPECT_EQ(cfg.fitnessClass, "DefaultFitness");
    ASSERT_NE(cfg.measurementConfig, nullptr);
    EXPECT_EQ(cfg.measurementConfig->attr("platform"), "cortex-a7");
}

TEST(Config, ExternalMeasurementConfigFile)
{
    const std::string dir = makeTempDir("gest-cfg");
    writeFile(dir + "/meas.xml",
              "<config platform=\"cortex-a15\" min_cycles=\"2048\"/>");
    writeFile(dir + "/main.xml", R"(
<gest_configuration>
  <ga population_size="4" individual_size="4" generations="2"
      tournament_size="2"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement" config="meas.xml"/>
</gest_configuration>
)");
    const RunConfig cfg = loadConfig(dir + "/main.xml");
    ASSERT_NE(cfg.measurementConfig, nullptr);
    EXPECT_EQ(cfg.measurementConfig->attr("platform"), "cortex-a15");
    removeAll(dir);
}

TEST(Config, TemplateInlineAndFromFile)
{
    const std::string dir = makeTempDir("gest-cfg");
    writeFile(dir + "/t.s", "head\n#loop_code\ntail\n");
    writeFile(dir + "/main.xml", R"(
<gest_configuration>
  <library name="arm"/>
  <template file="t.s"/>
</gest_configuration>
)");
    const RunConfig cfg = loadConfig(dir + "/main.xml");
    ASSERT_TRUE(cfg.asmTemplate.has_value());
    EXPECT_EQ(cfg.asmTemplate->render({"X"}), "head\nX\ntail\n");
    removeAll(dir);
}

TEST(RunFromConfig, EndToEndWithOutputDirectory)
{
    const std::string dir = makeTempDir("gest-run");
    RunConfig cfg = parseConfig(kMinimalConfig);
    cfg.outputDirectory = dir + "/out";

    const RunResult result = runFromConfig(cfg);
    EXPECT_EQ(result.history.back().generation, 3);
    EXPECT_EQ(result.history.size(), 4u);
    EXPECT_GT(result.best.fitness, 0.0);
    EXPECT_EQ(result.evaluations, 10u + 3u * 9u);

    // Artifacts: populations 0..3, the configuration, individuals.
    for (int gen = 0; gen < 4; ++gen)
        EXPECT_TRUE(fileExists(dir + "/out/population_" +
                               std::to_string(gen) + ".pop"));
    EXPECT_TRUE(fileExists(dir + "/out/run_configuration.xml"));

    // Post-processing over the run directory agrees with the result.
    const auto summaries = output::summarizeRun(cfg.library, dir + "/out");
    ASSERT_EQ(summaries.size(), 4u);
    EXPECT_DOUBLE_EQ(summaries.back().bestFitness,
                     result.history.back().bestFitness);
    const core::Individual fittest =
        output::fittestInRun(cfg.library, dir + "/out");
    EXPECT_DOUBLE_EQ(fittest.fitness, result.best.fitness);
    removeAll(dir);
}

TEST(RunFromConfig, SeedPopulationFromPreviousRun)
{
    const std::string dir = makeTempDir("gest-run");
    RunConfig cfg = parseConfig(kMinimalConfig);
    cfg.outputDirectory = dir + "/first";
    const RunResult first = runFromConfig(cfg);

    RunConfig resumed = parseConfig(kMinimalConfig);
    resumed.seedPopulationPath = dir + "/first/population_3.pop";
    const RunResult second = runFromConfig(resumed);
    EXPECT_GE(second.best.fitness, first.best.fitness * 0.999);
    removeAll(dir);
}

TEST(RunFromConfig, UnknownClassesAreFatal)
{
    RunConfig cfg = parseConfig(kMinimalConfig);
    cfg.measurementClass = "NoSuchMeasurement";
    EXPECT_THROW(runFromConfig(cfg), FatalError);

    RunConfig cfg2 = parseConfig(kMinimalConfig);
    cfg2.fitnessClass = "NoSuchFitness";
    EXPECT_THROW(runFromConfig(cfg2), FatalError);
}

TEST(RunFromConfig, DeterministicAcrossInvocations)
{
    const RunConfig cfg = parseConfig(kMinimalConfig);
    const RunResult a = runFromConfig(cfg);
    const RunResult b = runFromConfig(cfg);
    EXPECT_DOUBLE_EQ(a.best.fitness, b.best.fitness);
    EXPECT_EQ(a.best.code, b.best.code);
}

} // namespace
} // namespace config
} // namespace gest
