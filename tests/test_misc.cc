/**
 * @file
 * Edge-case coverage across modules: mutation-operator extremes,
 * numeric boundaries, empty inputs, registry consistency.
 */

#include <gtest/gtest.h>

#include "arch/simulator.hh"
#include "config/config.hh"
#include "core/operators.hh"
#include "measure/sim_measurements.hh"
#include "output/stats.hh"
#include "pdn/spectrum.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"

namespace gest {
namespace {

TEST(Operators, OperandOnlyMutationNeverChangesOpcodes)
{
    // operandMutationProb = 1: mutations rewrite operands of genes that
    // have operands, never the instruction identity. (Operand-less
    // genes like NOP fall back to whole-instruction replacement, so
    // use an operand-carrying gene here.)
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    core::GaParams params;
    params.mutationRate = 1.0;
    params.operandMutationProb = 1.0;
    Rng rng(3);

    const std::size_t ldr_index =
        static_cast<std::size_t>(lib.findInstruction("LDR"));
    core::Individual ind;
    for (int i = 0; i < 30; ++i)
        ind.code.push_back(lib.randomInstanceOf(ldr_index, rng));

    core::mutate(ind, lib, params, rng);
    for (const auto& inst : ind.code)
        EXPECT_EQ(inst.defIndex, static_cast<std::uint32_t>(ldr_index));
}

TEST(Operators, WholeInstructionMutationChangesMostOpcodes)
{
    // operandMutationProb = 0: every mutation replaces the whole
    // instruction; over a rich alphabet most defIndexes change.
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    core::GaParams params;
    params.mutationRate = 1.0;
    params.operandMutationProb = 0.0;
    Rng rng(4);

    core::Individual ind;
    const std::size_t add_index = static_cast<std::size_t>(
        lib.findInstruction("ADD"));
    for (int i = 0; i < 40; ++i)
        ind.code.push_back(lib.randomInstanceOf(add_index, rng));

    core::mutate(ind, lib, params, rng);
    int changed = 0;
    for (const auto& inst : ind.code)
        changed += inst.defIndex != add_index;
    EXPECT_GT(changed, 25);
}

TEST(GaParams, DidtLoopLengthClampsToMinimum)
{
    // Absurdly high resonance frequency: the rule clamps at 2.
    EXPECT_EQ(core::GaParams::didtLoopLength(0.5, 0.001, 1e9), 2);
}

TEST(Xml, NumericCharacterReferenceBoundaries)
{
    EXPECT_EQ(xml::parse("<t>&#65;&#x41;</t>").root().text(), "AA");
    EXPECT_EQ(xml::parse("<t>&#127;</t>").root().text(),
              std::string(1, static_cast<char>(127)));
    EXPECT_THROW(xml::parse("<t>&#0;</t>"), FatalError);
    EXPECT_THROW(xml::parse("<t>&#200;</t>"), FatalError);
}

TEST(Xml, DeeplyNestedDocumentParses)
{
    std::string text;
    const int depth = 200;
    for (int i = 0; i < depth; ++i)
        text += "<n>";
    for (int i = 0; i < depth; ++i)
        text += "</n>";
    const xml::Document doc = xml::parse(text);
    const xml::Element* node = &doc.root();
    int counted = 1;
    while (!node->children().empty()) {
        node = node->children().front().get();
        ++counted;
    }
    EXPECT_EQ(counted, depth);
}

TEST(Stats, EmptySummaryTableHasHeaderOnly)
{
    const std::string table = output::formatSummaryTable({});
    EXPECT_NE(table.find("best_fitness"), std::string::npos);
    EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 1);
}

TEST(Fitness, WeightedSumInitWithoutConfigKeepsDefault)
{
    fitness::WeightedSumFitness fit;
    fit.init(nullptr);
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    core::Individual ind;
    ind.measurements = {7.5};
    ind.code.push_back(lib.makeInstance("NOP", {}));
    EXPECT_DOUBLE_EQ(fit.getFitness(ind, lib), 7.5);
}

TEST(Measure, EveryRegisteredMeasurementHasConsistentNames)
{
    config::registerBuiltins();
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    for (const std::string& name :
         measure::MeasurementRegistry::instance().names()) {
        const auto meas =
            measure::MeasurementRegistry::instance().create(name, lib);
        EXPECT_FALSE(meas->valueNames().empty()) << name;
        EXPECT_FALSE(meas->name().empty()) << name;
    }
}

TEST(Simulator, AddWrapWorksWithoutL2)
{
    // The wraparound advance is usable on L1-only platforms too: the
    // pointer still stays inside the buffer.
    const isa::InstructionLibrary lib = isa::armCacheStressLibrary();
    const std::vector<isa::InstructionInstance> code = {
        lib.makeInstance("ADVANCE", {"x10", "4032"}),
        lib.makeInstance("LDR", {"x2", "x10", "0"}),
    };
    arch::InitState init;
    init.bufferBytes = 1u << 16; // 64 KiB, bigger than the A15 L1
    arch::LoopSimulator sim(arch::cortexA15Config(), init);
    const arch::SimResult result =
        sim.run(arch::decodeBody(lib, code), 2000, 8);
    // Without an L2, every L1 miss pays the flat miss latency and the
    // counters stay consistent.
    EXPECT_EQ(result.l2Accesses, 0u);
    EXPECT_LT(result.l1HitRate(), 0.5);
    EXPECT_GT(result.ipc, 0.0);
}

TEST(Simulator, WarmupLongerThanRunIsClamped)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto body = arch::decodeBody(
        lib, {lib.makeInstance("ADD", {"x4", "x5", "x6"})});
    arch::LoopSimulator sim(arch::cortexA15Config(), arch::InitState{});
    // warmup >= iterations must still measure something.
    const arch::SimResult result = sim.run(body, 3, 10);
    EXPECT_GT(result.instructions, 0u);
    EXPECT_GT(result.cycles, 0u);
}

TEST(Spectrum, ShortTraceStillSane)
{
    const std::vector<double> tiny{1.0, 2.0, 1.0, 2.0};
    const double amp = pdn::toneAmplitude(tiny, 4.0, 1.0);
    EXPECT_GE(amp, 0.0);
    EXPECT_LT(amp, 2.0);
}

TEST(Config, GaStagnationLimitFromXml)
{
    const config::RunConfig cfg = config::parseConfig(R"(
<gest_configuration>
  <ga stagnation_limit="7"/>
  <library name="arm"/>
</gest_configuration>
)");
    EXPECT_EQ(cfg.ga.stagnationLimit, 7);
    EXPECT_THROW(config::parseConfig(R"(
<gest_configuration>
  <ga stagnation_limit="-2"/>
  <library name="arm"/>
</gest_configuration>
)"),
                 FatalError);
}

TEST(Config, Armv7AndCacheStressBundledLibraries)
{
    const config::RunConfig v7 = config::parseConfig(
        "<gest_configuration><library name=\"armv7\"/>"
        "</gest_configuration>");
    EXPECT_GE(v7.library.findInstruction("VMLAQ"), 0);

    const config::RunConfig cs = config::parseConfig(
        "<gest_configuration><library name=\"cache-stress\"/>"
        "</gest_configuration>");
    EXPECT_GE(cs.library.findInstruction("ADVANCE"), 0);
}

} // namespace
} // namespace gest
