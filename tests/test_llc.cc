/**
 * @file
 * Tests for the LLC/DRAM stress extension (§VII): the two-level cache
 * hierarchy, MSHR-bounded memory-level parallelism, the pointer-advance
 * semantics and the cache-miss measurement.
 */

#include <gtest/gtest.h>

#include "arch/simulator.hh"
#include "core/engine.hh"
#include "measure/sim_measurements.hh"
#include "platform/platform.hh"
#include "util/logging.hh"

namespace gest {
namespace {

using arch::CpuConfig;
using arch::InitState;
using arch::LoopSimulator;
using arch::SimResult;

std::vector<arch::MicroOp>
stridedStream(const isa::InstructionLibrary& lib, int stride)
{
    std::vector<isa::InstructionInstance> code;
    code.push_back(
        lib.makeInstance("ADVANCE", {"x10", std::to_string(stride)}));
    code.push_back(lib.makeInstance("LDR", {"x2", "x10", "0"}));
    code.push_back(lib.makeInstance("LDR", {"x3", "x10", "64"}));
    return arch::decodeBody(lib, code);
}

InitState
bigBuffer()
{
    InitState init;
    init.bufferBytes = 1u << 20;
    return init;
}

TEST(Llc, L1ResidentLoopNeverReachesL2)
{
    const auto lib = isa::armCacheStressLibrary();
    std::vector<isa::InstructionInstance> code = {
        lib.makeInstance("LDR", {"x2", "x10", "0"}),
        lib.makeInstance("LDR", {"x3", "x10", "128"}),
    };
    LoopSimulator sim(arch::xgene2Config(), bigBuffer());
    const SimResult result =
        sim.run(arch::decodeBody(lib, code), 500, 4);
    EXPECT_GT(result.l1HitRate(), 0.99);
    // Only the two cold misses reach L2.
    EXPECT_LE(result.l2Accesses, 2u);
}

TEST(Llc, StridedStreamMissesBothLevels)
{
    const auto lib = isa::armCacheStressLibrary();
    LoopSimulator sim(arch::xgene2Config(), bigBuffer());
    const SimResult result =
        sim.run(stridedStream(lib, 4032), 2000, 8);
    // Every access lands on a fresh line of a 1 MiB footprint: the
    // 32 KiB L1 and 256 KiB L2 both thrash.
    EXPECT_LT(result.l1HitRate(), 0.7);
    EXPECT_LT(result.l2HitRate(), 0.4);
    EXPECT_GT(result.dramPerKiloInstr(), 100.0);
}

TEST(Llc, SmallStrideStaysWithinLines)
{
    // A 64-byte stride with two loads per iteration touches each line
    // twice: about half the accesses hit.
    const auto lib = isa::armCacheStressLibrary();
    LoopSimulator sim(arch::xgene2Config(), bigBuffer());
    const SimResult fine = sim.run(stridedStream(lib, 64), 2000, 8);
    const SimResult coarse =
        sim.run(stridedStream(lib, 4032), 2000, 8);
    EXPECT_GT(fine.l1HitRate(), coarse.l1HitRate());
    EXPECT_LT(fine.dramPerKiloInstr(), coarse.dramPerKiloInstr());
}

TEST(Llc, AddWrapKeepsPointerInsideBuffer)
{
    // After thousands of advances the address still maps into the
    // buffer: the simulation would otherwise panic or alias wrongly.
    const auto lib = isa::armCacheStressLibrary();
    LoopSimulator sim(arch::xgene2Config(), bigBuffer());
    const SimResult result =
        sim.run(stridedStream(lib, 4032), 5000, 8);
    EXPECT_GT(result.instructions, 0u);
    // The stream wraps the 1 MiB buffer many times: reuse across wraps
    // is possible only because the pointer wrapped correctly.
    EXPECT_GT(result.cacheAccesses, 9000u);
}

TEST(Llc, MshrsBoundMemoryLevelParallelism)
{
    const auto lib = isa::armCacheStressLibrary();
    CpuConfig wide = arch::xgene2Config();
    wide.mshrs = 16;
    CpuConfig narrow = arch::xgene2Config();
    narrow.mshrs = 1;

    const SimResult many =
        LoopSimulator(wide, bigBuffer()).run(stridedStream(lib, 4032),
                                             1500, 8);
    const SimResult few =
        LoopSimulator(narrow, bigBuffer()).run(stridedStream(lib, 4032),
                                               1500, 8);
    // One outstanding miss serializes on DRAM latency.
    EXPECT_GT(many.ipc, few.ipc * 1.5);
}

TEST(Llc, MispredictFreeForwardProgressWithBlockedMshrs)
{
    // Even with a single MSHR and an in-order core the simulation makes
    // forward progress (the MSHR frees after the DRAM latency).
    const auto lib = isa::armCacheStressLibrary();
    CpuConfig cfg = arch::xgene2Config();
    cfg.mshrs = 1;
    cfg.outOfOrder = false;
    cfg.windowSize = 4;
    LoopSimulator sim(cfg, bigBuffer());
    const SimResult result =
        sim.run(stridedStream(lib, 1024), 300, 4);
    EXPECT_GT(result.instructions, 0u);
    EXPECT_GT(result.ipc, 0.0);
}

TEST(Llc, L2LinesSmallerThanL1LinesAreRejected)
{
    // The simulator's absent-line memo needs each L1 line inside one L2
    // line.
    const auto lib = isa::armCacheStressLibrary();
    CpuConfig cfg = arch::xgene2Config();
    cfg.l2.lineBytes = 32;
    LoopSimulator sim(cfg, bigBuffer());
    EXPECT_THROW(sim.run(stridedStream(lib, 4032), 10, 2), FatalError);
}

TEST(Llc, FillsCountExactlyEachSetsMisses)
{
    arch::Cache cache({.sets = 4, .ways = 2, .lineBytes = 64});
    auto fills = [&cache] {
        std::vector<std::uint32_t> out;
        for (int set = 0; set < 4; ++set)
            out.push_back(cache.fills(set));
        return out;
    };
    using Counts = std::vector<std::uint32_t>;
    EXPECT_EQ(cache.setOf(0), 0);
    EXPECT_EQ(cache.setOf(63), 0);
    EXPECT_EQ(cache.setOf(64), 1);
    EXPECT_EQ(cache.setOf(256), 0);
    EXPECT_EQ(fills(), (Counts{0, 0, 0, 0}));

    EXPECT_FALSE(cache.access(0));
    EXPECT_EQ(fills(), (Counts{1, 0, 0, 0}));
    // Hits and probes fill nothing.
    EXPECT_TRUE(cache.access(8));
    EXPECT_FALSE(cache.probe(256));
    EXPECT_TRUE(cache.probe(0));
    EXPECT_EQ(fills(), (Counts{1, 0, 0, 0}));

    // Misses count in their own set only, evictions included.
    EXPECT_FALSE(cache.access(256));
    EXPECT_FALSE(cache.access(512));
    EXPECT_FALSE(cache.access(64 * 3));
    EXPECT_EQ(fills(), (Counts{3, 0, 0, 1}));
    EXPECT_FALSE(cache.access(0)); // evicted by 512
    EXPECT_EQ(fills(), (Counts{4, 0, 0, 1}));
    EXPECT_EQ(cache.misses(), 5u);

    EXPECT_FALSE(cache.access(64));
    EXPECT_EQ(fills(), (Counts{4, 1, 0, 1}));
    // reset() zeroes them.
    cache.reset();
    EXPECT_EQ(fills(), (Counts{0, 0, 0, 0}));
    EXPECT_FALSE(cache.access(0));
    EXPECT_EQ(fills(), (Counts{1, 0, 0, 0}));
}

TEST(Llc, CacheStressLibraryShape)
{
    const auto lib = isa::armCacheStressLibrary();
    EXPECT_GE(lib.findInstruction("ADVANCE"), 0);
    EXPECT_GE(lib.findInstruction("LDR"), 0);
    const int adv = lib.findInstruction("ADVANCE");
    EXPECT_EQ(lib.instruction(static_cast<std::size_t>(adv)).opcode,
              isa::Opcode::AddWrap);
    // Strides stay within the AArch64 ADD immediate limit.
    const int op_index = lib.findOperand("stride_value");
    ASSERT_GE(op_index, 0);
    const isa::OperandDef& stride =
        lib.operand(static_cast<std::size_t>(op_index));
    EXPECT_LE(stride.immMax(), 4095);
    EXPECT_GE(stride.immMin(), 64);
}

TEST(Llc, AdvanceDecodesAsReadModifyWrite)
{
    const auto lib = isa::armCacheStressLibrary();
    const arch::MicroOp mo = arch::decode(
        lib, lib.makeInstance("ADVANCE", {"x10", "512"}));
    EXPECT_EQ(mo.op, isa::Opcode::AddWrap);
    EXPECT_EQ(mo.numDst, 1);
    EXPECT_EQ(mo.dst[0], 10);
    ASSERT_EQ(mo.numSrc, 1);
    EXPECT_EQ(mo.src[0], 10); // reads itself
    EXPECT_EQ(mo.imm, 512);
}

TEST(Llc, PlatformPresetHasL2AndBigBuffer)
{
    const auto plat = platform::xgene2LlcPlatform();
    EXPECT_TRUE(plat->cpu().hasL2);
    EXPECT_EQ(plat->initState().bufferBytes, 1u << 20);
    EXPECT_GE(plat->library().findInstruction("ADVANCE"), 0);
    // Reachable through the registry too.
    EXPECT_EQ(platform::Platform::byName("xgene2-llc")->name(),
              "xgene2-llc");
}

TEST(Llc, CacheMissMeasurementValues)
{
    const auto plat = platform::xgene2LlcPlatform();
    const auto& lib = plat->library();
    measure::SimCacheMissMeasurement meas(lib, plat);

    const std::vector<isa::InstructionInstance> code = {
        lib.makeInstance("ADVANCE", {"x10", "4032"}),
        lib.makeInstance("LDR", {"x2", "x10", "0"}),
    };
    const measure::MeasurementResult result = meas.measure(code);
    ASSERT_EQ(result.values.size(), meas.valueNames().size());
    EXPECT_GT(result.values[0], 50.0);  // DRAM/kinstr
    EXPECT_GT(result.values[1], 0.3);   // L1 miss rate
    EXPECT_GT(result.values[4], 0.0);   // power
}

TEST(Llc, CacheMissMeasurementNeedsL2)
{
    // The A15 model has no L2: the measurement must refuse.
    const auto a15 = platform::cortexA15Platform();
    measure::SimCacheMissMeasurement meas(a15->library(), a15);
    const std::vector<isa::InstructionInstance> code = {
        a15->library().makeInstance("LDR", {"x2", "x10", "0"})};
    EXPECT_THROW(meas.measure(code), FatalError);
}

TEST(Llc, GaDiscoversDramTraffic)
{
    const auto plat = platform::xgene2LlcPlatform();
    const auto& lib = plat->library();
    measure::SimCacheMissMeasurement meas(lib, plat);
    fitness::DefaultFitness fit;

    core::GaParams params;
    params.populationSize = 16;
    params.individualSize = 16;
    params.mutationRate = core::GaParams::mutationRateForSize(16);
    params.generations = 12;
    params.seed = 55;

    core::Engine engine(params, lib, meas, fit);
    engine.run();
    // The GA must discover strided pointer advances: well above any
    // L1-resident loop's DRAM traffic.
    EXPECT_GT(engine.bestEver().fitness, 50.0);
    EXPECT_GT(engine.history().back().bestFitness,
              engine.history().front().bestFitness * 0.99);
}

} // namespace
} // namespace gest
