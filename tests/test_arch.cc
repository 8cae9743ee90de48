/**
 * @file
 * Unit tests for the CPU simulator substrate: cache, decode, timing.
 */

#include <gtest/gtest.h>

#include "arch/cache.hh"
#include "arch/microop.hh"
#include "arch/simulator.hh"
#include "isa/standard_libs.hh"
#include "util/logging.hh"

namespace gest {
namespace arch {
namespace {

using isa::InstrClass;
using isa::Opcode;

// ---------------------------------------------------------------- Cache

TEST(Cache, HitsAfterFill)
{
    Cache cache({.sets = 4, .ways = 2, .lineBytes = 64, .hitLatency = 3,
                 .missLatency = 50});
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x103f)); // same line
    EXPECT_FALSE(cache.access(0x1040)); // next line
    EXPECT_EQ(cache.accesses(), 4u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_DOUBLE_EQ(cache.hitRate(), 0.5);
}

TEST(Cache, LruEvictsOldest)
{
    // 1 set x 2 ways: three distinct conflicting lines.
    Cache cache({.sets = 1, .ways = 2, .lineBytes = 64, .hitLatency = 1,
                 .missLatency = 10});
    EXPECT_FALSE(cache.access(0x0000)); // A
    EXPECT_FALSE(cache.access(0x1000)); // B
    EXPECT_TRUE(cache.access(0x0000));  // A hits, B is now LRU
    EXPECT_FALSE(cache.access(0x2000)); // C evicts B
    EXPECT_TRUE(cache.access(0x0000));  // A still resident
    EXPECT_FALSE(cache.access(0x1000)); // B was evicted
}

TEST(Cache, RejectsNonPowerOfTwoGeometry)
{
    EXPECT_THROW(Cache({.sets = 3, .ways = 2, .lineBytes = 64,
                        .hitLatency = 1, .missLatency = 10}),
                 FatalError);
    EXPECT_THROW(Cache({.sets = 4, .ways = 2, .lineBytes = 48,
                        .hitLatency = 1, .missLatency = 10}),
                 FatalError);
}

TEST(Cache, CapacityWorkingSetAlwaysHitsAfterWarmup)
{
    Cache cache({.sets = 64, .ways = 4, .lineBytes = 64, .hitLatency = 3,
                 .missLatency = 50});
    // 4 KiB working set in a 16 KiB cache.
    for (int pass = 0; pass < 3; ++pass) {
        for (std::uint64_t addr = 0; addr < 4096; addr += 64)
            cache.access(addr);
    }
    EXPECT_EQ(cache.misses(), 64u); // only cold misses
}

// --------------------------------------------------------------- Decode

TEST(Decode, ThreeOperandArithmetic)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const MicroOp mo =
        decode(lib, lib.makeInstance("ADD", {"x4", "x5", "x6"}));
    EXPECT_EQ(mo.op, Opcode::Add);
    EXPECT_EQ(mo.numDst, 1);
    EXPECT_EQ(mo.dst[0], 4);
    EXPECT_EQ(mo.numSrc, 2);
    EXPECT_EQ(mo.src[0], 5);
    EXPECT_EQ(mo.src[1], 6);
    EXPECT_FALSE(mo.isLoad);
    EXPECT_FALSE(mo.isBranch);
}

TEST(Decode, FmaReadsItsDestination)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const MicroOp mo =
        decode(lib, lib.makeInstance("FMLA", {"v1", "v2", "v3"}));
    EXPECT_EQ(mo.numDst, 1);
    EXPECT_EQ(mo.dst[0], 32 + 1);
    EXPECT_EQ(mo.numSrc, 3);
    EXPECT_EQ(mo.src[2], 32 + 1); // accumulator source
}

TEST(Decode, LoadShape)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const MicroOp mo =
        decode(lib, lib.makeInstance("LDR", {"x2", "x10", "16"}));
    EXPECT_TRUE(mo.isLoad);
    EXPECT_EQ(mo.numDst, 1);
    EXPECT_EQ(mo.dst[0], 2);
    EXPECT_EQ(mo.numSrc, 1);
    EXPECT_EQ(mo.src[0], 10);
    EXPECT_EQ(mo.imm, 16);
    EXPECT_EQ(mo.accessBytes, 8);
}

TEST(Decode, VectorLoadIs16Bytes)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const MicroOp mo =
        decode(lib, lib.makeInstance("LDRQ", {"q3", "x10", "0"}));
    EXPECT_TRUE(mo.isLoad);
    EXPECT_EQ(mo.dst[0], 32 + 3);
    EXPECT_EQ(mo.accessBytes, 16);
}

TEST(Decode, StoreShape)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const MicroOp mo =
        decode(lib, lib.makeInstance("STR", {"x7", "x10", "32"}));
    EXPECT_TRUE(mo.isStore);
    EXPECT_EQ(mo.numDst, 0);
    EXPECT_EQ(mo.numSrc, 2);
    EXPECT_EQ(mo.src[0], 7);  // data
    EXPECT_EQ(mo.src[1], 10); // base
}

TEST(Decode, X86DestructiveForm)
{
    const isa::InstructionLibrary lib = isa::x86LikeLibrary();
    const MicroOp mo =
        decode(lib, lib.makeInstance("ADD", {"rax", "rcx"}));
    EXPECT_EQ(mo.numDst, 1);
    EXPECT_EQ(mo.dst[0], 0);
    EXPECT_EQ(mo.numSrc, 2);
    EXPECT_EQ(mo.src[0], 1); // rcx
    EXPECT_EQ(mo.src[1], 0); // rax reads itself
}

TEST(Decode, BranchAndNopHaveNoRegisters)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const MicroOp br = decode(lib, lib.makeInstance("BNEXT", {}));
    EXPECT_TRUE(br.isBranch);
    EXPECT_EQ(br.numSrc, 0);
    EXPECT_EQ(br.numDst, 0);
    const MicroOp nop = decode(lib, lib.makeInstance("NOP", {}));
    EXPECT_EQ(nop.cls, InstrClass::Nop);
}

// ------------------------------------------------------------ Simulator

std::vector<MicroOp>
decodeNamed(const isa::InstructionLibrary& lib,
            const std::vector<std::pair<const char*,
                                        std::vector<std::string>>>& prog)
{
    std::vector<isa::InstructionInstance> code;
    for (const auto& [name, vals] : prog)
        code.push_back(lib.makeInstance(name, vals));
    return decodeBody(lib, code);
}

CpuConfig
simpleOoo()
{
    CpuConfig cfg = cortexA15Config();
    cfg.takenBranchBubble = 0;
    return cfg;
}

TEST(Simulator, IndependentAddsReachAluThroughput)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    // Six independent adds; 2 ALUs -> at most 2 int ops per cycle.
    const auto body = decodeNamed(lib, {
        {"ADD", {"x4", "x5", "x6"}},
        {"ADD", {"x5", "x6", "x7"}},
        {"ADD", {"x6", "x7", "x8"}},
        {"ADD", {"x7", "x8", "x9"}},
        {"ADD", {"x8", "x9", "x4"}},
        {"ADD", {"x9", "x4", "x5"}},
    });
    LoopSimulator sim(simpleOoo(), InitState{});
    const SimResult result = sim.run(body, 100, 4);
    // 7 ops/iteration (incl. loop branch); ALU caps at 2/cycle -> about
    // 3 cycles per iteration plus fetch limits.
    EXPECT_GT(result.ipc, 1.8);
    EXPECT_LE(result.ipc, 3.0);
}

TEST(Simulator, DependentChainSerializesOnLatency)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    // A strict MUL dependency chain: each MUL (latency 4) feeds the next.
    const auto body = decodeNamed(lib, {
        {"MUL", {"x4", "x4", "x5"}},
        {"MUL", {"x4", "x4", "x5"}},
        {"MUL", {"x4", "x4", "x5"}},
        {"MUL", {"x4", "x4", "x5"}},
    });
    LoopSimulator sim(simpleOoo(), InitState{});
    const SimResult result = sim.run(body, 100, 4);
    // 5 ops per iteration taking >= 16 cycles -> IPC well below 1.
    EXPECT_LT(result.ipc, 0.5);
}

TEST(Simulator, InOrderStallsBlockYoungerOps)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    // A dependent MUL pair followed by independent adds; the chain is
    // not loop-carried, so an OoO core overlaps iterations while an
    // in-order core serializes on the MUL latency every iteration.
    const std::vector<std::pair<const char*, std::vector<std::string>>>
        prog = {
            {"MUL", {"x4", "x5", "x6"}},
            {"MUL", {"x4", "x4", "x5"}},
            {"ADD", {"x6", "x5", "x9"}},
            {"ADD", {"x7", "x5", "x9"}},
            {"ADD", {"x8", "x5", "x9"}},
        };
    const auto body = decodeNamed(lib, prog);

    CpuConfig ooo = cortexA15Config();
    CpuConfig in_order = cortexA15Config();
    in_order.outOfOrder = false;
    in_order.windowSize = 4;

    const SimResult r_ooo =
        LoopSimulator(ooo, InitState{}).run(body, 200, 4);
    const SimResult r_io =
        LoopSimulator(in_order, InitState{}).run(body, 200, 4);
    EXPECT_GT(r_ooo.ipc, r_io.ipc * 1.2);
}

TEST(Simulator, UnpipelinedDividerLimitsThroughput)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto divs = decodeNamed(lib, {
        {"UDIV", {"x4", "x5", "x6"}},
        {"UDIV", {"x5", "x6", "x7"}},
    });
    const auto adds = decodeNamed(lib, {
        {"ADD", {"x4", "x5", "x6"}},
        {"ADD", {"x5", "x6", "x7"}},
    });
    LoopSimulator sim(simpleOoo(), InitState{});
    const SimResult r_div = sim.run(divs, 100, 4);
    const SimResult r_add = sim.run(adds, 100, 4);
    // Independent divides still serialize on the single unpipelined
    // divider (14 cycles each).
    EXPECT_LT(r_div.ipc, 0.3);
    EXPECT_GT(r_add.ipc, 1.0);
}

TEST(Simulator, LoopBranchCountsAsBranchClass)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto body = decodeNamed(lib, {{"ADD", {"x4", "x5", "x6"}}});
    LoopSimulator sim(simpleOoo(), InitState{});
    const SimResult result = sim.run(body, 50, 2);
    // 48 post-warmup iterations, one ADD plus one loop branch each; the
    // measurement boundary lands on a cycle edge, so allow one op of
    // slack on either side.
    EXPECT_NEAR(static_cast<double>(result.classCounts[
                    static_cast<std::size_t>(InstrClass::Branch)]),
                48.0, 1.0);
    EXPECT_NEAR(static_cast<double>(result.classCounts[
                    static_cast<std::size_t>(InstrClass::ShortInt)]),
                48.0, 1.0);
}

TEST(Simulator, TakenBranchBubbleCostsCycles)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    std::vector<std::pair<const char*, std::vector<std::string>>> prog;
    for (int i = 0; i < 8; ++i)
        prog.push_back({"BNEXT", {}});
    const auto body = decodeNamed(lib, prog);

    CpuConfig no_bubble = cortexA15Config();
    no_bubble.takenBranchBubble = 0;
    CpuConfig with_bubble = cortexA15Config();
    with_bubble.takenBranchBubble = 2;

    const SimResult fast =
        LoopSimulator(no_bubble, InitState{}).run(body, 100, 4);
    const SimResult slow =
        LoopSimulator(with_bubble, InitState{}).run(body, 100, 4);
    EXPECT_GT(fast.ipc, slow.ipc * 1.5);
}

TEST(Simulator, LoadsHitInCacheResidentBuffer)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto body = decodeNamed(lib, {
        {"LDR", {"x2", "x10", "0"}},
        {"LDR", {"x3", "x10", "64"}},
        {"LDR", {"x2", "x10", "128"}},
        {"LDR", {"x3", "x10", "192"}},
    });
    LoopSimulator sim(cortexA15Config(), InitState{});
    const SimResult result = sim.run(body, 200, 4);
    // The paper observes extremely high L1 hit rates for these loops.
    EXPECT_GT(result.l1HitRate(), 0.99);
}

TEST(Simulator, CheckerboardInitTogglesMoreThanZeros)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto body = decodeNamed(lib, {
        {"EOR", {"x4", "x5", "x6"}},
        {"ADD", {"x5", "x6", "x7"}},
        {"MUL", {"x6", "x7", "x8"}},
        {"FMUL", {"v0", "v1", "v2"}},
    });
    InitState checker;
    InitState zeros;
    zeros.intPattern = 0;
    zeros.vecPattern = 0;
    zeros.memPattern = 0;

    LoopSimulator sim_c(cortexA15Config(), checker);
    LoopSimulator sim_z(cortexA15Config(), zeros);
    const SimResult r_c = sim_c.run(body, 100, 4);
    const SimResult r_z = sim_z.run(body, 100, 4);
    // §III.B.2: register values have considerable effect; checkerboard
    // maximizes switching.
    EXPECT_GT(r_c.totalToggleBits, r_z.totalToggleBits * 5);
}

TEST(Simulator, MispredictPenaltySlowsConditionalBranches)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    std::vector<std::pair<const char*, std::vector<std::string>>> prog;
    for (int i = 0; i < 4; ++i) {
        prog.push_back({"BNE", {}});
        prog.push_back({"ADD", {"x4", "x5", "x6"}});
    }
    const auto body = decodeNamed(lib, prog);

    CpuConfig never = cortexA15Config();
    never.mispredictEveryN = 0;
    CpuConfig often = cortexA15Config();
    often.mispredictEveryN = 4;

    const SimResult r_never =
        LoopSimulator(never, InitState{}).run(body, 200, 4);
    const SimResult r_often =
        LoopSimulator(often, InitState{}).run(body, 200, 4);
    EXPECT_GT(r_never.ipc, r_often.ipc * 1.1);
    EXPECT_GT(r_often.mispredicts, 0u);
    EXPECT_EQ(r_never.mispredicts, 0u);
}

TEST(Simulator, TraceMatchesAggregateCounts)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto body = decodeNamed(lib, {
        {"ADD", {"x4", "x5", "x6"}},
        {"LDR", {"x2", "x10", "8"}},
        {"FMUL", {"v0", "v1", "v2"}},
    });
    LoopSimulator sim(cortexA15Config(), InitState{});
    const SimResult result = sim.run(body, 64, 4);

    std::uint64_t issued = 0;
    std::uint64_t toggles = 0;
    for (const CycleStats& stats : result.trace) {
        issued += static_cast<std::uint64_t>(stats.totalIssued());
        toggles += stats.toggleBits;
    }
    EXPECT_EQ(issued, result.instructions);
    EXPECT_EQ(toggles, result.totalToggleBits);
    EXPECT_EQ(result.trace.size(), result.cycles);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto body = decodeNamed(lib, {
        {"MUL", {"x4", "x5", "x6"}},
        {"LDR", {"x2", "x10", "16"}},
        {"FMLA", {"v0", "v1", "v2"}},
    });
    LoopSimulator sim(cortexA15Config(), InitState{});
    const SimResult a = sim.run(body, 100, 4);
    const SimResult b = sim.run(body, 100, 4);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.totalToggleBits, b.totalToggleBits);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

TEST(Simulator, RunForCyclesReachesTarget)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto body = decodeNamed(lib, {
        {"ADD", {"x4", "x5", "x6"}},
        {"ADD", {"x5", "x6", "x7"}},
    });
    LoopSimulator sim(cortexA15Config(), InitState{});
    const SimResult result = sim.runForCycles(body, 2048);
    EXPECT_GE(result.cycles, 2048u);
}

TEST(Simulator, EmptyBodyIsFatal)
{
    LoopSimulator sim(cortexA15Config(), InitState{});
    EXPECT_THROW(sim.run({}, 10), FatalError);
    EXPECT_THROW(sim.runForCycles({}, 100), FatalError);
}

TEST(Simulator, RejectsBadInitState)
{
    InitState bad;
    bad.bufferBytes = 1000; // not a power of two
    EXPECT_THROW(LoopSimulator(cortexA15Config(), bad), FatalError);
    InitState bad_reg;
    bad_reg.baseRegister = 40;
    EXPECT_THROW(LoopSimulator(cortexA15Config(), bad_reg), FatalError);
}

TEST(CpuConfig, PresetsValidate)
{
    for (const CpuConfig& cfg :
         {cortexA15Config(), cortexA7Config(), xgene2Config(),
          athlonX4Config()})
        EXPECT_NO_THROW(cfg.validate());
}

TEST(CpuConfig, ValidationCatchesNonsense)
{
    CpuConfig cfg = cortexA15Config();
    cfg.issueWidth = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = cortexA15Config();
    cfg.freqGHz = -1;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = cortexA15Config();
    cfg.fuCount.fill(0);
    EXPECT_THROW(cfg.validate(), FatalError);
}

} // namespace
} // namespace arch
} // namespace gest
