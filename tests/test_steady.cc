/**
 * @file
 * Property tests for the steady-state fast path: the timing-recurrence
 * detector, counter tiling and the functional pass over the skipped
 * periods must be *bit-identical* to full simulation — same
 * Evaluation, same trace rows, same GA run artifacts — on every
 * shipped platform, for random, evolved and degenerate bodies, with
 * and without a signal probe attached.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "config/config.hh"
#include "core/population.hh"
#include "isa/standard_libs.hh"
#include "platform/platform.hh"
#include "signal/signal_probe.hh"
#include "util/fileutil.hh"
#include "util/random.hh"
#include "util/strutil.hh"

namespace gest {
namespace {

std::vector<isa::InstructionInstance>
randomBody(const isa::InstructionLibrary& lib, int size,
           std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<isa::InstructionInstance> code;
    for (int i = 0; i < size; ++i)
        code.push_back(lib.randomInstance(rng));
    return code;
}

/** Bitwise double equality (stricter than ==: distinguishes ±0). */
::testing::AssertionResult
bitsEqual(const char* a_expr, const char* b_expr, double a, double b)
{
    if (std::memcmp(&a, &b, sizeof a) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a_expr << " (" << a << ") and " << b_expr << " (" << b
           << ") differ bitwise";
}

#define EXPECT_BITEQ(a, b) EXPECT_PRED_FORMAT2(bitsEqual, a, b)

/** Expand a possibly-tiled trace into full virtual per-cycle rows. */
std::vector<arch::CycleStats>
expanded(const arch::SimResult& sim)
{
    arch::SimResult copy = sim;
    arch::materializeTrace(copy);
    return copy.trace;
}

/**
 * Every SimResult scalar but simulatedCycles, skippedCycles and the
 * tiling, and every expanded trace row, of @p fast (steady on) must
 * equal @p full (steady off) exactly.
 */
void
expectSimIdentical(const arch::SimResult& fast, const arch::SimResult& full)
{
    EXPECT_EQ(fast.cycles, full.cycles);
    EXPECT_EQ(fast.instructions, full.instructions);
    EXPECT_EQ(fast.iterations, full.iterations);
    EXPECT_BITEQ(fast.ipc, full.ipc);
    EXPECT_EQ(fast.classCounts, full.classCounts);
    EXPECT_EQ(fast.cacheAccesses, full.cacheAccesses);
    EXPECT_EQ(fast.cacheMisses, full.cacheMisses);
    EXPECT_EQ(fast.l2Accesses, full.l2Accesses);
    EXPECT_EQ(fast.l2Misses, full.l2Misses);
    EXPECT_EQ(fast.mispredicts, full.mispredicts);
    EXPECT_EQ(fast.totalToggleBits, full.totalToggleBits);
    EXPECT_BITEQ(fast.avgWindowOccupancy, full.avgWindowOccupancy);

    const std::vector<arch::CycleStats> fast_rows = expanded(fast);
    const std::vector<arch::CycleStats> full_rows = expanded(full);
    ASSERT_EQ(fast_rows.size(), full_rows.size());
    for (std::size_t i = 0; i < fast_rows.size(); ++i) {
        if (std::memcmp(&fast_rows[i], &full_rows[i],
                        sizeof(arch::CycleStats)) != 0) {
            ADD_FAILURE() << "trace row " << i << " of "
                          << fast_rows.size() << " differs (toggles "
                          << fast_rows[i].toggleBits << " vs "
                          << full_rows[i].toggleBits << ", tiling "
                          << "prefix " << fast.tiling.prefix
                          << " period " << fast.tiling.period
                          << " repeats " << fast.tiling.repeats
                          << " tail " << fast.tiling.tail << ")";
            return;
        }
    }
}

/**
 * The whole contract in one place: expectSimIdentical() plus every
 * Evaluation scalar.
 */
void
expectBitIdentical(const platform::Evaluation& fast,
                   const platform::Evaluation& full,
                   const std::string& what)
{
    SCOPED_TRACE(what);
    expectSimIdentical(fast.sim, full.sim);
    EXPECT_BITEQ(fast.ipc, full.ipc);
    EXPECT_BITEQ(fast.corePowerWatts, full.corePowerWatts);
    EXPECT_BITEQ(fast.chipPowerWatts, full.chipPowerWatts);
    EXPECT_BITEQ(fast.dieTempC, full.dieTempC);
    EXPECT_EQ(fast.hasVoltage, full.hasVoltage);
    EXPECT_BITEQ(fast.vMin, full.vMin);
    EXPECT_BITEQ(fast.vMax, full.vMax);
    EXPECT_BITEQ(fast.peakToPeakV, full.peakToPeakV);
}

/**
 * Evaluate @p code from @p lib both ways and assert exact agreement;
 * @return whether the steady-on evaluation hit.
 */
bool
checkParity(const platform::Platform& plat,
            const isa::InstructionLibrary& lib,
            const std::vector<isa::InstructionInstance>& code,
            const std::string& what, std::uint64_t min_cycles = 4096)
{
    const bool want_voltage = plat.pdnModel() != nullptr;

    platform::EvalScratch scratch;
    platform::Evaluation fast, full;

    scratch.steadyState = true;
    plat.evaluateInto(code, lib, want_voltage, min_cycles, nullptr,
                      scratch, fast);
    scratch.steadyState = false;
    plat.evaluateInto(code, lib, want_voltage, min_cycles, nullptr,
                      scratch, full);

    EXPECT_EQ(full.sim.simulatedCycles, full.sim.cycles);
    EXPECT_FALSE(full.sim.steadyHit());
    expectBitIdentical(fast, full, what);
    return fast.sim.steadyHit();
}

/** checkParity() against the platform's own library. */
bool
checkParity(const platform::Platform& plat,
            const std::vector<isa::InstructionInstance>& code,
            const std::string& what, std::uint64_t min_cycles = 4096)
{
    return checkParity(plat, plat.library(), code, what, min_cycles);
}

// ------------------------------------------------ randomized parity

/**
 * The cycle horizon each platform's shipped config measures over:
 * athlon_didt's voltage-noise measurement uses 8192 cycles and
 * xgene2_llc_stress's cache measurement 16384.
 */
std::uint64_t
shippedHorizon(const std::string& platform_name)
{
    return platform_name == "athlon-x4"    ? 8192
           : platform_name == "xgene2-llc" ? 16384
                                           : 4096;
}

class SteadyParityTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(SteadyParityTest, RandomBodiesBitIdentical)
{
    const std::string& platform_name = GetParam();
    const auto plat = platform::Platform::byName(platform_name);
    // Vary body size with the seed so both short (highly periodic)
    // and long (window-straddling) loops are covered.
    for (int seed = 1; seed <= 12; ++seed) {
        const int size = 4 + (seed * 7) % 37;
        checkParity(*plat,
                    randomBody(plat->library(), size,
                               static_cast<std::uint64_t>(seed)),
                    platform_name + " seed " + std::to_string(seed) +
                        " size " + std::to_string(size));
    }
}

TEST_P(SteadyParityTest, RandomBodiesAtTheShippedHorizon)
{
    const std::string& platform_name = GetParam();
    const auto plat = platform::Platform::byName(platform_name);
    const std::uint64_t horizon = shippedHorizon(platform_name);
    for (int i = 0; i < 16; ++i) {
        const int size = 16 + (i * 13) % 45;
        const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(i);
        checkParity(*plat, randomBody(plat->library(), size, seed),
                    platform_name + " seed " + std::to_string(seed) +
                        " size " + std::to_string(size),
                    horizon);
    }
}

/**
 * The first 8 random bodies from seed 77000 up that tile at least 75%
 * of their cycles at the shipped horizon: the bodies whose fitness the
 * fast path, not the stepped simulation, produces.
 */
TEST_P(SteadyParityTest, TilingBodiesAtTheShippedHorizon)
{
    const std::string& platform_name = GetParam();
    const auto plat = platform::Platform::byName(platform_name);
    const isa::InstructionLibrary& lib = plat->library();
    const std::uint64_t horizon = shippedHorizon(platform_name);
    const bool want_voltage = plat->pdnModel() != nullptr;

    platform::EvalScratch scratch;
    platform::Evaluation probe;
    int tiling = 0;
    for (int i = 0; i < 400 && tiling < 8; ++i) {
        const int size = 16 + (i * 13) % 45;
        const std::uint64_t seed = 77000 + static_cast<std::uint64_t>(i);
        const auto code = randomBody(lib, size, seed);
        plat->evaluateInto(code, lib, want_voltage, horizon, nullptr,
                           scratch, probe);
        if (!probe.sim.steadyHit() ||
            probe.sim.simulatedCycles * 4 > probe.sim.cycles)
            continue;
        EXPECT_TRUE(checkParity(*plat, code,
                                platform_name + " seed " +
                                    std::to_string(seed) + " size " +
                                    std::to_string(size),
                                horizon));
        ++tiling;
    }
    EXPECT_GE(tiling, 1) << platform_name
                         << ": no probed body tiles 75% of its cycles";
}

INSTANTIATE_TEST_SUITE_P(
    AllPlatforms, SteadyParityTest,
    ::testing::ValuesIn(platform::Platform::presetNames()));

// ------------------------------------------------ degenerate bodies

TEST(SteadyDegenerate, SingleInstructionBody)
{
    for (const std::string& name : platform::Platform::presetNames()) {
        const auto plat = platform::Platform::byName(name);
        const auto code = randomBody(plat->library(), 1, 99);
        checkParity(*plat, code, name + " single-instruction body");
    }
}

TEST(SteadyDegenerate, AccumulatorBodyHits)
{
    // x4 += x5 every iteration: the data never recurs, but no address
    // depends on it, so the timing state recurs and the detector must
    // hit, taking the toggles from the functional pass.
    const auto plat = platform::Platform::byName("cortex-a15");
    const std::vector<isa::InstructionInstance> code = {
        plat->library().makeInstance("ADD", {"x4", "x4", "x5"}),
        plat->library().makeInstance("MUL", {"x6", "x4", "x7"}),
    };
    EXPECT_TRUE(checkParity(*plat, code, "accumulator body"));
}

/**
 * The LLC platform's library plus two ways for data to reach the base
 * register: a load into it and an ADD from a data register.
 */
isa::InstructionLibrary
dataAddressLibrary()
{
    isa::InstructionLibrary lib = isa::armCacheStressLibrary();
    lib.addOperand(isa::OperandDef::makeRegisters("base", {"x10"}));
    lib.addOperand(isa::OperandDef::makeRegisters("data", {"x4"}));
    lib.addInstruction("LDRBASE", {"base", "base", "immediate_value"},
                       "LDR op1, [op2, #op3]", isa::InstrClass::Mem,
                       isa::Opcode::Load);
    lib.addInstruction("ADDBASE", {"base", "base", "data"},
                       "ADD op1, op2, op3", isa::InstrClass::ShortInt,
                       isa::Opcode::Add);
    return lib;
}

TEST(SteadyDegenerate, DataAddressBodiesFallBack)
{
    // Once a data value can reach an address, timing can depend on
    // data, so the timing key is unsound: the detector must stay off
    // and leave a full simulation behind.
    const auto plat = platform::Platform::byName("xgene2-llc");
    const isa::InstructionLibrary lib = dataAddressLibrary();
    const std::vector<std::vector<isa::InstructionInstance>> bodies = {
        {lib.makeInstance("LDR", {"x2", "x10", "8"}),
         lib.makeInstance("LDRBASE", {"x10", "x10", "0"}),
         lib.makeInstance("ADD", {"x4", "x4", "x5"})},
        {lib.makeInstance("ADDBASE", {"x10", "x10", "x4"}),
         lib.makeInstance("LDR", {"x2", "x10", "16"}),
         lib.makeInstance("EOR", {"x4", "x4", "x5"})},
    };
    for (std::size_t i = 0; i < bodies.size(); ++i)
        EXPECT_FALSE(checkParity(*plat, lib, bodies[i],
                                 "data address " + std::to_string(i),
                                 16384));
}

TEST(SteadyDetector, AlternatingDataHits)
{
    // rdi = rdx - rdi takes two values in turn: the timing recurs every
    // iteration, the data every other one. The run must still hit and
    // equal the full simulation, however its rows are laid out.
    const auto plat = platform::Platform::byName("athlon-x4");
    const std::vector<isa::InstructionInstance> code = {
        plat->library().makeInstance("SUB", {"rdi", "rdx"})};
    EXPECT_TRUE(checkParity(*plat, code, "alternating data", 8192));
}

TEST(SteadyDetector, RowsClipAtTheTraceCap)
{
    // A horizon past maxTraceCycles: the skipped periods run past the
    // last stored row, and their toggles still reach the total.
    const auto plat = platform::Platform::byName("cortex-a7");
    const isa::InstructionLibrary& lib = plat->library();
    const std::vector<isa::InstructionInstance> code = {
        lib.makeInstance("ADD", {"x4", "x4", "x5"}),
        lib.makeInstance("EOR", {"x6", "x4", "x7"}),
    };
    const std::uint64_t min_cycles = arch::maxTraceCycles + 4096;
    EXPECT_TRUE(checkParity(*plat, code, "past the trace cap", min_cycles));
    platform::EvalScratch scratch;
    platform::Evaluation eval;
    plat->evaluateInto(code, lib, false, min_cycles, nullptr, scratch, eval);
    EXPECT_EQ(eval.sim.trace.size(), arch::maxTraceCycles);
    EXPECT_GT(eval.sim.cycles, arch::maxTraceCycles);
}

TEST(SteadyDetector, AdvanceWalkHitsOnceTheBaseCycles)
{
    // In a 4 KiB buffer ADVANCE #64 brings x10 back every 64
    // iterations, well inside the horizon, while x4 accumulates: the
    // address registers join the key, and the timing state recurs.
    const auto plat = platform::Platform::byName("xgene2-llc");
    const isa::InstructionLibrary& lib = plat->library();
    arch::InitState init = plat->initState();
    init.bufferBytes = 4096;
    const std::vector<arch::MicroOp> body = arch::decodeBody(
        lib, {lib.makeInstance("ADVANCE", {"x10", "64"}),
              lib.makeInstance("LDR", {"x2", "x10", "8"}),
              lib.makeInstance("STR", {"x4", "x10", "16"}),
              lib.makeInstance("ADD", {"x4", "x4", "x5"}),
              lib.makeInstance("EOR", {"x5", "x4", "x6"})});
    arch::LoopSimulator loop(plat->cpu(), init);
    arch::SimScratch scratch;
    arch::SimResult fast, full;
    arch::RunOptions options;
    loop.runForCyclesInto(body, 16384, 2'000'000, options, scratch, fast);
    options.steadyState = false;
    loop.runForCyclesInto(body, 16384, 2'000'000, options, scratch, full);
    EXPECT_TRUE(fast.steadyHit());
    EXPECT_FALSE(full.steadyHit());
    expectSimIdentical(fast, full);
}

TEST(SteadyDegenerate, CacheThrashFallbackStaysExact)
{
    // The LLC-stress platform: a body whose pointer register strides
    // through the 1 MiB buffer keeps mutating cache state, exercising
    // either a late hit or the clean fallback; exactness must hold
    // regardless.
    const auto plat = platform::Platform::byName("xgene2-llc");
    for (int seed = 1; seed <= 4; ++seed) {
        const auto code = randomBody(plat->library(), 24,
                                     static_cast<std::uint64_t>(seed));
        checkParity(*plat, code,
                    "llc thrash seed " + std::to_string(seed), 16384);
    }
}

// ------------------------------------------------ detector engages

TEST(SteadyDetector, HitsOnSimpleLoop)
{
    // A tight ALU loop reaches a steady state within a few iterations;
    // the detector must engage and skip most of the horizon.
    const auto plat = platform::Platform::byName("cortex-a15");
    const std::vector<isa::InstructionInstance> code = {
        plat->library().makeInstance("ADD", {"x4", "x5", "x6"}),
        plat->library().makeInstance("MUL", {"x7", "x8", "x9"}),
        plat->library().makeInstance("EOR", {"x6", "x5", "x8"}),
    };
    platform::EvalScratch scratch;
    platform::Evaluation eval;
    plat->evaluateInto(code, plat->library(), false, 4096, nullptr,
                       scratch, eval);
    EXPECT_TRUE(eval.sim.steadyHit());
    EXPECT_LT(eval.sim.simulatedCycles, eval.sim.cycles / 2);
}

// ------------------------------------------------ probe transparency

TEST(SteadyProbe, ProbeOnOffBitIdentical)
{
    for (const char* name : {"cortex-a15", "athlon-x4"}) {
        const auto plat = platform::Platform::byName(name);
        const auto code = randomBody(plat->library(), 12, 7);
        const bool want_voltage = plat->pdnModel() != nullptr;

        platform::EvalScratch scratch;  // steady on
        platform::Evaluation probed, unprobed;
        signal::SignalProbe probe;
        plat->evaluateInto(code, plat->library(), want_voltage, 4096,
                           &probe, scratch, probed);
        plat->evaluateInto(code, plat->library(), want_voltage, 4096,
                           nullptr, scratch, unprobed);

        // With a probe the trace is materialized up front; without it
        // a tiled layout is kept. Both must expand to the same rows
        // and carry the same scalars.
        EXPECT_FALSE(probed.sim.tiling.tiled());
        expectBitIdentical(unprobed, probed,
                           std::string(name) + " probe parity");
    }
}

TEST(SteadyProbe, AthlonAccumulatorHitsUnderVoltageAndProbe)
{
    // rax += rbx and friends: data that never recurs on the one
    // platform whose evaluations read every row, through the PDN.
    const auto plat = platform::Platform::byName("athlon-x4");
    const isa::InstructionLibrary& lib = plat->library();
    const std::vector<isa::InstructionInstance> code = {
        lib.makeInstance("ADD", {"rax", "rbx"}),
        lib.makeInstance("IMUL", {"rcx", "rax"}),
        lib.makeInstance("ADDPD", {"xmm0", "xmm1"}),
        lib.makeInstance("LOAD", {"r9", "r10", "16"}),
        lib.makeInstance("XOR", {"rdx", "rsi"}),
        lib.makeInstance("STORE", {"rax", "r10", "32"}),
    };
    EXPECT_TRUE(checkParity(*plat, code, "athlon accumulator", 8192));

    platform::EvalScratch scratch;
    platform::Evaluation fast, full;
    signal::SignalProbe fast_probe, full_probe;
    scratch.steadyState = true;
    plat->evaluateInto(code, lib, true, 8192, &fast_probe, scratch, fast);
    scratch.steadyState = false;
    plat->evaluateInto(code, lib, true, 8192, &full_probe, scratch, full);
    EXPECT_TRUE(fast.sim.steadyHit());
    expectBitIdentical(fast, full, "athlon accumulator under a probe");
    ASSERT_EQ(fast_probe.waveforms().size(), full_probe.waveforms().size());
    for (std::size_t i = 0; i < fast_probe.waveforms().size(); ++i) {
        const signal::Waveform& a = fast_probe.waveforms()[i];
        const signal::Waveform& b = full_probe.waveforms()[i];
        EXPECT_EQ(a.name, b.name);
        EXPECT_TRUE(a.samples.size() == b.samples.size() &&
                    std::memcmp(a.samples.data(), b.samples.data(),
                                a.samples.size() * sizeof(double)) == 0)
            << a.name << " differs";
    }
    ASSERT_EQ(fast_probe.marks().size(), full_probe.marks().size());
    for (std::size_t i = 0; i < fast_probe.marks().size(); ++i) {
        EXPECT_EQ(fast_probe.marks()[i].kind, full_probe.marks()[i].kind);
        EXPECT_EQ(fast_probe.marks()[i].index, full_probe.marks()[i].index);
    }
}

// ------------------------------------------------ golden digests

/**
 * One fixed body on one platform. The golden table below records
 * what the simulator produced for each of them, so any change to the
 * timing model's observable output — a scalar, a counter or one trace
 * row, with the steady-state detector on or off — fails here even
 * when both detector modes change together.
 */
struct GoldenCase
{
    std::string name;
    std::string platform;
    std::vector<isa::InstructionInstance> code;
    std::uint64_t minCycles;
};

/**
 * A random body in which each slot is, with probability @p share, a
 * random instance of one of @p names, and otherwise any instruction
 * of the library.
 */
std::vector<isa::InstructionInstance>
weightedBody(const isa::InstructionLibrary& lib, int size,
             std::uint64_t seed, const std::vector<std::string>& names,
             double share)
{
    Rng rng(seed);
    std::vector<isa::InstructionInstance> code;
    for (int i = 0; i < size; ++i) {
        if (rng.nextBool(share)) {
            const int def = lib.findInstruction(rng.pick(names));
            code.push_back(
                lib.randomInstanceOf(static_cast<std::size_t>(def), rng));
        } else {
            code.push_back(lib.randomInstance(rng));
        }
    }
    return code;
}

std::vector<GoldenCase>
goldenCases()
{
    std::vector<GoldenCase> cases;
    auto add = [&](std::string name, const std::string& platform,
                   auto make_code, std::uint64_t min_cycles) {
        const auto plat = platform::Platform::byName(platform);
        cases.push_back({std::move(name), platform,
                         make_code(plat->library()), min_cycles});
    };

    // Seeded random bodies on every shipped platform.
    for (const std::string& platform :
         platform::Platform::presetNames()) {
        const std::uint64_t min_cycles =
            platform == "xgene2-llc" ? 16384 : 4096;
        for (int seed = 1; seed <= 4; ++seed) {
            const int size = 3 + (seed * 11) % 29;
            add(platform + " random " + std::to_string(seed), platform,
                [&](const isa::InstructionLibrary& lib) {
                    return randomBody(lib, size,
                                      static_cast<std::uint64_t>(seed));
                },
                min_cycles);
        }
    }

    // Memory-bound bodies: strided pointer advances and accesses only,
    // so most cycles wait on a free MSHR.
    const std::vector<std::string> memory = {"ADVANCE", "LDR", "LDP",
                                             "STR"};
    for (int seed = 1; seed <= 6; ++seed) {
        const int size = 4 + (seed * 5) % 23;
        add("xgene2-llc memory " + std::to_string(seed), "xgene2-llc",
            [&](const isa::InstructionLibrary& lib) {
                return weightedBody(lib, size,
                                    static_cast<std::uint64_t>(100 + seed),
                                    memory, 1.0);
            },
            16384);
    }

    // Branch-bubble bodies: fetch redirects and deterministic
    // mispredicts leave the window to drain between fetch groups.
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        branchy = {{"cortex-a15", {"BNE", "BNEXT"}},
                   {"cortex-a7", {"BNE", "BNEXT"}},
                   {"xgene2", {"BNE"}},
                   {"athlon-x4", {"JNEXT"}}};
    std::uint64_t branch_seed = 200;
    for (const auto& [platform, branches] : branchy) {
        for (int seed = 1; seed <= 3; ++seed) {
            const int size = 2 + (seed * 7) % 17;
            add(platform + " branches " + std::to_string(seed), platform,
                [&](const isa::InstructionLibrary& lib) {
                    return weightedBody(lib, size, ++branch_seed,
                                        branches, 0.6);
                },
                4096);
        }
    }
    return cases;
}

/**
 * Fold every SimResult scalar and every trace row. Unless
 * @p with_path, leave out what only records how the result was
 * reached, simulatedCycles and the tiling layout, so that steady on
 * and off must give the same digest.
 */
std::uint64_t
simDigest(const arch::SimResult& sim, bool with_path = true)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto fold = [&h](std::uint64_t w) {
        h = (h ^ w) * 0x100000001b3ULL;
        h ^= h >> 29;
    };
    auto fold_double = [&fold](double d) {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        fold(bits);
    };
    fold(sim.cycles);
    fold(sim.instructions);
    fold(sim.iterations);
    fold_double(sim.ipc);
    if (with_path) {
        fold(sim.simulatedCycles);
        fold(sim.tiling.prefix);
        fold(sim.tiling.period);
        fold(sim.tiling.repeats);
        fold(sim.tiling.tail);
    }
    for (std::uint64_t count : sim.classCounts)
        fold(count);
    fold(sim.cacheAccesses);
    fold(sim.cacheMisses);
    fold(sim.l2Accesses);
    fold(sim.l2Misses);
    fold(sim.mispredicts);
    fold(sim.totalToggleBits);
    fold_double(sim.avgWindowOccupancy);

    const std::vector<arch::CycleStats> rows = expanded(sim);
    fold(rows.size());
    for (const arch::CycleStats& row : rows) {
        for (std::uint8_t count : row.issued)
            fold(count);
        fold(row.toggleBits);
        fold(row.windowOccupancy);
        fold(row.fetched);
        fold(row.cacheMisses);
        fold(row.l2Misses);
        fold(row.mispredicts);
    }
    return h;
}

struct GoldenDigest
{
    const char* name;
    std::uint64_t steadyOn;
    std::uint64_t steadyOff;
};

// Recorded from the step-every-cycle simulator; the steady-on column,
// which folds simulatedCycles and the tiling layout, from the detector
// keyed on timing state alone.
constexpr GoldenDigest goldenDigests[] = {
    {"cortex-a15 random 1", 0xcc6d8e5052d1f4d8ULL, 0x02e8edf57ebcffa3ULL},
    {"cortex-a15 random 2", 0x2f241b191dde104cULL, 0xe48c122b40216d74ULL},
    {"cortex-a15 random 3", 0x455227e1de3ee291ULL, 0x7422a61b114a1b09ULL},
    {"cortex-a15 random 4", 0xcf65f312dd4aeec3ULL, 0x777ee07f2cedb51bULL},
    {"cortex-a7 random 1", 0x947f9f7a5d9b9cb1ULL, 0x868e9acf5526602aULL},
    {"cortex-a7 random 2", 0x39f904f3903b7011ULL, 0xf16c58a5d4a4c1efULL},
    {"cortex-a7 random 3", 0x6e177d75048690caULL, 0xe68a60d061faa430ULL},
    {"cortex-a7 random 4", 0x0c37f31b10ff8e8fULL, 0x2deb00b4f91356e4ULL},
    {"xgene2 random 1", 0xb8c9ba92fa0843d3ULL, 0xbd722512f4888c08ULL},
    {"xgene2 random 2", 0xa774889108b4e62cULL, 0x3a150715ecb55d4bULL},
    {"xgene2 random 3", 0xc3010fc8971bfee0ULL, 0x1c7544a1cffe9398ULL},
    {"xgene2 random 4", 0x73ee5270d4e48cbaULL, 0xeb662691af839030ULL},
    {"athlon-x4 random 1", 0xe95a92641dba010cULL, 0xd6c42fc7b0d27e8eULL},
    {"athlon-x4 random 2", 0x6e572fb644c802e8ULL, 0x24122b501482d225ULL},
    {"athlon-x4 random 3", 0xa3c6dbd9195fd064ULL, 0x48037468ded75734ULL},
    {"athlon-x4 random 4", 0xb000101f71b1ba97ULL, 0x33c5643c34b8843eULL},
    {"xgene2-llc random 1", 0xe7d848986b6928e3ULL, 0xe7d848986b6928e3ULL},
    {"xgene2-llc random 2", 0xfea33a48787e320aULL, 0xfea33a48787e320aULL},
    {"xgene2-llc random 3", 0xf5e59653471d103eULL, 0xf5e59653471d103eULL},
    {"xgene2-llc random 4", 0x1066bfe78d79ff51ULL, 0x1573eeb728954c24ULL},
    {"xgene2-llc memory 1", 0xa0c843fe25713f9dULL, 0xa0c843fe25713f9dULL},
    {"xgene2-llc memory 2", 0xa31ea451124886ffULL, 0xa31ea451124886ffULL},
    {"xgene2-llc memory 3", 0xd62d30b48d08f3cbULL, 0xd62d30b48d08f3cbULL},
    {"xgene2-llc memory 4", 0x9134cc94a809761cULL, 0x9134cc94a809761cULL},
    {"xgene2-llc memory 5", 0x173ab267b754c1abULL, 0x173ab267b754c1abULL},
    {"xgene2-llc memory 6", 0xcd099dbc7cbaf9c6ULL, 0x009abeb7f0ab43e3ULL},
    {"cortex-a15 branches 1", 0x13053a6a9f41ed6aULL, 0xd8eeba7e0fb718f1ULL},
    {"cortex-a15 branches 2", 0x66f2f50d43c2cd78ULL, 0x5a4179bc991e3922ULL},
    {"cortex-a15 branches 3", 0xce6b87c75bcb46d6ULL, 0xfcf640aa669227abULL},
    {"cortex-a7 branches 1", 0xe9e6ba3725a7ce99ULL, 0x5380da085d2372e7ULL},
    {"cortex-a7 branches 2", 0xa9930f79bec1709dULL, 0x8d63eb80d14990caULL},
    {"cortex-a7 branches 3", 0x9a303c6d12ccd47dULL, 0x0c86f93f1fcda4efULL},
    {"xgene2 branches 1", 0xda753dfcd6b5eaa8ULL, 0x6fe3cb56f5a698c9ULL},
    {"xgene2 branches 2", 0xd6a7aace25aaca82ULL, 0xda04e78149353250ULL},
    {"xgene2 branches 3", 0x17e44a0664b5ff5eULL, 0xd6d1cda5ff578650ULL},
    {"athlon-x4 branches 1", 0x01ce07ac102daedfULL, 0x302ce76214e5fbd3ULL},
    {"athlon-x4 branches 2", 0xbac3d3fd8e324c07ULL, 0xd2a99c0de27181d4ULL},
    {"athlon-x4 branches 3", 0x4cc3966e496e5c33ULL, 0xb5c2f2e79767db56ULL},
};

TEST(SteadyGolden, SimResultsMatchTheRecordedDigests)
{
    const std::vector<GoldenCase> cases = goldenCases();
    bool all_match = cases.size() == std::size(goldenDigests);
    std::string table;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const GoldenCase& c = cases[i];
        const auto plat = platform::Platform::byName(c.platform);
        platform::EvalScratch scratch;
        platform::Evaluation eval;
        std::uint64_t digest[2], result_digest[2];
        for (int steady = 0; steady < 2; ++steady) {
            scratch.steadyState = steady == 1;
            plat->evaluateInto(c.code, plat->library(), false,
                               c.minCycles, nullptr, scratch, eval);
            digest[steady] = simDigest(eval.sim);
            result_digest[steady] = simDigest(eval.sim, false);
        }
        EXPECT_EQ(result_digest[1], result_digest[0])
            << c.name << ": steady on and off differ";
        char row[160];
        std::snprintf(row, sizeof row,
                      "    {\"%s\", 0x%016llxULL, 0x%016llxULL},\n",
                      c.name.c_str(),
                      static_cast<unsigned long long>(digest[1]),
                      static_cast<unsigned long long>(digest[0]));
        table += row;
        if (i < std::size(goldenDigests)) {
            const GoldenDigest& want = goldenDigests[i];
            const bool match = c.name == want.name &&
                               digest[1] == want.steadyOn &&
                               digest[0] == want.steadyOff;
            EXPECT_TRUE(match) << c.name << " differs from the table";
            all_match = all_match && match;
        }
    }
    EXPECT_TRUE(all_match)
        << "the simulator's output changed; the digests it produces "
           "now are:\n"
        << table;
}

/**
 * Two digest chains over a sequence of evaluations: simDigest() with
 * the idle cycles the simulator jumped over folded in, and
 * simDigest() of the result alone, which steady on and off must share.
 */
struct EvaluationChain
{
    std::uint64_t withPath = 0xcbf29ce484222325ULL;
    std::uint64_t result = 0xcbf29ce484222325ULL;
};

/** Evaluate @p code on @p plat and fold it onto @p chain. */
void
foldEvaluation(EvaluationChain& chain, const platform::Platform& plat,
               const isa::InstructionLibrary& lib,
               const std::vector<isa::InstructionInstance>& code,
               std::uint64_t min_cycles, bool steady)
{
    platform::EvalScratch scratch;
    platform::Evaluation eval;
    scratch.steadyState = steady;
    plat.evaluateInto(code, lib, false, min_cycles, nullptr, scratch,
                      eval);
    for (std::uint64_t w : {simDigest(eval.sim), eval.sim.skippedCycles})
        chain.withPath = (chain.withPath ^ w) * 0x100000001b3ULL;
    chain.result =
        (chain.result ^ simDigest(eval.sim, false)) * 0x100000001b3ULL;
}

/**
 * Compare freshly computed (name, steady on, steady off) digests with
 * a recorded table; on any difference print the table they form.
 */
template <std::size_t N>
void
expectDigestTable(const std::vector<GoldenDigest>& got,
                  const GoldenDigest (&want)[N])
{
    bool all_match = got.size() == N;
    std::string table;
    for (std::size_t i = 0; i < got.size(); ++i) {
        char row[160];
        std::snprintf(row, sizeof row,
                      "    {\"%s\", 0x%016llxULL, 0x%016llxULL},\n",
                      got[i].name,
                      static_cast<unsigned long long>(got[i].steadyOn),
                      static_cast<unsigned long long>(got[i].steadyOff));
        table += row;
        const bool match = i < N &&
                           std::string(got[i].name) == want[i].name &&
                           got[i].steadyOn == want[i].steadyOn &&
                           got[i].steadyOff == want[i].steadyOff;
        EXPECT_TRUE(match) << got[i].name << " differs from the table";
        all_match = all_match && match;
    }
    EXPECT_TRUE(all_match)
        << "the simulator's output changed; the digests it produces "
           "now are:\n"
        << table;
}

/** A frozen benchmark population and the measurement it was bred on. */
struct EvolvedWorkload
{
    const char* name;
    const char* config;
    const char* platform;
    std::uint64_t minCycles;
};

constexpr EvolvedWorkload evolvedWorkloads[] = {
    {"power_a15", "a15_power.xml", "cortex-a15", 4096},
    {"didt_athlon", "athlon_didt.xml", "athlon-x4", 8192},
    {"ipc_xgene2", "xgene2_ipc.xml", "xgene2", 4096},
    {"llc_xgene2", "xgene2_llc_stress.xml", "xgene2-llc", 16384},
    {"outputs_a7", "a7_power.xml", "cortex-a7", 4096},
};

// Recorded from the simulator that asked every window slot each cycle;
// the steady-on column from the detector keyed on timing state alone.
constexpr GoldenDigest evolvedDigests[] = {
    {"power_a15", 0x6499d3c20760800bULL, 0x1ae664687f1d0763ULL},
    {"didt_athlon", 0x9389b800c9343417ULL, 0x06977783590dcf84ULL},
    {"ipc_xgene2", 0x44c16364c1f7c3e6ULL, 0x47a9eb1c69ea42c4ULL},
    {"llc_xgene2", 0x9c14f2be7a192c00ULL, 0x9c14f2be7a192c00ULL},
    {"outputs_a7", 0xb4eb46e26e3315b9ULL, 0xf21c6e9000fa9109ULL},
};

TEST(SteadyGolden, EvolvedBodiesMatchTheRecordedDigests)
{
    // Every individual of each frozen start population: bodies the GA
    // bred, whose windows stay full of dependent ops, unlike random
    // bodies.
    std::vector<GoldenDigest> got;
    for (const EvolvedWorkload& w : evolvedWorkloads) {
        const std::string dir = GEST_WORKLOADS_DIR;
        const config::RunConfig cfg =
            config::loadConfig(dir + "/" + w.config);
        const core::Population pop = core::loadPopulation(
            cfg.library, dir + "/" + w.name + ".pop");
        ASSERT_FALSE(pop.individuals.empty()) << w.name;
        const auto plat = platform::Platform::byName(w.platform);
        EvaluationChain on, off;
        for (const core::Individual& ind : pop.individuals) {
            foldEvaluation(on, *plat, cfg.library, ind.code, w.minCycles,
                           true);
            foldEvaluation(off, *plat, cfg.library, ind.code, w.minCycles,
                           false);
        }
        EXPECT_EQ(on.result, off.result)
            << w.name << ": steady on and off differ";
        got.push_back({w.name, on.withPath, off.withPath});
    }
    expectDigestTable(got, evolvedDigests);
}

TEST(SteadyEvolved, FrozenBodiesBitIdenticalEitherWay)
{
    // Every body of every frozen population, on its own platform and
    // horizon: evolved loops whose data never recurs.
    for (const EvolvedWorkload& w : evolvedWorkloads) {
        const std::string dir = GEST_WORKLOADS_DIR;
        const config::RunConfig cfg =
            config::loadConfig(dir + "/" + w.config);
        const core::Population pop = core::loadPopulation(
            cfg.library, dir + "/" + w.name + ".pop");
        ASSERT_FALSE(pop.individuals.empty()) << w.name;
        const auto plat = platform::Platform::byName(w.platform);
        std::size_t hits = 0;
        for (std::size_t i = 0; i < pop.individuals.size(); ++i)
            hits += checkParity(*plat, cfg.library,
                                pop.individuals[i].code,
                                std::string(w.name) + " body " +
                                    std::to_string(i),
                                w.minCycles)
                        ? 1
                        : 0;
        // The power search's bodies are the case the timing key is
        // for: the architectural state never recurs in any of them.
        if (std::string(w.name) == "power_a15") {
            EXPECT_GE(hits * 10, pop.individuals.size() * 9)
                << hits << " of " << pop.individuals.size() << " hit";
        }
    }
}

/**
 * A library for window-edge bodies on the LLC platform: a strided
 * pointer walk whose loads miss L1 on every iteration and write the
 * same registers the compute ops read and write. LEAP moves the
 * pointer by whole multiples of 4 KiB, so that 32 KiB lands every
 * iteration's lines in the L2 sets of the previous iteration's.
 */
isa::InstructionLibrary
windowEdgeLibrary()
{
    using isa::InstrClass;
    using isa::OperandDef;
    using isa::Opcode;
    isa::InstructionLibrary lib;
    lib.addOperand(OperandDef::makeRegisters(
        "int_reg", {"x4", "x5", "x6", "x7", "x8", "x9"}));
    lib.addOperand(OperandDef::makeRegisters("base", {"x10"}));
    lib.addOperand(OperandDef::makeImmediate("offset", 0, 256, 8));
    lib.addOperand(OperandDef::makeImmediate("stride", 64, 4032, 64));
    lib.addInstruction("ADVANCE", {"base", "stride"}, "ADD op1, op1, #op2",
                       InstrClass::ShortInt, Opcode::AddWrap);
    lib.addInstruction("LDR", {"int_reg", "base", "offset"},
                       "LDR op1, [op2, #op3]", InstrClass::Mem,
                       Opcode::Load);
    lib.addInstruction("ADD", {"int_reg", "base", "int_reg"},
                       "ADD op1, op2, op3", InstrClass::ShortInt,
                       Opcode::Add);
    lib.addInstruction("EOR", {"int_reg", "int_reg", "int_reg"},
                       "EOR op1, op2, op3", InstrClass::ShortInt,
                       Opcode::Eor);
    lib.addInstruction("MUL", {"int_reg", "int_reg", "int_reg"},
                       "MUL op1, op2, op3", InstrClass::LongInt,
                       Opcode::Mul);
    lib.addOperand(OperandDef::makeImmediate("leap", 4096, 65536, 4096));
    lib.addInstruction("LEAP", {"base", "leap"}, "ADD op1, op1, #op2",
                       InstrClass::ShortInt, Opcode::AddWrap);
    return lib;
}

// Recorded from the simulator that asked every window slot each cycle;
// the last three rows from the one that probed both cache levels and
// scanned the units and MSHRs for every slot it tried; the steady-on
// column from the detector keyed on timing state alone.
constexpr GoldenDigest windowEdgeDigests[] = {
    {"younger writer lowers a miss", 0xd38065ef679173faULL, 0xd38065ef679173faULL},
    {"divide chain fills the window", 0x78133de94493722aULL, 0xe4d8dba1a8d9a104ULL},
    {"second load to a line behind busy MSHRs", 0x49bcbd1863277788ULL, 0x49bcbd1863277788ULL},
    {"fill into the set of waiting misses", 0x614408234501dde6ULL, 0x614408234501dde6ULL},
    {"load/store units saturate without an L2", 0x3648aefa309137baULL, 0x1166a21d7c70d06fULL},
};

TEST(SteadyGolden, WindowEdgesMatchTheRecordedDigests)
{
    std::vector<GoldenDigest> got;
    auto record = [&](const char* name, const std::string& platform,
                      const isa::InstructionLibrary& lib,
                      const std::vector<isa::InstructionInstance>& code,
                      std::uint64_t min_cycles) {
        const auto plat = platform::Platform::byName(platform);
        EvaluationChain on, off;
        foldEvaluation(on, *plat, lib, code, min_cycles, true);
        foldEvaluation(off, *plat, lib, code, min_cycles, false);
        EXPECT_EQ(on.result, off.result)
            << name << ": steady on and off differ";
        got.push_back({name, on.withPath, off.withPath});
    };

    // Each LDR misses L1 on a fresh line. The younger ADD to the same
    // register issues right behind it with a one-cycle latency, so x4
    // becomes ready long before the older miss returns, and its
    // consumers must see the lowered cycle. When the MSHRs are busy the
    // ADD goes first and the miss raises the ready cycle instead.
    const isa::InstructionLibrary edge = windowEdgeLibrary();
    record("younger writer lowers a miss", "xgene2-llc", edge,
           {edge.makeInstance("ADVANCE", {"x10", "4032"}),
            edge.makeInstance("LDR", {"x4", "x10", "0"}),
            edge.makeInstance("ADD", {"x4", "x10", "x5"}),
            edge.makeInstance("EOR", {"x6", "x4", "x7"}),
            edge.makeInstance("LDR", {"x5", "x10", "128"}),
            edge.makeInstance("MUL", {"x7", "x5", "x6"}),
            edge.makeInstance("EOR", {"x5", "x6", "x8"}),
            edge.makeInstance("ADD", {"x8", "x10", "x7"})},
           16384);

    // A chain of unpipelined divides through x4 holds the window head
    // while the independent ops behind it fill the rest of the
    // out-of-order window.
    const auto a15 = platform::Platform::byName("cortex-a15");
    const isa::InstructionLibrary& arm = a15->library();
    std::vector<isa::InstructionInstance> divides;
    for (int i = 0; i < 4; ++i)
        divides.push_back(arm.makeInstance("UDIV", {"x4", "x4", "x5"}));
    for (int i = 0; i < 12; ++i) {
        divides.push_back(arm.makeInstance("ADD", {"x6", "x7", "x8"}));
        divides.push_back(arm.makeInstance("EOR", {"x7", "x8", "x9"}));
        divides.push_back(arm.makeInstance("FADD", {"v1", "v2", "v3"}));
    }
    divides.push_back(arm.makeInstance("MUL", {"x9", "x4", "x6"}));
    record("divide chain fills the window", "cortex-a15", arm, divides,
           4096);

    // Each iteration misses on five fresh lines, two iterations' worth
    // of them more than the eight MSHRs hold. The last two loads share
    // a line: while the first waits for an MSHR the second waits too,
    // and once the first fills the line the second must find it
    // present and issue without an MSHR.
    record("second load to a line behind busy MSHRs", "xgene2-llc", edge,
           {edge.makeInstance("ADVANCE", {"x10", "4032"}),
            edge.makeInstance("LDR", {"x4", "x10", "0"}),
            edge.makeInstance("LDR", {"x5", "x10", "64"}),
            edge.makeInstance("LDR", {"x6", "x10", "128"}),
            edge.makeInstance("LDR", {"x7", "x10", "256"}),
            edge.makeInstance("LDR", {"x8", "x10", "192"}),
            edge.makeInstance("LDR", {"x9", "x10", "200"})},
           16384);

    // Each iteration's five lines map to the L2 sets of the previous
    // iteration's, so a miss still waiting for an MSHR sees an older
    // miss fill another line into its set, and must still find its own
    // line absent.
    record("fill into the set of waiting misses", "xgene2-llc", edge,
           {edge.makeInstance("LEAP", {"x10", "32768"}),
            edge.makeInstance("LDR", {"x4", "x10", "0"}),
            edge.makeInstance("LDR", {"x5", "x10", "64"}),
            edge.makeInstance("LDR", {"x6", "x10", "128"}),
            edge.makeInstance("MUL", {"x7", "x4", "x5"}),
            edge.makeInstance("LDR", {"x8", "x10", "192"}),
            edge.makeInstance("LDR", {"x9", "x10", "256"}),
            edge.makeInstance("EOR", {"x6", "x7", "x8"})},
           16384);

    // Loads and stores to the L1-resident buffer, four to every ALU op,
    // queue for the Cortex-A15's one load/store unit.
    std::vector<isa::InstructionInstance> lsu_bound;
    for (int i = 0; i < 8; ++i) {
        const std::string lo = std::to_string(16 * i);
        const std::string hi = std::to_string(16 * i + 128);
        lsu_bound.push_back(arm.makeInstance("LDR", {"x2", "x10", lo}));
        lsu_bound.push_back(arm.makeInstance("STR", {"x4", "x10", hi}));
        lsu_bound.push_back(arm.makeInstance("LDR", {"x3", "x10", hi}));
        lsu_bound.push_back(arm.makeInstance("STR", {"x5", "x10", lo}));
        lsu_bound.push_back(arm.makeInstance("ADD", {"x6", "x7", "x8"}));
    }
    record("load/store units saturate without an L2", "cortex-a15", arm,
           lsu_bound, 4096);

    expectDigestTable(got, windowEdgeDigests);
}

// ------------------------------------------------ whole-run parity

TEST(SteadyRun, RunArtifactsIdenticalEitherWay)
{
    const std::string dir_on = "steady_run_on";
    const std::string dir_off = "steady_run_off";
    auto config_text = [](const std::string& out_dir) {
        return std::string(
                   "<gest_configuration>\n"
                   "  <ga population_size=\"6\" individual_size=\"10\" "
                   "mutation_rate=\"0.05\" "
                   "crossover_operator=\"one_point\" "
                   "parent_selection_method=\"tournament\" "
                   "tournament_size=\"3\" elitism=\"true\" "
                   "generations=\"3\" seed=\"11\"/>\n"
                   "  <library name=\"arm\"/>\n"
                   "  <measurement class=\"SimPowerMeasurement\">\n"
                   "    <config platform=\"cortex-a15\"/>\n"
                   "  </measurement>\n"
                   "  <fitness class=\"DefaultFitness\"/>\n"
                   "  <output directory=\"") +
               out_dir + "\"/>\n</gest_configuration>\n";
    };

    config::RunConfig on = config::parseConfig(config_text(dir_on));
    on.steadyStateOverride = true;
    config::RunConfig off = config::parseConfig(config_text(dir_off));
    off.steadyStateOverride = false;

    const config::RunResult r_on = config::runFromConfig(on);
    const config::RunResult r_off = config::runFromConfig(off);

    EXPECT_EQ(r_on.best.fitness, r_off.best.fitness);
    EXPECT_EQ(r_on.best.id, r_off.best.id);
    ASSERT_EQ(r_on.history.size(), r_off.history.size());
    for (std::size_t i = 0; i < r_on.history.size(); ++i) {
        EXPECT_BITEQ(r_on.history[i].bestFitness,
                     r_off.history[i].bestFitness);
        EXPECT_BITEQ(r_on.history[i].averageFitness,
                     r_off.history[i].averageFitness);
    }

    // lineage.csv is wall-clock free and must match byte for byte.
    // history.csv carries timing columns; its deterministic prefix
    // (generation..cache_misses) must match row by row.
    std::string lineage_on, lineage_off;
    ASSERT_TRUE(tryReadFile(dir_on + "/lineage.csv", lineage_on));
    ASSERT_TRUE(tryReadFile(dir_off + "/lineage.csv", lineage_off));
    EXPECT_EQ(lineage_on, lineage_off);

    std::string hist_on, hist_off;
    ASSERT_TRUE(tryReadFile(dir_on + "/history.csv", hist_on));
    ASSERT_TRUE(tryReadFile(dir_off + "/history.csv", hist_off));
    const std::vector<std::string> rows_on = split(hist_on, '\n');
    const std::vector<std::string> rows_off = split(hist_off, '\n');
    ASSERT_EQ(rows_on.size(), rows_off.size());
    for (std::size_t i = 0; i < rows_on.size(); ++i) {
        const auto f_on = split(rows_on[i], ',');
        const auto f_off = split(rows_off[i], ',');
        const std::size_t deterministic =
            std::min<std::size_t>(8, std::min(f_on.size(),
                                              f_off.size()));
        for (std::size_t c = 0; c < deterministic; ++c)
            EXPECT_EQ(f_on[c], f_off[c])
                << "history.csv row " << i << " column " << c;
    }
}

} // namespace
} // namespace gest
