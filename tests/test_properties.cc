/**
 * @file
 * Property-based sweeps (parameterized GTest) over the simulator, the
 * models and the GA engine: invariants that must hold for any random
 * input, any platform and any seed.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string_view>

#include "config/config.hh"
#include "core/engine.hh"
#include "measure/sim_measurements.hh"
#include "pdn/pdn_model.hh"
#include "platform/platform.hh"
#include "power/power_model.hh"
#include "util/fileutil.hh"
#include "util/jsonlite.hh"
#include "util/random.hh"
#include "util/strutil.hh"
#include "xml/xml.hh"

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

// --------------------------------------------------- simulator sweeps

class SimInvariantTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{};

TEST_P(SimInvariantTest, RandomBodiesObeyCoreInvariants)
{
    const auto& [platform_name, seed] = GetParam();
    const auto plat = platform::Platform::byName(platform_name);
    const isa::InstructionLibrary& lib = plat->library();
    const auto code =
        randomBody(lib, 30, static_cast<std::uint64_t>(seed));

    arch::LoopSimulator sim(plat->cpu(), plat->initState());
    const arch::SimResult result =
        sim.run(arch::decodeBody(lib, code), 60, 4);

    // IPC bounded by machine width.
    EXPECT_GT(result.ipc, 0.0);
    EXPECT_LE(result.ipc, plat->cpu().issueWidth + 1e-9);
    EXPECT_LE(result.ipc, plat->cpu().fetchWidth + 1e-9);

    // Counter consistency.
    std::uint64_t issued = 0;
    for (const arch::CycleStats& stats : result.trace)
        issued += static_cast<std::uint64_t>(stats.totalIssued());
    EXPECT_EQ(issued, result.instructions);
    EXPECT_LE(result.cacheMisses, result.cacheAccesses);
    EXPECT_LE(result.l2Misses, result.l2Accesses);
    EXPECT_LE(result.l2Accesses, result.cacheMisses);

    // Per-cycle issue never exceeds the configured width.
    for (const arch::CycleStats& stats : result.trace)
        EXPECT_LE(stats.totalIssued(), plat->cpu().issueWidth);
}

INSTANTIATE_TEST_SUITE_P(
    AllPlatforms, SimInvariantTest,
    ::testing::Combine(::testing::Values("cortex-a15", "cortex-a7",
                                         "xgene2", "athlon-x4",
                                         "xgene2-llc"),
                       ::testing::Values(1, 2, 3, 4)));

class IssueWidthTest : public ::testing::TestWithParam<int>
{};

TEST_P(IssueWidthTest, WiderIssueHelpsOverall)
{
    // Greedy oldest-first issue is a list scheduler, and list
    // schedulers have Graham-style anomalies: one extra issue slot can
    // occasionally slow a specific trace slightly. The property that
    // must hold is the coarse one: within a couple percent per step,
    // and strictly better from width 1 to width 4.
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto body = arch::decodeBody(
        lib, randomBody(lib, 24, static_cast<std::uint64_t>(GetParam())));

    auto ipc_at = [&](int width) {
        arch::CpuConfig cfg = arch::cortexA15Config();
        cfg.issueWidth = width;
        return arch::LoopSimulator(cfg, arch::InitState{})
            .run(body, 100, 4)
            .ipc;
    };

    double last = ipc_at(1);
    for (int width = 2; width <= 4; ++width) {
        const double ipc = ipc_at(width);
        EXPECT_GE(ipc, last * 0.97) << "width " << width;
        last = ipc;
    }

    // For an ILP-rich body (independent adds), widening must strictly
    // help: here the scheduler has no anomaly to hide behind.
    std::vector<isa::InstructionInstance> parallel_code;
    for (int i = 0; i < 12; ++i)
        parallel_code.push_back(lib.makeInstance(
            "ADD", {"x" + std::to_string(4 + i % 3), "x7", "x8"}));
    const auto parallel = arch::decodeBody(lib, parallel_code);
    auto parallel_ipc_at = [&](int width) {
        arch::CpuConfig cfg = arch::cortexA15Config();
        cfg.issueWidth = width;
        cfg.fetchWidth = 4;
        return arch::LoopSimulator(cfg, arch::InitState{})
            .run(parallel, 100, 4)
            .ipc;
    };
    EXPECT_GT(parallel_ipc_at(2), parallel_ipc_at(1) * 1.3);
}

INSTANTIATE_TEST_SUITE_P(Bodies, IssueWidthTest,
                         ::testing::Values(7, 8, 9, 10));

// ------------------------------------------------------- model sweeps

class PowerMonotoneTest : public ::testing::TestWithParam<int>
{};

TEST_P(PowerMonotoneTest, PowerTraceIsPositiveAndBracketed)
{
    const auto plat = platform::cortexA15Platform();
    const isa::InstructionLibrary& lib = plat->library();
    const auto code =
        randomBody(lib, 25, static_cast<std::uint64_t>(GetParam()));

    arch::LoopSimulator sim(plat->cpu(), plat->initState());
    const arch::SimResult result =
        sim.run(arch::decodeBody(lib, code), 80, 4);
    const power::PowerModel model(plat->energy(), plat->cpu().freqGHz);
    const power::PowerTrace trace = model.trace(result, 1.05, 50.0);

    EXPECT_GT(trace.minWatts, 0.0);
    for (double w : trace.watts) {
        EXPECT_GE(w, trace.minWatts - 1e-12);
        EXPECT_LE(w, trace.peakWatts + 1e-12);
    }
    // Higher temperature -> more leakage -> more total power.
    EXPECT_GT(model.averageWatts(result, 1.05, 90.0),
              model.averageWatts(result, 1.05, 30.0));
    // Higher voltage -> more power.
    EXPECT_GT(model.averageWatts(result, 1.15, 50.0),
              model.averageWatts(result, 0.95, 50.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PowerMonotoneTest,
                         ::testing::Values(10, 11, 12, 13, 14));

class PdnLinearityTest : public ::testing::TestWithParam<int>
{};

TEST_P(PdnLinearityTest, SupplyShiftTranslatesTrace)
{
    // For any current trace, shifting the supply shifts the whole
    // voltage trace without changing the noise (linearity).
    const pdn::PdnModel model(pdn::athlonPdn());
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    std::vector<double> amps(4096);
    for (double& a : amps)
        a = 10.0 + 30.0 * rng.nextDouble();

    const pdn::VoltageTrace hi = model.simulateAt(amps, 3.1, 1.35);
    const pdn::VoltageTrace lo = model.simulateAt(amps, 3.1, 1.25);
    EXPECT_NEAR(hi.peakToPeak(), lo.peakToPeak(), 1e-6);
    EXPECT_NEAR(hi.vMin - lo.vMin, 0.1, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdnLinearityTest,
                         ::testing::Values(20, 21, 22));

// ---------------------------------------------------------- GA sweeps

class EngineValidityTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(EngineValidityTest, EveryGenerationHoldsOnlyValidGenomes)
{
    const auto plat = platform::cortexA7Platform();
    const isa::InstructionLibrary& lib = plat->library();
    measure::SimPowerMeasurement meas(lib, plat);
    fitness::DefaultFitness fit;

    core::GaParams params;
    params.populationSize = 12;
    params.individualSize = 10;
    params.mutationRate = 0.15;
    params.generations = 6;
    params.seed = GetParam();

    core::Engine engine(params, lib, meas, fit);
    int generations_seen = 0;
    engine.addGenerationObserver(
        [&](const core::Population& pop, const core::GenerationRecord&) {
            ++generations_seen;
            EXPECT_EQ(pop.individuals.size(), 12u);
            for (const core::Individual& ind : pop.individuals) {
                EXPECT_EQ(ind.code.size(), 10u);
                EXPECT_TRUE(ind.evaluated);
                for (const isa::InstructionInstance& inst : ind.code)
                    EXPECT_TRUE(lib.valid(inst));
            }
        });
    engine.run();
    EXPECT_EQ(generations_seen, 6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineValidityTest,
                         ::testing::Values(101, 102, 103, 104, 105));

class SerializationFuzzTest : public ::testing::TestWithParam<int>
{};

TEST_P(SerializationFuzzTest, RandomPopulationsRoundTrip)
{
    const isa::InstructionLibrary lib = isa::x86LikeLibrary();
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
    core::Population pop;
    pop.generation = GetParam();
    const int n = 1 + static_cast<int>(rng.nextBelow(6));
    for (int i = 0; i < n; ++i) {
        core::Individual ind;
        ind.id = rng.next() % 100000;
        ind.fitness = rng.nextDouble() * 100.0 - 50.0;
        ind.evaluated = rng.nextBool(0.5);
        const int meas_count = static_cast<int>(rng.nextBelow(4));
        for (int m = 0; m < meas_count; ++m)
            ind.measurements.push_back(rng.nextDouble() * 10.0);
        const int genes = 1 + static_cast<int>(rng.nextBelow(20));
        for (int g = 0; g < genes; ++g)
            ind.code.push_back(lib.randomInstance(rng));
        pop.individuals.push_back(std::move(ind));
    }

    const core::Population again = core::deserializePopulation(
        lib, core::serializePopulation(lib, pop), "<test>");
    ASSERT_EQ(again.individuals.size(), pop.individuals.size());
    for (std::size_t i = 0; i < pop.individuals.size(); ++i) {
        EXPECT_EQ(again.individuals[i].code, pop.individuals[i].code);
        EXPECT_EQ(again.individuals[i].measurements,
                  pop.individuals[i].measurements);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationFuzzTest,
                         ::testing::Range(1, 9));

// -------------------------------------------------------- parser fuzz

class XmlFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(XmlFuzzTest, MutatedDocumentsNeverCrashTheParser)
{
    // Crash-safety: byte-level mutations of a valid configuration must
    // either parse or throw FatalError — never corrupt memory or hang.
    const std::string valid = R"(
<gest_configuration>
  <ga population_size="50" individual_size="50" mutation_rate="0.02"/>
  <operands>
    <operand id="mem_result" values="x2 x3 x4" type="register"/>
    <operand id="imm" min="0" max="256" stride="8" type="immediate"/>
  </operands>
  <instructions>
    <instruction name="LDR" operand1="mem_result" operand2="imm"
        format="LDR op1, #op2" type="mem"/>
  </instructions>
</gest_configuration>
)";
    Rng rng(GetParam());
    for (int trial = 0; trial < 200; ++trial) {
        std::string mutated = valid;
        const int edits = 1 + static_cast<int>(rng.nextBelow(8));
        for (int e = 0; e < edits; ++e) {
            const std::size_t pos = rng.pickIndex(mutated.size());
            switch (rng.nextBelow(3)) {
              case 0: // flip to a random printable byte
                mutated[pos] = static_cast<char>(
                    32 + rng.nextBelow(95));
                break;
              case 1: // delete a byte
                mutated.erase(pos, 1);
                break;
              default: // duplicate a byte
                mutated.insert(pos, 1, mutated[pos]);
                break;
            }
            if (mutated.empty())
                mutated = "<x/>";
        }
        try {
            (void)xml::parse(mutated, "fuzz");
        } catch (const FatalError&) {
            // Rejecting is the expected outcome for most mutations.
        }
    }
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzzTest,
                         ::testing::Values(1001, 1002, 1003, 1004));

class ConfigFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ConfigFuzzTest, MutatedConfigsNeverCrashTheLoader)
{
    // One level up: the full configuration loader on structurally valid
    // XML with randomized attribute values.
    Rng rng(GetParam());
    for (int trial = 0; trial < 60; ++trial) {
        auto num = [&] { return std::to_string(rng.nextRange(-5, 400)); };
        const std::string text =
            "<gest_configuration>"
            "<ga population_size=\"" + num() +
            "\" individual_size=\"" + num() +
            "\" mutation_rate=\"" +
            std::to_string(rng.nextDouble() * 3.0 - 1.0) +
            "\" tournament_size=\"" + num() +
            "\" generations=\"" + num() + "\"/>"
            "<operands><operand id=\"a\" type=\"register\" values=\"" +
            std::string(rng.nextBool(0.5) ? "x1 x2" : "bogus") +
            "\"/>"
            "<operand id=\"b\" type=\"immediate\" min=\"" + num() +
            "\" max=\"" + num() + "\" stride=\"" + num() + "\"/>"
            "</operands>"
            "<instructions><instruction name=\"I\" operand1=\"" +
            std::string(rng.nextBool(0.8) ? "a" : "missing") +
            "\" format=\"ADD op1\" type=\"int\"/></instructions>"
            "</gest_configuration>";
        try {
            (void)config::parseConfig(text);
        } catch (const FatalError&) {
            // Invalid combinations must be rejected, not crash.
        }
    }
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzzTest,
                         ::testing::Values(2001, 2002, 2003));

/** metrics.json, status.json and manifest.json of a short sealed run. */
const std::vector<std::string>&
jsonCorpus()
{
    static const std::vector<std::string> corpus = [] {
        const std::string dir = makeTempDir("gest-json-fuzz");
        config::RunConfig cfg = config::parseConfig(R"(
<gest_configuration>
  <ga population_size="6" individual_size="8" generations="2" seed="5"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a7"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="replaced" stats="true" provenance="true"/>
</gest_configuration>
)");
        cfg.outputDirectory = dir;
        config::runFromConfig(cfg);
        std::vector<std::string> texts;
        for (const char* name :
             {"metrics.json", "status.json", "manifest.json"})
            texts.push_back(readFile(dir + "/" + name));
        removeAll(dir);
        return texts;
    }();
    return corpus;
}

/** Both trees hold the same values, numbers compared bitwise. */
bool
sameTree(const json::Value& a, const json::Value& b)
{
    if (a.type != b.type || a.boolean != b.boolean || a.str != b.str ||
        std::memcmp(&a.number, &b.number, sizeof a.number) != 0 ||
        a.array.size() != b.array.size() ||
        a.members.size() != b.members.size())
        return false;
    for (std::size_t i = 0; i < a.array.size(); ++i)
        if (!sameTree(a.array[i], b.array[i]))
            return false;
    for (std::size_t i = 0; i < a.members.size(); ++i)
        if (a.members[i].first != b.members[i].first ||
            !sameTree(a.members[i].second, b.members[i].second))
            return false;
    return true;
}

/** JSON has no infinities and no NaN. */
bool
allFinite(const json::Value& v)
{
    if (v.isNumber() && !std::isfinite(v.number))
        return false;
    for (const json::Value& element : v.array)
        if (!allFinite(element))
            return false;
    for (const auto& member : v.members)
        if (!allFinite(member.second))
            return false;
    return true;
}

/**
 * The reader's contract on one text: it parses the text alone exactly
 * as it parses the same bytes as a view into a longer buffer (it must
 * not read past the view it is given), and whatever it accepts holds
 * only finite numbers.
 */
void
expectJsonContract(const std::string& text)
{
    json::Value alone, viewed;
    std::string alone_error, viewed_error;
    const bool ok = json::parse(text, alone, &alone_error);
    const std::string longer = text + "0123456789e5";
    const bool viewed_ok =
        json::parse(std::string_view(longer).substr(0, text.size()),
                    viewed, &viewed_error);
    EXPECT_EQ(ok, viewed_ok) << text;
    EXPECT_EQ(alone_error, viewed_error) << text;
    if (ok && viewed_ok) {
        EXPECT_TRUE(sameTree(alone, viewed)) << text;
        EXPECT_TRUE(allFinite(alone)) << text;
    }
}

class JsonFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(JsonFuzzTest, MutatedArtifactsKeepTheReaderContract)
{
    // Byte and token mutations of real artifacts, plus truncation: a
    // run killed mid-write leaves a prefix behind.
    const std::vector<std::string>& corpus = jsonCorpus();
    for (const std::string& text : corpus) {
        json::Value v;
        ASSERT_TRUE(json::parse(text, v, nullptr)) << text;
        expectJsonContract(text);
    }
    static const char* const tokens[] = {
        "-", "0", "1e999", "-inf", "nan", "0x1f", ".5", "1.", "+1",
        "e", "\\u", "\\ud800", "\"", "{", "}", "[", "]", ",", ":",
        "null", "true", " "};
    Rng rng(GetParam());
    for (int trial = 0; trial < 300; ++trial) {
        std::string mutated = rng.pick(corpus);
        const int edits = 1 + static_cast<int>(rng.nextBelow(6));
        for (int e = 0; e < edits && !mutated.empty(); ++e) {
            const std::size_t pos = rng.pickIndex(mutated.size());
            switch (rng.nextBelow(5)) {
              case 0: // flip to a random byte
                mutated[pos] = static_cast<char>(rng.nextBelow(256));
                break;
              case 1: // delete a byte
                mutated.erase(pos, 1);
                break;
              case 2: // insert a JSON token
                mutated.insert(pos, rng.pick(std::vector<std::string>(
                                        std::begin(tokens),
                                        std::end(tokens))));
                break;
              case 3: // truncate
                mutated.resize(pos);
                break;
              default: // duplicate a byte
                mutated.insert(pos, 1, mutated[pos]);
                break;
            }
        }
        expectJsonContract(mutated);
        if (HasFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzzTest,
                         ::testing::Values(3001, 3002, 3003, 3004));

// The fuzzer's findings, minimized.

TEST(JsonFuzzRegression, NumberEndsWithItsView)
{
    // A truncated artifact ending in a number: strtod read on past the
    // view into whatever followed it in memory.
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse(std::string_view("123").substr(0, 1), v,
                            &error))
        << error;
    EXPECT_EQ(v.number, 1.0);
    EXPECT_FALSE(json::parse(std::string_view("[1]").substr(0, 2), v,
                             &error));
    EXPECT_EQ(error, "unterminated array at byte 2");
}

TEST(JsonFuzzRegression, OutOfRangeNumbersAreRejected)
{
    // A mutated exponent overflowed to inf, which JSON cannot hold.
    json::Value v;
    std::string error;
    EXPECT_FALSE(json::parse("1e2001", v, &error));
    EXPECT_EQ(error, "number out of range at byte 0");
    EXPECT_FALSE(json::parse("[-1e999]", v, nullptr));
    ASSERT_TRUE(json::parse("1e-400", v, nullptr));
    EXPECT_EQ(v.number, 0.0);
}

TEST(JsonFuzzRegression, OnlyJsonNumbersAreNumbers)
{
    // strtod also took hex, inf and nan after a '-' or a digit.
    json::Value v;
    for (const char* text : {"-inf", "-nan", "0x1f", "-0x10", "1.",
                             ".5", "+1", "01", "1e", "-"})
        EXPECT_FALSE(json::parse(text, v, nullptr)) << text;
    for (const char* text : {"0", "-0", "1.5", "-2e3", "4E+2", "7e-1"})
        EXPECT_TRUE(json::parse(text, v, nullptr)) << text;
}

TEST(JsonFuzzRegression, NonFiniteNumbersAreWrittenAsNull)
{
    // The writers must not produce what the reader now rejects.
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity(), 17),
              "null");
    EXPECT_EQ(jsonNumber(-std::numeric_limits<double>::quiet_NaN(), 17),
              "null");
    EXPECT_EQ(jsonNumber(0.1, 17), "0.10000000000000001");
}

// ---------------------------------------------------- population fuzz

/** A population file and the library its instruction names resolve in. */
struct PopulationSample
{
    isa::InstructionLibrary lib;
    std::string text;
};

/**
 * The five frozen benchmark start populations, each with its config's
 * library, and every checkpoint of a short run.
 */
const std::vector<PopulationSample>&
populationCorpus()
{
    static const std::vector<PopulationSample> corpus = [] {
        std::vector<PopulationSample> samples;
        const std::string dir = GEST_WORKLOADS_DIR;
        for (const auto& [name, config] :
             std::vector<std::pair<std::string, std::string>>{
                 {"power_a15", "a15_power.xml"},
                 {"didt_athlon", "athlon_didt.xml"},
                 {"ipc_xgene2", "xgene2_ipc.xml"},
                 {"llc_xgene2", "xgene2_llc_stress.xml"},
                 {"outputs_a7", "a7_power.xml"}}) {
            samples.push_back({config::loadConfig(dir + "/" + config).library,
                               readFile(dir + "/" + name + ".pop")});
        }

        const std::string run_dir = makeTempDir("gest-pop-fuzz");
        config::RunConfig cfg = config::parseConfig(R"(
<gest_configuration>
  <ga population_size="6" individual_size="8" generations="3" seed="5"/>
  <library name="x86"/>
  <measurement class="SimPowerMeasurement">
    <config platform="athlon-x4"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="replaced" stats="false" analytics="false"/>
</gest_configuration>
)");
        cfg.outputDirectory = run_dir;
        config::runFromConfig(cfg);
        for (int g = 0; g < cfg.ga.generations; ++g)
            samples.push_back(
                {cfg.library, readFile(run_dir + "/population_" +
                                       std::to_string(g) + ".pop")});
        removeAll(run_dir);
        return samples;
    }();
    return corpus;
}

/** The first line where @p a and @p b differ, both sides shown. */
std::string
firstDifferingLine(const std::string& a, const std::string& b)
{
    const std::vector<std::string> la = split(a, '\n'),
                                   lb = split(b, '\n');
    for (std::size_t i = 0; i < std::max(la.size(), lb.size()); ++i) {
        const std::string x = i < la.size() ? la[i] : "<none>";
        const std::string y = i < lb.size() ? lb[i] : "<none>";
        if (x != y)
            return "line " + std::to_string(i + 1) + ": '" + x +
                   "' vs '" + y + "'";
    }
    return "no difference";
}

/**
 * The loader's contract on one text: it either fails with a FatalError
 * that names the source and line, or returns a population whose
 * serialization parses back to the same text.
 */
void
expectPopulationContract(const isa::InstructionLibrary& lib,
                         const std::string& text)
{
    core::Population pop;
    try {
        pop = core::deserializePopulation(lib, text, "fuzz.pop");
    } catch (const FatalError& err) {
        const std::string what = err.what();
        std::size_t digits = 0;
        while (9 + digits < what.size() &&
               std::isdigit(static_cast<unsigned char>(what[9 + digits])))
            ++digits;
        EXPECT_TRUE(startsWith(what, "fuzz.pop:") && digits > 0 &&
                    9 + digits < what.size() && what[9 + digits] == ':')
            << what;
        return;
    }
    const std::string again = core::serializePopulation(lib, pop);
    try {
        const core::Population back =
            core::deserializePopulation(lib, again, "again.pop");
        const std::string twice = core::serializePopulation(lib, back);
        EXPECT_TRUE(twice == again)
            << "the parsed population does not parse back to itself, "
            << firstDifferingLine(again, twice) << "; input "
            << firstDifferingLine(text, again);
        EXPECT_EQ(back.individuals.size(), pop.individuals.size());
    } catch (const FatalError& err) {
        ADD_FAILURE() << "re-serialization does not parse: " << err.what()
                      << "; input " << firstDifferingLine(text, again);
    }
}

class PopulationFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(PopulationFuzzTest, MutatedCheckpointsKeepTheLoaderContract)
{
    // Byte, token and line mutations of real checkpoints, plus
    // truncation: a run killed mid-write leaves a prefix behind.
    const std::vector<PopulationSample>& corpus = populationCorpus();
    for (const PopulationSample& sample : corpus)
        expectPopulationContract(sample.lib, sample.text);
    static const std::vector<std::string> tokens = {
        "-1", "0", "1", "-0", "nan", "-nan", "inf", "1e999", "0x10",
        "4294967296", "9223372036854775808", "18446744073709551616",
        "99999999999999999999", " ", "\t", "\n", "\r", "end",
        "individual", "measurements", "code", "generation",
        "gest-population"};
    Rng rng(GetParam());
    for (int trial = 0; trial < 1000; ++trial) {
        const PopulationSample& sample = rng.pick(corpus);
        std::string mutated = sample.text;
        // Half the trials make one edit: most edits are fatal, and a
        // second one would hide what the first let through.
        const int edits =
            rng.nextBool(0.5) ? 1 : 2 + static_cast<int>(rng.nextBelow(3));
        for (int e = 0; e < edits && !mutated.empty(); ++e) {
            const std::size_t pos = rng.pickIndex(mutated.size());
            switch (rng.nextBelow(7)) {
              case 0: // flip to a random byte
                mutated[pos] = static_cast<char>(rng.nextBelow(256));
                break;
              case 1: // delete a byte
                mutated.erase(pos, 1);
                break;
              case 2: // insert a token
                mutated.insert(pos, rng.pick(tokens));
                break;
              case 3: { // replace a whitespace-delimited field
                const std::size_t begin =
                    mutated.find_last_of(" \n", pos) + 1;
                const std::size_t end = mutated.find_first_of(" \n", pos);
                mutated.replace(begin,
                                (end == std::string::npos ? mutated.size()
                                                          : end) -
                                    begin,
                                rng.pick(tokens));
                break;
              }
              case 4: { // replace a field of an `individual` record
                const std::size_t line = mutated.find("individual", pos);
                if (line == std::string::npos)
                    break;
                std::size_t begin = line;
                for (std::size_t f = 1 + rng.nextBelow(5);
                     f > 0 && begin != std::string::npos; --f)
                    begin = mutated.find(' ', begin + 1);
                if (begin == std::string::npos)
                    break;
                const std::size_t end =
                    mutated.find_first_of(" \n", begin + 1);
                mutated.replace(begin + 1,
                                (end == std::string::npos ? mutated.size()
                                                          : end) -
                                    begin - 1,
                                rng.pick(tokens));
                break;
              }
              case 5: // truncate
                mutated.resize(pos);
                break;
              default: { // duplicate the line holding pos
                const std::size_t begin = mutated.rfind('\n', pos);
                const std::size_t from =
                    begin == std::string::npos ? 0 : begin + 1;
                const std::size_t end = mutated.find('\n', pos);
                mutated.insert(from, mutated.substr(
                                         from, end == std::string::npos
                                                   ? std::string::npos
                                                   : end + 1 - from));
                break;
              }
            }
        }
        expectPopulationContract(sample.lib, mutated);
        if (HasFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PopulationFuzzTest,
                         ::testing::Values(4001, 4002, 4003, 4004));

// The fuzzer's findings, minimized.

TEST(PopulationFuzzRegression, IdsAreUnsigned64BitIntegers)
{
    // A negative parent id loaded as 2^64 - 1, whose own text then
    // loaded as INT64_MAX: ids went through a signed parse.
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    auto record = [](const std::string& individual) {
        return "gest-population 1\ngeneration 0\n" + individual +
               "\nmeasurements 0\ncode 0\nend\n";
    };
    const std::string top = record(
        "individual 18446744073709551615 9223372036854775808 1 0 1");
    EXPECT_EQ(core::serializePopulation(
                  lib, core::deserializePopulation(lib, top, "top.pop")),
              top);
    for (const char* bad :
         {"individual -1 0 0 0 1", "individual 1 -1 0 0 1",
          "individual 1 0 18446744073709551616 0 1"}) {
        try {
            core::deserializePopulation(lib, record(bad), "bad.pop");
            ADD_FAILURE() << bad << " loaded";
        } catch (const FatalError& err) {
            EXPECT_TRUE(startsWith(err.what(), "bad.pop:3: "))
                << err.what();
        }
    }
}

TEST(PopulationFuzzRegression, NarrowFieldsRejectWhatDoesNotFit)
{
    // The generation and operand choices were cast from a 64-bit parse:
    // 2^32 loaded as generation 0 and as operand choice 0.
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    Rng rng(3);
    const isa::InstructionInstance gene = lib.randomInstance(rng);
    ASSERT_FALSE(gene.operandChoice.empty());
    std::string operands;
    for (std::size_t s = 0; s + 1 < gene.operandChoice.size(); ++s)
        operands += " " + std::to_string(gene.operandChoice[s]);
    const std::string name = lib.instruction(gene.defIndex).name;
    auto text = [&](const std::string& generation,
                    const std::string& last_choice) {
        return "gest-population 1\ngeneration " + generation +
               "\nindividual 1 0 0 0 1\nmeasurements 0\ncode 1\n" +
               name + operands + " " + last_choice + "\nend\n";
    };
    const std::string last = std::to_string(gene.operandChoice.back());
    EXPECT_NO_THROW(core::deserializePopulation(lib, text("7", last), "ok"));
    EXPECT_THROW(core::deserializePopulation(lib, text("4294967296", last),
                                             "gen"),
                 FatalError);
    EXPECT_THROW(core::deserializePopulation(
                     lib, text("7", std::to_string(4294967296ULL +
                                                   gene.operandChoice.back())),
                     "choice"),
                 FatalError);
}

} // namespace
} // namespace gest
