/**
 * @file
 * Unit tests for the GA engine: parameters, operators, populations.
 */

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "core/engine.hh"
#include "isa/standard_libs.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"

namespace gest {
namespace core {
namespace {

/**
 * Deterministic synthetic measurement: the value is the number of
 * instructions of a target class, so the known global optimum is an
 * individual made entirely of that class.
 */
class ClassCountMeasurement : public measure::Measurement
{
  public:
    ClassCountMeasurement(const isa::InstructionLibrary& lib,
                          isa::InstrClass target)
        : _lib(lib), _target(target)
    {}

    measure::MeasurementResult
    measure(const std::vector<isa::InstructionInstance>& code) override
    {
        ++calls;
        double count = 0.0;
        for (const isa::InstructionInstance& inst : code) {
            if (_lib.instruction(inst.defIndex).cls == _target)
                count += 1.0;
        }
        return {{count, static_cast<double>(code.size())}};
    }

    std::vector<std::string>
    valueNames() const override
    {
        return {"target_count", "size"};
    }

    std::string name() const override { return "ClassCountMeasurement"; }

    int calls = 0;

  private:
    const isa::InstructionLibrary& _lib;
    isa::InstrClass _target;
};

GaParams
smallParams()
{
    GaParams params;
    params.populationSize = 20;
    params.individualSize = 12;
    params.mutationRate = 0.08;
    params.generations = 15;
    params.seed = 7;
    return params;
}

// ------------------------------------------------------------ GaParams

TEST(GaParams, DefaultsMatchPaperTableOne)
{
    const GaParams params;
    EXPECT_EQ(params.populationSize, 50);
    EXPECT_GE(params.individualSize, 15);
    EXPECT_LE(params.individualSize, 50);
    EXPECT_GE(params.mutationRate, 0.02);
    EXPECT_LE(params.mutationRate, 0.08);
    EXPECT_EQ(params.crossover, CrossoverOperator::OnePoint);
    EXPECT_EQ(params.selection, SelectionMethod::Tournament);
    EXPECT_EQ(params.tournamentSize, 5);
    EXPECT_TRUE(params.elitism);
    EXPECT_NO_THROW(params.validate());
}

TEST(GaParams, MutationRateRuleOfThumb)
{
    // 2% for 50-instruction loops, 8% for 15 (paper §III.A, rounded).
    EXPECT_NEAR(GaParams::mutationRateForSize(50), 0.02, 1e-9);
    EXPECT_NEAR(GaParams::mutationRateForSize(15), 0.0667, 1e-3);
    EXPECT_THROW(GaParams::mutationRateForSize(0), FatalError);
}

TEST(GaParams, DidtLoopLengthRule)
{
    // IPC * f_clk / f_res: 1.5 * 3.1e9 / 1e8 = 46.5 -> 46..47.
    const int len = GaParams::didtLoopLength(1.5, 3.1, 100e6);
    EXPECT_GE(len, 46);
    EXPECT_LE(len, 47);
    EXPECT_THROW(GaParams::didtLoopLength(0, 3.1, 1e8), FatalError);
}

TEST(GaParams, ValidationBounds)
{
    GaParams params = smallParams();
    params.populationSize = 1;
    EXPECT_THROW(params.validate(), FatalError);
    params = smallParams();
    params.mutationRate = 1.5;
    EXPECT_THROW(params.validate(), FatalError);
    params = smallParams();
    params.tournamentSize = 100;
    EXPECT_THROW(params.validate(), FatalError);
    params = smallParams();
    params.generations = 0;
    EXPECT_THROW(params.validate(), FatalError);
}

TEST(GaParams, EnumStringRoundTrips)
{
    EXPECT_EQ(crossoverFromString("one_point"),
              CrossoverOperator::OnePoint);
    EXPECT_EQ(crossoverFromString("UNIFORM"), CrossoverOperator::Uniform);
    EXPECT_THROW(crossoverFromString("two_point"), FatalError);
    EXPECT_EQ(selectionFromString("tournament"),
              SelectionMethod::Tournament);
    EXPECT_EQ(selectionFromString("roulette"), SelectionMethod::Roulette);
    EXPECT_THROW(selectionFromString("rank"), FatalError);
    EXPECT_STREQ(toString(CrossoverOperator::OnePoint), "one_point");
    EXPECT_STREQ(toString(SelectionMethod::Roulette), "roulette");
}

// ----------------------------------------------------------- Operators

Population
gradedPopulation(int size)
{
    Population pop;
    for (int i = 0; i < size; ++i) {
        Individual ind;
        ind.id = static_cast<std::uint64_t>(i + 1);
        ind.fitness = static_cast<double>(i);
        ind.evaluated = true;
        pop.individuals.push_back(ind);
    }
    return pop;
}

TEST(Operators, TournamentPrefersFitterIndividuals)
{
    const Population pop = gradedPopulation(50);
    Rng rng(3);
    double sum = 0.0;
    const int draws = 2000;
    for (int i = 0; i < draws; ++i)
        sum += pop.individuals[tournamentSelect(pop, 5, rng)].fitness;
    // Expected max of 5 uniform draws from 0..49 is ~41; far above the
    // population mean of 24.5.
    EXPECT_GT(sum / draws, 35.0);
}

TEST(Operators, TournamentSizeOneIsUniform)
{
    const Population pop = gradedPopulation(50);
    Rng rng(4);
    double sum = 0.0;
    const int draws = 4000;
    for (int i = 0; i < draws; ++i)
        sum += pop.individuals[tournamentSelect(pop, 1, rng)].fitness;
    EXPECT_NEAR(sum / draws, 24.5, 1.5);
}

TEST(Operators, RoulettePrefersFitterIndividuals)
{
    const Population pop = gradedPopulation(50);
    Rng rng(5);
    double sum = 0.0;
    const int draws = 4000;
    for (int i = 0; i < draws; ++i)
        sum += pop.individuals[rouletteSelect(pop, rng)].fitness;
    // Fitness-proportional expectation: sum(f^2)/sum(f) ~ 32.8.
    EXPECT_GT(sum / draws, 29.0);
}

TEST(Operators, RouletteHandlesNegativeFitness)
{
    Population pop = gradedPopulation(10);
    for (Individual& ind : pop.individuals)
        ind.fitness -= 100.0;
    Rng rng(6);
    for (int i = 0; i < 100; ++i)
        EXPECT_LT(rouletteSelect(pop, rng), pop.individuals.size());
}

Individual
individualOf(const isa::InstructionLibrary& lib, const char* name, int n,
             std::uint64_t id)
{
    Individual ind;
    ind.id = id;
    Rng rng(id);
    const int def = lib.findInstruction(name);
    for (int i = 0; i < n; ++i)
        ind.code.push_back(
            lib.randomInstanceOf(static_cast<std::size_t>(def), rng));
    return ind;
}

TEST(Operators, OnePointCrossoverSwapsTails)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const Individual p1 = individualOf(lib, "ADD", 10, 1);
    const Individual p2 = individualOf(lib, "FMUL", 10, 2);
    Rng rng(7);
    const auto [c1, c2] = onePointCrossover(p1, p2, rng);

    ASSERT_EQ(c1.code.size(), 10u);
    ASSERT_EQ(c2.code.size(), 10u);
    EXPECT_EQ(c1.parent1, p1.id);
    EXPECT_EQ(c1.parent2, p2.id);

    // Find the cut: a prefix from p1, a suffix from p2 (Figure 3).
    const std::uint32_t add =
        static_cast<std::uint32_t>(lib.findInstruction("ADD"));
    std::size_t cut = 0;
    while (cut < 10 && c1.code[cut].defIndex == add)
        ++cut;
    EXPECT_GT(cut, 0u);
    EXPECT_LT(cut, 10u);
    for (std::size_t i = 0; i < 10; ++i) {
        EXPECT_EQ(c1.code[i], i < cut ? p1.code[i] : p2.code[i]);
        EXPECT_EQ(c2.code[i], i < cut ? p2.code[i] : p1.code[i]);
    }
}

TEST(Operators, UniformCrossoverMixesGenesPerPosition)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const Individual p1 = individualOf(lib, "ADD", 40, 1);
    const Individual p2 = individualOf(lib, "FMUL", 40, 2);
    Rng rng(8);
    const auto [c1, c2] = uniformCrossover(p1, p2, rng);

    const std::uint32_t add =
        static_cast<std::uint32_t>(lib.findInstruction("ADD"));
    int from_p1 = 0;
    int switches = 0;
    for (std::size_t i = 0; i < 40; ++i) {
        const bool is_p1 = c1.code[i].defIndex == add;
        from_p1 += is_p1;
        if (i > 0 &&
            is_p1 != (c1.code[i - 1].defIndex == add))
            ++switches;
        // Children are complementary.
        EXPECT_NE(c1.code[i].defIndex == add,
                  c2.code[i].defIndex == add);
    }
    EXPECT_GT(from_p1, 8);
    EXPECT_LT(from_p1, 32);
    // Uniform crossover destroys order: many alternations, unlike the
    // single switch of one-point crossover.
    EXPECT_GT(switches, 5);
}

TEST(Operators, CrossoverSizeMismatchPanics)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const Individual p1 = individualOf(lib, "ADD", 10, 1);
    const Individual p2 = individualOf(lib, "ADD", 12, 2);
    Rng rng(9);
    EXPECT_DEATH((void)onePointCrossover(p1, p2, rng), "crossover");
}

TEST(Operators, MutationRateZeroChangesNothing)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    Individual ind = individualOf(lib, "ADD", 30, 1);
    const Individual before = ind;
    GaParams params = smallParams();
    params.mutationRate = 0.0;
    Rng rng(10);
    EXPECT_EQ(mutate(ind, lib, params, rng), 0);
    EXPECT_EQ(ind.code, before.code);
}

TEST(Operators, MutationRateOneTouchesEveryGene)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    Individual ind = individualOf(lib, "ADD", 30, 1);
    GaParams params = smallParams();
    params.mutationRate = 1.0;
    Rng rng(11);
    EXPECT_EQ(mutate(ind, lib, params, rng), 30);
}

TEST(Operators, MutationCountMatchesRateOnAverage)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    GaParams params = smallParams();
    params.mutationRate = 0.02;
    Rng rng(12);
    int total = 0;
    const int trials = 500;
    for (int t = 0; t < trials; ++t) {
        Individual ind = individualOf(lib, "ADD", 50, 1);
        total += mutate(ind, lib, params, rng);
    }
    // The paper's rule: ~1 mutated instruction per 50-long individual.
    EXPECT_NEAR(static_cast<double>(total) / trials, 1.0, 0.2);
}

TEST(Operators, MutationReportsIndicesWithoutPerturbingTheRng)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    GaParams params = smallParams();
    params.mutationRate = 0.3;

    // Same seed with and without the out-parameter: identical result
    // genome (recording is a pure observation), and the reported
    // indices are exactly the genes that changed.
    Individual recorded = individualOf(lib, "ADD", 20, 1);
    const Individual before = recorded;
    Rng rng1(17);
    std::vector<std::uint32_t> indices;
    const int count = mutate(recorded, lib, params, rng1, &indices);
    EXPECT_EQ(static_cast<int>(indices.size()), count);
    ASSERT_GT(count, 0);

    Individual plain = individualOf(lib, "ADD", 20, 1);
    Rng rng2(17);
    EXPECT_EQ(mutate(plain, lib, params, rng2), count);
    EXPECT_EQ(plain.code, recorded.code);

    // Every changed gene is reported (a reported gene may still
    // compare equal: an operand redraw can land on the same value).
    const std::set<std::uint32_t> mutated(indices.begin(),
                                          indices.end());
    for (std::uint32_t i = 0; i < before.code.size(); ++i) {
        if (!mutated.count(i))
            EXPECT_EQ(recorded.code[i], before.code[i]) << i;
    }
    EXPECT_TRUE(recorded.code != before.code);
}

TEST(Operators, MutatedGenesRemainValid)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    GaParams params = smallParams();
    params.mutationRate = 0.5;
    Rng rng(13);
    for (int t = 0; t < 50; ++t) {
        Individual ind = individualOf(lib, "LDR", 20, 1);
        mutate(ind, lib, params, rng);
        for (const isa::InstructionInstance& inst : ind.code)
            EXPECT_TRUE(lib.valid(inst));
    }
}

// ---------------------------------------------------------- Population

TEST(Population, BestAndAverage)
{
    Population pop = gradedPopulation(5);
    EXPECT_EQ(pop.bestIndex(), 4);
    EXPECT_DOUBLE_EQ(pop.best().fitness, 4.0);
    EXPECT_DOUBLE_EQ(pop.averageFitness(), 2.0);

    pop.individuals[2].evaluated = false;
    pop.individuals[4].evaluated = false;
    EXPECT_EQ(pop.bestIndex(), 3);
}

TEST(Population, GenotypeDiversityBounds)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();

    // Clones: exactly 1/N distinct definitions per position.
    Population clones;
    Rng rng(40);
    Individual proto;
    proto.id = 1;
    for (int g = 0; g < 10; ++g)
        proto.code.push_back(lib.randomInstance(rng));
    for (int i = 0; i < 10; ++i)
        clones.individuals.push_back(proto);
    EXPECT_NEAR(clones.genotypeDiversity(), 0.1, 1e-9);

    // Random population: far more diverse.
    Population random_pop;
    for (int i = 0; i < 10; ++i) {
        Individual ind;
        ind.id = static_cast<std::uint64_t>(i);
        for (int g = 0; g < 10; ++g)
            ind.code.push_back(lib.randomInstance(rng));
        random_pop.individuals.push_back(std::move(ind));
    }
    EXPECT_GT(random_pop.genotypeDiversity(),
              clones.genotypeDiversity() * 3.0);
    EXPECT_LE(random_pop.genotypeDiversity(), 1.0);

    EXPECT_DOUBLE_EQ(Population{}.genotypeDiversity(), 0.0);
}

TEST(Engine, DiversityCollapsesAsSearchConverges)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    ClassCountMeasurement meas(lib, isa::InstrClass::FloatSimd);
    fitness::DefaultFitness fit;
    GaParams params = smallParams();
    params.generations = 25;

    core::Engine engine(params, lib, meas, fit);
    engine.run();
    const auto& history = engine.history();
    // Selection pressure shrinks genotype diversity over the run.
    EXPECT_LT(history.back().diversity,
              history.front().diversity * 0.8);
    EXPECT_GT(history.front().diversity, 0.3);
}

TEST(Population, EmptyPopulationHasNoBest)
{
    const Population pop;
    EXPECT_EQ(pop.bestIndex(), -1);
    EXPECT_DOUBLE_EQ(pop.averageFitness(), 0.0);
}

TEST(Population, SerializeRoundTrips)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    Population pop;
    pop.generation = 7;
    Rng rng(20);
    for (int i = 0; i < 5; ++i) {
        Individual ind;
        ind.id = static_cast<std::uint64_t>(100 + i);
        ind.parent1 = 3;
        ind.parent2 = 4;
        ind.fitness = 1.25 * i;
        ind.evaluated = i % 2 == 0;
        ind.measurements = {1.5 * i, -2.0};
        for (int g = 0; g < 8; ++g)
            ind.code.push_back(lib.randomInstance(rng));
        pop.individuals.push_back(std::move(ind));
    }

    const Population again =
        deserializePopulation(lib, serializePopulation(lib, pop), "<test>");
    ASSERT_EQ(again.individuals.size(), 5u);
    EXPECT_EQ(again.generation, 7);
    for (std::size_t i = 0; i < 5; ++i) {
        const Individual& a = pop.individuals[i];
        const Individual& b = again.individuals[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.parent1, b.parent1);
        EXPECT_EQ(a.evaluated, b.evaluated);
        EXPECT_DOUBLE_EQ(a.fitness, b.fitness);
        EXPECT_EQ(a.measurements, b.measurements);
        EXPECT_EQ(a.code, b.code);
    }
}

TEST(Population, SerializedTextIsPinned)
{
    // The checkpoint format byte for byte: doubles at 17 significant
    // digits (signed zero, infinities, NaN, the smallest subnormal, a
    // value with no short decimal form), an empty measurement list, an
    // empty body and ids past INT64_MAX.
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const double inf = std::numeric_limits<double>::infinity();
    Population pop;
    pop.generation = 12;
    Rng rng(31);
    Individual edge;
    edge.id = std::numeric_limits<std::uint64_t>::max();
    edge.parent1 = 9223372036854775808ULL;
    edge.parent2 = 0;
    edge.fitness = -0.0;
    edge.evaluated = true;
    edge.measurements = {0.1, 5e-324, 1e300, inf, -inf,
                         std::numeric_limits<double>::quiet_NaN()};
    for (int g = 0; g < 3; ++g)
        edge.code.push_back(lib.randomInstance(rng));
    pop.individuals.push_back(edge);
    Individual bare;
    bare.id = 42;
    bare.parent1 = 7;
    bare.parent2 = 8;
    bare.fitness = std::numeric_limits<double>::quiet_NaN();
    pop.individuals.push_back(bare);
    Individual plain;
    plain.id = 43;
    plain.fitness = inf;
    plain.evaluated = true;
    plain.measurements = {-0.0, 2.2250738585072014e-308,
                          123456789012345678.0, 1.0 / 3.0, -1.5e-7,
                          1e21, 100.0};
    plain.code.push_back(lib.randomInstance(rng));
    pop.individuals.push_back(plain);

    EXPECT_EQ(serializePopulation(lib, pop),
              "gest-population 1\n"
              "generation 12\n"
              "individual 18446744073709551615 9223372036854775808 0 -0 1\n"
              "measurements 6 0.10000000000000001 4.9406564584124654e-324 "
              "1.0000000000000001e+300 inf -inf nan\n"
              "code 3\n"
              "EOR 0 4 5\n"
              "FMLA 7 0 1\n"
              "BNEXT\n"
              "individual 42 7 8 nan 0\n"
              "measurements 0\n"
              "code 0\n"
              "individual 43 0 0 inf 1\n"
              "measurements 7 -0 2.2250738585072014e-308 "
              "1.2345678901234568e+17 0.33333333333333331 "
              "-1.4999999999999999e-07 1e+21 100\n"
              "code 1\n"
              "MADD 5 4 0 4\n"
              "end\n");
}

TEST(Population, DeserializeRejectsGarbage)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    EXPECT_THROW(deserializePopulation(lib, "not a population", "<test>"),
                 FatalError);
    EXPECT_THROW(deserializePopulation(lib, "gest-population 1\n", "<test>"),
                 FatalError);
    EXPECT_THROW(
        deserializePopulation(
            lib, "gest-population 1\ngeneration 0\n"
                 "individual 1 0 0 0.5 1\nmeasurements 0\ncode 1\n"
                 "UNKNOWN_INSTR 0 0\nend\n",
            "<test>"),
        FatalError);
}

TEST(Population, LoaderErrorTextsArePinned)
{
    // The loader's error texts and `<source>:<line>` positions, word for
    // word, on malformed inputs; CRLF line ends load like LF ones.
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const std::vector<std::string> base = {
        "gest-population 1",    "generation 3",
        "individual 1 0 0 0.5 1", "measurements 2 0.25 0.75",
        "code 2",               "EOR 0 4 5",
        "BNEXT",                "end"};
    // The population of @p lines (line @p at replaced by @p with, or
    // dropped when @p with is null), ended by @p eol.
    const auto text = [&](std::size_t at, const char* with,
                          const char* eol) {
        std::string out;
        for (std::size_t i = 0; i < base.size(); ++i) {
            if (i + 1 == at && !with)
                continue;
            out += i + 1 == at ? with : base[i];
            out += eol;
        }
        return out;
    };
    const auto error = [&](const std::string& pop_text) -> std::string {
        try {
            deserializePopulation(lib, pop_text, "<test>");
        } catch (const FatalError& err) {
            return err.what();
        }
        return "loaded";
    };

    const std::string lf = text(0, nullptr, "\n");
    const std::string crlf = text(0, nullptr, "\r\n");
    EXPECT_EQ(serializePopulation(lib,
                                  deserializePopulation(lib, crlf, "<t>")),
              lf);
    EXPECT_EQ(error(text(3, "individual 1 0 0 0.5", "\r\n")),
              "<test>:3: expected 'individual' record, got "
              "'individual 1 0 0 0.5'");
    EXPECT_EQ(error(text(8, nullptr, "\n")),
              "<test>:8: unexpected end of file");
    EXPECT_EQ(error(text(6, "VFOO 0 4 5", "\n")),
              "<test>:6: instruction 'VFOO' is not in the current "
              "library");
    EXPECT_EQ(error(text(6, "EOR 0 4 4294967296", "\n")),
              "<test>:6: operand choice '4294967296' is out of range");
    EXPECT_EQ(error(text(6, "EOR 0 4 99", "\n")),
              "<test>:6: invalid encoding of instruction 'EOR'");
    EXPECT_EQ(error(text(4, "measurements 3 0.25 0.75", "\n")),
              "<test>:4: measurement count mismatch");
    EXPECT_EQ(error(text(4, "measurements 2 0.25 x", "\n")),
              "<test>:4: malformed number 'x' for measurement value");
    EXPECT_EQ(error(text(3, "individual 1 -2 0 0.5 1", "\n")),
              "<test>:3: expected a non-negative integer for parent1, "
              "got '-2'");
}

TEST(Population, SaveLoadFile)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const std::string dir = makeTempDir("gest-pop");
    Population pop;
    pop.generation = 3;
    Rng rng(22);
    Individual ind;
    ind.id = 1;
    ind.code.push_back(lib.randomInstance(rng));
    pop.individuals.push_back(ind);
    savePopulation(lib, pop, dir + "/p.pop");
    const Population loaded = loadPopulation(lib, dir + "/p.pop");
    EXPECT_EQ(loaded.generation, 3);
    EXPECT_EQ(loaded.individuals.size(), 1u);
    removeAll(dir);
}

// -------------------------------------------------------------- Engine

TEST(Engine, ConvergesTowardKnownOptimum)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    ClassCountMeasurement meas(lib, isa::InstrClass::FloatSimd);
    fitness::DefaultFitness fit;
    GaParams params = smallParams();
    params.generations = 30;

    core::Engine engine(params, lib, meas, fit);
    engine.run();

    // Random individuals average ~12/50 FloatSimd genes for this
    // library; the GA must get close to all-FloatSimd.
    EXPECT_GE(engine.bestEver().fitness, 10.0);
    EXPECT_GT(engine.history().back().bestFitness,
              engine.history().front().bestFitness);
}

TEST(Engine, DeterministicForEqualSeeds)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    fitness::DefaultFitness fit;
    const GaParams params = smallParams();

    ClassCountMeasurement m1(lib, isa::InstrClass::Mem);
    core::Engine e1(params, lib, m1, fit);
    e1.run();

    ClassCountMeasurement m2(lib, isa::InstrClass::Mem);
    core::Engine e2(params, lib, m2, fit);
    e2.run();

    ASSERT_EQ(e1.history().size(), e2.history().size());
    for (std::size_t g = 0; g < e1.history().size(); ++g) {
        EXPECT_DOUBLE_EQ(e1.history()[g].bestFitness,
                         e2.history()[g].bestFitness);
        EXPECT_DOUBLE_EQ(e1.history()[g].averageFitness,
                         e2.history()[g].averageFitness);
    }
    EXPECT_EQ(e1.bestEver().code, e2.bestEver().code);
}

TEST(Engine, DifferentSeedsExploreDifferently)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    fitness::DefaultFitness fit;
    GaParams params = smallParams();

    ClassCountMeasurement m1(lib, isa::InstrClass::Mem);
    core::Engine e1(params, lib, m1, fit);
    e1.initialize();

    params.seed = 8888;
    ClassCountMeasurement m2(lib, isa::InstrClass::Mem);
    core::Engine e2(params, lib, m2, fit);
    e2.initialize();

    EXPECT_NE(e1.population().individuals[0].code,
              e2.population().individuals[0].code);
}

class ElitismTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ElitismTest, BestFitnessIsMonotoneUnderElitism)
{
    // Property: with elitism and a deterministic measurement, the best
    // fitness never decreases across generations — for any seed.
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    ClassCountMeasurement meas(lib, isa::InstrClass::Branch);
    fitness::DefaultFitness fit;
    GaParams params = smallParams();
    params.seed = GetParam();
    params.generations = 12;

    core::Engine engine(params, lib, meas, fit);
    engine.run();
    double last = -1.0;
    for (const GenerationRecord& record : engine.history()) {
        EXPECT_GE(record.bestFitness, last);
        last = record.bestFitness;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElitismTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Engine, PopulationSizeIsStable)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    ClassCountMeasurement meas(lib, isa::InstrClass::Mem);
    fitness::DefaultFitness fit;
    GaParams params = smallParams();
    params.populationSize = 21; // odd: breeding must trim the pair

    core::Engine engine(params, lib, meas, fit);
    engine.initialize();
    EXPECT_EQ(engine.population().individuals.size(), 21u);
    while (engine.step()) {
    }
    EXPECT_EQ(engine.population().individuals.size(), 21u);
}

TEST(Engine, ElitePreservedWithoutReevaluation)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    ClassCountMeasurement meas(lib, isa::InstrClass::Mem);
    fitness::DefaultFitness fit;
    GaParams params = smallParams();
    params.generations = 2;

    core::Engine engine(params, lib, meas, fit);
    engine.initialize();
    const std::uint64_t best_id = engine.population().best().id;
    const int calls_after_init = meas.calls;
    engine.step();
    // The elite appears in the new generation with the same id and was
    // not measured again.
    EXPECT_EQ(engine.population().individuals.front().id, best_id);
    EXPECT_EQ(meas.calls,
              calls_after_init + params.populationSize - 1);
}

TEST(Engine, SeedPopulationResumesSearch)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    fitness::DefaultFitness fit;
    GaParams params = smallParams();
    params.generations = 5;

    ClassCountMeasurement m1(lib, isa::InstrClass::FloatSimd);
    core::Engine first(params, lib, m1, fit);
    first.run();
    const double first_best = first.bestEver().fitness;

    ClassCountMeasurement m2(lib, isa::InstrClass::FloatSimd);
    core::Engine second(params, lib, m2, fit);
    second.setSeedPopulation(first.population());
    second.run();
    EXPECT_GE(second.bestEver().fitness, first_best);
}

TEST(Engine, SeedPopulationValidatesShape)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    ClassCountMeasurement meas(lib, isa::InstrClass::Mem);
    fitness::DefaultFitness fit;
    core::Engine engine(smallParams(), lib, meas, fit);

    Population bad;
    Individual ind;
    ind.id = 1;
    Rng rng(1);
    ind.code.push_back(lib.randomInstance(rng)); // wrong size (1 vs 12)
    bad.individuals.push_back(ind);
    EXPECT_THROW(engine.setSeedPopulation(bad), FatalError);
    EXPECT_THROW(engine.setSeedPopulation(Population{}), FatalError);
}

TEST(Engine, ObserverSeesEveryGeneration)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    ClassCountMeasurement meas(lib, isa::InstrClass::Mem);
    fitness::DefaultFitness fit;
    GaParams params = smallParams();
    params.generations = 6;

    core::Engine engine(params, lib, meas, fit);
    int called = 0;
    engine.addGenerationObserver(
        [&called](const Population& pop, const GenerationRecord& rec) {
            EXPECT_EQ(pop.generation, rec.generation);
            EXPECT_EQ(rec.generation, called);
            ++called;
        });
    engine.run();
    EXPECT_EQ(called, 6);
}

TEST(Engine, StagnationEarlyStopEndsSaturatedSearch)
{
    // A constant fitness saturates immediately: with a stagnation
    // limit the run ends after limit+1 generations, not the full
    // budget.
    class ConstantMeasurement : public measure::Measurement
    {
      public:
        measure::MeasurementResult
        measure(const std::vector<isa::InstructionInstance>&) override
        {
            return {{1.0}};
        }
        std::vector<std::string>
        valueNames() const override
        {
            return {"c"};
        }
        std::string name() const override { return "Constant"; }
    };

    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    ConstantMeasurement meas;
    fitness::DefaultFitness fit;
    GaParams params = smallParams();
    params.generations = 50;
    params.stagnationLimit = 4;

    core::Engine engine(params, lib, meas, fit);
    engine.run();
    EXPECT_LE(engine.history().size(), 6u);
    EXPECT_GE(engine.history().size(), 5u);

    // Without the limit the full budget is spent.
    ConstantMeasurement meas2;
    core::Engine full(smallParams(), lib, meas2, fit);
    full.run();
    EXPECT_EQ(full.history().size(),
              static_cast<std::size_t>(smallParams().generations));
}

TEST(Engine, StagnationLimitValidated)
{
    GaParams params = smallParams();
    params.stagnationLimit = -1;
    EXPECT_THROW(params.validate(), FatalError);
}

TEST(Engine, RouletteSelectionAlsoConverges)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    ClassCountMeasurement meas(lib, isa::InstrClass::Mem);
    fitness::DefaultFitness fit;
    GaParams params = smallParams();
    params.selection = SelectionMethod::Roulette;
    params.generations = 20;

    core::Engine engine(params, lib, meas, fit);
    engine.run();
    EXPECT_GT(engine.history().back().bestFitness,
              engine.history().front().bestFitness);
}

TEST(Engine, UniformCrossoverAlsoConverges)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    ClassCountMeasurement meas(lib, isa::InstrClass::FloatSimd);
    fitness::DefaultFitness fit;
    GaParams params = smallParams();
    params.crossover = CrossoverOperator::Uniform;
    params.generations = 20;

    core::Engine engine(params, lib, meas, fit);
    engine.run();
    EXPECT_GT(engine.history().back().bestFitness,
              engine.history().front().bestFitness);
}

TEST(Individual, BreakdownAndUniqueCount)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    Individual ind;
    ind.code.push_back(lib.makeInstance("ADD", {"x4", "x5", "x6"}));
    ind.code.push_back(lib.makeInstance("ADD", {"x7", "x8", "x9"}));
    ind.code.push_back(lib.makeInstance("FMUL", {"v0", "v1", "v2"}));
    ind.code.push_back(lib.makeInstance("LDR", {"x2", "x10", "8"}));
    ind.code.push_back(lib.makeInstance("BNEXT", {}));

    EXPECT_EQ(uniqueInstructionCount(ind), 4u);
    const auto breakdown = classBreakdown(lib, ind);
    EXPECT_EQ(breakdown[static_cast<std::size_t>(
                  isa::InstrClass::ShortInt)],
              2);
    EXPECT_EQ(breakdown[static_cast<std::size_t>(
                  isa::InstrClass::FloatSimd)],
              1);
    EXPECT_EQ(breakdown[static_cast<std::size_t>(isa::InstrClass::Mem)],
              1);
    EXPECT_EQ(breakdown[static_cast<std::size_t>(
                  isa::InstrClass::Branch)],
              1);
    const std::string text = breakdownToString(breakdown);
    EXPECT_NE(text.find("ShortInt=2"), std::string::npos);
    EXPECT_NE(text.find("Branch=1"), std::string::npos);

    const auto lines = renderLines(lib, ind);
    ASSERT_EQ(lines.size(), 5u);
    EXPECT_EQ(lines[0], "ADD x4, x5, x6");
}

} // namespace
} // namespace core
} // namespace gest
