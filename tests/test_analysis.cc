/**
 * @file
 * Unit tests for the evolution-analytics subsystem: population
 * analytics math against hand computations, the lineage ledger and its
 * parser, champion-ancestry reconstruction (including resumed runs),
 * the recorder attached to a real engine run, and the bit-identical
 * guarantee with analytics on versus off.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "analysis/analytics.hh"
#include "analysis/lineage.hh"
#include "analysis/recorder.hh"
#include "config/config.hh"
#include "core/engine.hh"
#include "isa/standard_libs.hh"
#include "run/pipeline.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"

namespace gest {
namespace analysis {
namespace {

/** Deterministic synthetic measurement: count of a target class. */
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

  private:
    const isa::InstructionLibrary& _lib;
    isa::InstrClass _target;
};

/** First definition index of the given class; panics if absent. */
std::size_t
defOfClass(const isa::InstructionLibrary& lib, isa::InstrClass cls)
{
    for (std::size_t i = 0; i < lib.numInstructions(); ++i) {
        if (lib.instruction(i).cls == cls)
            return i;
    }
    panic("library lacks class");
}

core::GaParams
smallParams()
{
    core::GaParams params;
    params.populationSize = 12;
    params.individualSize = 10;
    params.mutationRate = 0.08;
    params.generations = 8;
    params.seed = 21;
    return params;
}

// --------------------------------------------------- analytics math

TEST(Analytics, ClassMixMatchesHandComputation)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    Rng rng(3);
    const isa::InstructionInstance short_int =
        lib.randomInstanceOf(defOfClass(lib, isa::InstrClass::ShortInt),
                             rng);
    const isa::InstructionInstance mem =
        lib.randomInstanceOf(defOfClass(lib, isa::InstrClass::Mem), rng);
    const isa::InstructionInstance nop =
        lib.randomInstanceOf(defOfClass(lib, isa::InstrClass::Nop), rng);

    core::Population pop;
    core::Individual a, b;
    a.code = {short_int, short_int, mem};
    b.code = {mem, nop, short_int};
    pop.individuals = {a, b};

    // Hand count: 3 short-int, 2 mem, 1 nop over the six genes.
    const auto mix = populationClassMix(lib, pop);
    EXPECT_EQ(mix[static_cast<int>(isa::InstrClass::ShortInt)], 3u);
    EXPECT_EQ(mix[static_cast<int>(isa::InstrClass::Mem)], 2u);
    EXPECT_EQ(mix[static_cast<int>(isa::InstrClass::Nop)], 1u);
    EXPECT_EQ(mix[static_cast<int>(isa::InstrClass::LongInt)], 0u);
    EXPECT_EQ(mix[static_cast<int>(isa::InstrClass::FloatSimd)], 0u);
    EXPECT_EQ(mix[static_cast<int>(isa::InstrClass::Branch)], 0u);
}

TEST(Analytics, EntropyZeroForClonesOneBitForEvenSplit)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    Rng rng(4);
    const isa::InstructionInstance a = lib.randomInstance(rng);
    isa::InstructionInstance b = lib.randomInstance(rng);
    while (b.defIndex == a.defIndex)
        b = lib.randomInstance(rng);

    core::Population clones;
    for (int i = 0; i < 4; ++i) {
        core::Individual ind;
        ind.code = {a, a, a};
        clones.individuals.push_back(ind);
    }
    EXPECT_DOUBLE_EQ(geneEntropyBits(clones), 0.0);

    // Two individuals on defIndex A, two on B, at every position: the
    // per-position distribution is 50/50, i.e. exactly one bit.
    core::Population split = clones;
    split.individuals[2].code = {b, b, b};
    split.individuals[3].code = {b, b, b};
    EXPECT_NEAR(geneEntropyBits(split), 1.0, 1e-12);

    EXPECT_DOUBLE_EQ(geneEntropyBits(core::Population{}), 0.0);
}

TEST(Analytics, PairwiseDiversityBounds)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    Rng rng(5);
    const isa::InstructionInstance a = lib.randomInstance(rng);
    isa::InstructionInstance b = lib.randomInstance(rng);
    while (b.defIndex == a.defIndex)
        b = lib.randomInstance(rng);

    core::Population clones;
    for (int i = 0; i < 3; ++i) {
        core::Individual ind;
        ind.code = {a, a};
        clones.individuals.push_back(ind);
    }
    EXPECT_DOUBLE_EQ(pairwiseDiversity(clones), 0.0);

    // Two individuals differing at every gene: distance exactly 1.
    core::Population opposed;
    core::Individual i1, i2;
    i1.code = {a, a};
    i2.code = {b, b};
    opposed.individuals = {i1, i2};
    EXPECT_DOUBLE_EQ(pairwiseDiversity(opposed), 1.0);

    EXPECT_DOUBLE_EQ(pairwiseDiversity(core::Population{}), 0.0);
}

/** The all-pairs loop pairwiseDiversity() must match bit for bit. */
double
naivePairwiseDiversity(const core::Population& pop)
{
    const std::size_t n = pop.individuals.size();
    double total = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            const auto& a = pop.individuals[i].code;
            const auto& b = pop.individuals[j].code;
            const std::size_t len = std::max(a.size(), b.size());
            if (len == 0)
                continue;
            std::size_t differing = 0;
            for (std::size_t pos = 0; pos < len; ++pos) {
                if (pos >= a.size() || pos >= b.size() ||
                    !(a[pos] == b[pos]))
                    ++differing;
            }
            total += static_cast<double>(differing) /
                     static_cast<double>(len);
            ++pairs;
        }
    }
    return pairs > 0 ? total / static_cast<double>(pairs) : 0.0;
}

TEST(Analytics, PairwiseDiversityMatchesTheAllPairsReference)
{
    // Random populations of ragged length drawn from a small gene pool,
    // so positions repeat genes and some bodies are empty or equal.
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(seed);
        std::vector<isa::InstructionInstance> pool;
        const std::size_t pool_size = 1 + rng.nextBelow(6);
        for (std::size_t g = 0; g < pool_size; ++g)
            pool.push_back(lib.randomInstance(rng));
        core::Population pop;
        const std::size_t n = rng.nextBelow(30);
        for (std::size_t i = 0; i < n; ++i) {
            core::Individual ind;
            const std::size_t len = rng.nextBelow(12);
            for (std::size_t g = 0; g < len; ++g)
                ind.code.push_back(rng.pick(pool));
            pop.individuals.push_back(std::move(ind));
        }
        EXPECT_EQ(pairwiseDiversity(pop), naivePairwiseDiversity(pop))
            << "seed " << seed;
    }

    // The frozen start populations of the benchmark: bred bodies.
    const std::string dir = GEST_WORKLOADS_DIR;
    for (const auto& [name, config] :
         std::vector<std::pair<std::string, std::string>>{
             {"power_a15", "a15_power.xml"},
             {"didt_athlon", "athlon_didt.xml"},
             {"ipc_xgene2", "xgene2_ipc.xml"},
             {"llc_xgene2", "xgene2_llc_stress.xml"},
             {"outputs_a7", "a7_power.xml"}}) {
        const config::RunConfig cfg =
            config::loadConfig(dir + "/" + config);
        const core::Population pop = core::loadPopulation(
            cfg.library, dir + "/" + name + ".pop");
        ASSERT_GT(pop.individuals.size(), 1u) << name;
        EXPECT_EQ(pairwiseDiversity(pop), naivePairwiseDiversity(pop))
            << name;
    }
}

TEST(Analytics, FitnessQuartilesHandComputed)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    Rng rng(6);
    core::Population pop;
    for (int i = 0; i < 5; ++i) {
        core::Individual ind;
        ind.code = {lib.randomInstance(rng)};
        ind.fitness = static_cast<double>(5 - i); // 5,4,3,2,1
        ind.evaluated = true;
        pop.individuals.push_back(ind);
    }
    const AnalyticsRow row = computeAnalytics(lib, pop);
    EXPECT_DOUBLE_EQ(row.fitnessMin, 1.0);
    EXPECT_DOUBLE_EQ(row.fitnessQ1, 2.0);
    EXPECT_DOUBLE_EQ(row.fitnessMedian, 3.0);
    EXPECT_DOUBLE_EQ(row.fitnessQ3, 4.0);
    EXPECT_DOUBLE_EQ(row.fitnessMax, 5.0);
}

TEST(Analytics, WriterParserRoundTrip)
{
    const std::string dir = makeTempDir("gest-analysis");
    AnalyticsRow row;
    row.generation = 2;
    row.classMix[0] = 7;
    row.classMix[3] = 11;
    row.geneEntropyBits = 1.25;
    row.pairwiseDiversity = 0.5;
    row.fitnessMin = 0.5;
    row.fitnessQ1 = 0.75;
    row.fitnessMedian = 1.0;
    row.fitnessQ3 = 1.5;
    row.fitnessMax = 2.0;
    row.crossoverChildren = 4;
    row.crossoverImproved = 1;
    row.mutationChildren = 9;
    row.mutationImproved = 2;
    row.eliteCopies = 1;
    {
        AnalyticsWriter writer(dir + "/analytics.csv");
        writer.append(row);
    }
    std::vector<AnalyticsRow> rows;
    ASSERT_TRUE(tryLoadAnalytics(dir, rows));
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].generation, 2);
    EXPECT_EQ(rows[0].classMix, row.classMix);
    EXPECT_DOUBLE_EQ(rows[0].geneEntropyBits, 1.25);
    EXPECT_DOUBLE_EQ(rows[0].pairwiseDiversity, 0.5);
    EXPECT_DOUBLE_EQ(rows[0].fitnessQ3, 1.5);
    EXPECT_EQ(rows[0].mutationChildren, 9u);
    EXPECT_EQ(rows[0].eliteCopies, 1u);

    // Absent file: optional, not an error.
    std::vector<AnalyticsRow> none;
    EXPECT_FALSE(tryLoadAnalytics(dir + "/nowhere", none));
    removeAll(dir);
}

// ------------------------------------------------------------ ledger

TEST(LineageLedger, SealParseRoundTrip)
{
    const std::string dir = makeTempDir("gest-analysis");
    LineageLedger ledger(dir + "/lineage.csv");

    core::Population gen0;
    for (std::uint64_t id = 1; id <= 2; ++id) {
        core::Individual ind;
        ind.id = id;
        ind.fitness = static_cast<double>(id) * 0.5;
        ind.evaluated = true;
        gen0.individuals.push_back(ind);

        LineageEvent birth;
        birth.generation = 0;
        birth.id = id;
        birth.op = BirthOp::Seed;
        ledger.recordBirth(birth);
    }
    EXPECT_EQ(ledger.sealGeneration(gen0).size(), 2u);

    LineageEvent child;
    child.generation = 1;
    child.id = 3;
    child.op = BirthOp::Mutation;
    child.parent1 = 1;
    child.parent2 = 2;
    child.mutatedGenes = {4, 7};
    ledger.recordBirth(child);
    core::Population gen1;
    core::Individual ind;
    ind.id = 3;
    ind.fitness = 1.75;
    ind.evaluated = true;
    gen1.individuals.push_back(ind);
    ledger.sealGeneration(gen1);
    EXPECT_EQ(ledger.sealedEvents(), 3u);

    double fitness = 0.0;
    ASSERT_TRUE(ledger.fitnessOf(3, fitness));
    EXPECT_DOUBLE_EQ(fitness, 1.75);
    EXPECT_FALSE(ledger.fitnessOf(99, fitness));

    const std::vector<LineageEvent> events = loadLineage(dir);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].op, BirthOp::Seed);
    EXPECT_DOUBLE_EQ(events[0].fitness, 0.5);
    EXPECT_EQ(events[2].id, 3u);
    EXPECT_EQ(events[2].parent1, 1u);
    EXPECT_EQ(events[2].parent2, 2u);
    EXPECT_EQ(events[2].mutatedGenes,
              (std::vector<std::uint32_t>{4, 7}));
    EXPECT_DOUBLE_EQ(events[2].fitness, 1.75);
    removeAll(dir);
}

TEST(LineageLedger, ParserRejectsMalformedInput)
{
    EXPECT_THROW(parseLineage(""), FatalError);
    EXPECT_THROW(parseLineage("# gest-lineage v1\n"), FatalError);
    const std::string header =
        "generation,id,op,parent1,parent2,mutated_genes,"
        "mutated_indices,fitness\n";
    // Truncated row.
    EXPECT_THROW(parseLineage(header + "0,1,seed\n"), FatalError);
    // Unknown operator spelling.
    EXPECT_THROW(parseLineage(header + "0,1,teleport,0,0,0,,1.0\n"),
                 FatalError);
    // Wrong file type entirely.
    EXPECT_THROW(parseLineage("time,value\n0,1\n"), FatalError);
    // A well-formed file parses.
    EXPECT_EQ(parseLineage(header + "0,1,seed,0,0,0,,1.0\n").size(), 1u);
}

TEST(LineageLedger, LoadFatalsWithActionableMessageWhenAbsent)
{
    const std::string dir = makeTempDir("gest-analysis");
    try {
        loadLineage(dir);
        FAIL() << "expected FatalError";
    } catch (const FatalError& err) {
        EXPECT_NE(std::string(err.what()).find("analytics"),
                  std::string::npos);
    }
    removeAll(dir);
}

// -------------------------------------------------------- ancestry

LineageEvent
makeEvent(int generation, std::uint64_t id, BirthOp op,
          std::uint64_t parent1, std::uint64_t parent2, double fitness)
{
    LineageEvent event;
    event.generation = generation;
    event.id = id;
    event.op = op;
    event.parent1 = parent1;
    event.parent2 = parent2;
    event.fitness = fitness;
    return event;
}

TEST(Ancestry, FollowsFitterParentToGenerationZero)
{
    const std::vector<LineageEvent> events = {
        makeEvent(0, 1, BirthOp::Seed, 0, 0, 1.0),
        makeEvent(0, 2, BirthOp::Seed, 0, 0, 2.0),
        makeEvent(1, 3, BirthOp::Crossover, 1, 2, 1.5),
        makeEvent(2, 4, BirthOp::Mutation, 3, 2, 3.0),
    };
    const Ancestry anc = championAncestry(events);
    EXPECT_TRUE(anc.reachesGeneration0);
    EXPECT_EQ(anc.ancestorCount, 4u);
    EXPECT_TRUE(anc.unknownParents.empty());
    // Champion is id 4; the fitter of its parents (2 at 2.0 vs 3 at
    // 1.5) is the seed, so the primary line is 4 -> 2.
    ASSERT_EQ(anc.chain.size(), 2u);
    EXPECT_EQ(events[anc.chain[0]].id, 4u);
    EXPECT_EQ(events[anc.chain[1]].id, 2u);
    EXPECT_EQ(anc.opCounts[static_cast<int>(BirthOp::Seed)], 2u);
    EXPECT_EQ(anc.opCounts[static_cast<int>(BirthOp::Crossover)], 1u);
    EXPECT_EQ(anc.opCounts[static_cast<int>(BirthOp::Mutation)], 1u);
}

TEST(Ancestry, EliteCopyRowsDoNotObscureTheTrueBirth)
{
    const std::vector<LineageEvent> events = {
        makeEvent(0, 1, BirthOp::Seed, 0, 0, 2.0),
        makeEvent(1, 1, BirthOp::EliteCopy, 1, 1, 2.0),
        makeEvent(1, 2, BirthOp::Mutation, 1, 1, 2.5),
    };
    const Ancestry anc = championAncestry(events);
    EXPECT_TRUE(anc.reachesGeneration0);
    EXPECT_EQ(anc.ancestorCount, 2u);
    ASSERT_EQ(anc.chain.size(), 2u);
    // The chain lands on id 1's seed row, not the elite-copy re-record.
    EXPECT_EQ(events[anc.chain[1]].id, 1u);
    EXPECT_EQ(events[anc.chain[1]].op, BirthOp::Seed);
}

TEST(Ancestry, ResumedRunStopsGracefullyAtCheckpointParents)
{
    const std::vector<LineageEvent> events = {
        makeEvent(0, 5, BirthOp::Resumed, 100, 101, 1.0),
        makeEvent(0, 6, BirthOp::Seed, 0, 0, 0.5),
        makeEvent(1, 7, BirthOp::Mutation, 5, 6, 2.0),
    };
    const Ancestry anc = championAncestry(events);
    // The resumed row sits at generation 0, so the chain still closes,
    // but the checkpoint parents are surfaced instead of chased.
    EXPECT_TRUE(anc.reachesGeneration0);
    EXPECT_EQ(anc.unknownParents,
              (std::vector<std::uint64_t>{100, 101}));
    ASSERT_EQ(anc.chain.size(), 2u);
    EXPECT_EQ(events[anc.chain[1]].op, BirthOp::Resumed);
}

TEST(Ancestry, EmptyLedgerFatals)
{
    EXPECT_THROW(championAncestry({}), FatalError);
}

// ------------------------------------------- recorder on a real run

TEST(Recorder, ReplayedRunReconstructsChampionToGenerationZero)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    ClassCountMeasurement meas(lib, isa::InstrClass::FloatSimd);
    fitness::DefaultFitness fit;
    const core::GaParams params = smallParams();
    const std::string dir = makeTempDir("gest-analysis");

    core::Engine engine(params, lib, meas, fit);
    run::RunPipeline pipeline(dir + "/status.json", params.generations);
    pipeline.recorder = std::make_unique<Recorder>(dir, lib);
    const Recorder& recorder = *pipeline.recorder;
    pipeline.attach(engine);
    engine.run();
    pipeline.finish();

    // The ledger replays to the champion the engine actually found.
    const std::vector<LineageEvent> events = loadLineage(dir);
    const Ancestry anc = championAncestry(events);
    EXPECT_TRUE(anc.reachesGeneration0);
    EXPECT_TRUE(anc.unknownParents.empty());
    EXPECT_DOUBLE_EQ(events[anc.chain.front()].fitness,
                     engine.bestEver().fitness);
    EXPECT_EQ(events[anc.chain.back()].generation, 0);
    EXPECT_EQ(events[anc.chain.back()].op, BirthOp::Seed);

    // Every chased parent of a bred ancestor is itself in the ledger.
    std::set<std::uint64_t> known;
    for (const LineageEvent& event : events)
        known.insert(event.id);
    for (const LineageEvent& event : events) {
        if (event.op == BirthOp::Crossover ||
            event.op == BirthOp::Mutation) {
            EXPECT_TRUE(known.count(event.parent1));
            EXPECT_TRUE(known.count(event.parent2));
        }
    }

    // One analytics row per generation, and the last row's mix matches
    // an independent recount of the final population.
    ASSERT_EQ(recorder.rows().size(),
              static_cast<std::size_t>(params.generations));
    EXPECT_EQ(recorder.rows().back().classMix,
              populationClassMix(lib, engine.population()));

    // status.json exists and reports completion.
    const std::string status = readFile(dir + "/status.json");
    EXPECT_NE(status.find("\"state\": \"completed\""),
              std::string::npos);
    removeAll(dir);
}

TEST(Recorder, ResultsAreBitIdenticalWithAnalyticsOnOrOff)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    fitness::DefaultFitness fit;
    const core::GaParams params = smallParams();
    const std::string dir = makeTempDir("gest-analysis");

    ClassCountMeasurement m1(lib, isa::InstrClass::Mem);
    core::Engine with(params, lib, m1, fit);
    run::RunPipeline pipeline(dir + "/status.json", params.generations);
    pipeline.recorder = std::make_unique<Recorder>(dir, lib);
    pipeline.attach(with);
    with.run();

    ClassCountMeasurement m2(lib, isa::InstrClass::Mem);
    core::Engine without(params, lib, m2, fit);
    without.run();

    // Observability must never perturb the search: same history, same
    // champion genome, gene for gene.
    ASSERT_EQ(with.history().size(), without.history().size());
    for (std::size_t g = 0; g < with.history().size(); ++g) {
        EXPECT_DOUBLE_EQ(with.history()[g].bestFitness,
                         without.history()[g].bestFitness);
        EXPECT_DOUBLE_EQ(with.history()[g].averageFitness,
                         without.history()[g].averageFitness);
        EXPECT_DOUBLE_EQ(with.history()[g].diversity,
                         without.history()[g].diversity);
    }
    EXPECT_EQ(with.bestEver().code, without.bestEver().code);
    EXPECT_EQ(with.bestEver().id, without.bestEver().id);
    removeAll(dir);
}

TEST(Recorder, ResumedRunToleratesPreLedgerAncestors)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    fitness::DefaultFitness fit;
    const core::GaParams params = smallParams();
    const std::string dir = makeTempDir("gest-analysis");

    // First run: no recorder at all, so its lineage is never written.
    ClassCountMeasurement m1(lib, isa::InstrClass::FloatSimd);
    core::Engine first(params, lib, m1, fit);
    first.run();
    const std::string checkpoint = dir + "/checkpoint.txt";
    core::savePopulation(lib, first.population(), checkpoint);

    // The checkpoint round-trips parent ids (resume support relies on
    // it: the ledger labels carried individuals by their real parents).
    const core::Population reloaded =
        core::loadPopulation(lib, checkpoint);
    ASSERT_EQ(reloaded.individuals.size(),
              first.population().individuals.size());
    bool any_parent = false;
    for (std::size_t i = 0; i < reloaded.individuals.size(); ++i) {
        EXPECT_EQ(reloaded.individuals[i].parent1,
                  first.population().individuals[i].parent1);
        EXPECT_EQ(reloaded.individuals[i].parent2,
                  first.population().individuals[i].parent2);
        any_parent |= reloaded.individuals[i].parent1 != 0;
    }
    EXPECT_TRUE(any_parent);

    // Second run seeds from the checkpoint with a recorder attached:
    // its ledger starts fresh, so every carried parent id is unknown.
    ClassCountMeasurement m2(lib, isa::InstrClass::FloatSimd);
    core::Engine second(params, lib, m2, fit);
    second.setSeedPopulation(reloaded);
    run::RunPipeline pipeline(dir + "/status.json", params.generations);
    pipeline.recorder = std::make_unique<Recorder>(dir, lib);
    pipeline.attach(second);
    second.run();

    const std::vector<LineageEvent> events = loadLineage(dir);
    std::size_t resumed = 0;
    for (const LineageEvent& event : events)
        resumed += event.op == BirthOp::Resumed;
    EXPECT_EQ(resumed, reloaded.individuals.size());

    // Ancestry reconstruction terminates despite pre-ledger parents.
    const Ancestry anc = championAncestry(events);
    EXPECT_FALSE(anc.chain.empty());
    EXPECT_TRUE(anc.reachesGeneration0);
    EXPECT_FALSE(anc.unknownParents.empty());
    removeAll(dir);
}

} // namespace
} // namespace analysis
} // namespace gest
