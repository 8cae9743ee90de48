#include "attribution/attribution.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "stats/stats.hh"
#include "util/logging.hh"

namespace gest {
namespace attribution {

namespace {

struct AttributionStats
{
    stats::Counter& runs;
    stats::Counter& evaluations;
};

AttributionStats&
attributionStats()
{
    static AttributionStats s{
        stats::StatsRegistry::instance().counter(
            "attribution.runs", "individuals attributed by ablation"),
        stats::StatsRegistry::instance().counter(
            "attribution.evaluations",
            "re-measurements spent on ablation attribution"),
    };
    return s;
}

} // namespace

int
fillerDefIndex(const isa::InstructionLibrary& lib, isa::InstrClass cls)
{
    int same_class = -1;
    std::size_t same_class_slots = 0;
    for (std::size_t i = 0; i < lib.numInstructions(); ++i) {
        const isa::InstructionDef& def = lib.instruction(i);
        if (def.cls == isa::InstrClass::Nop)
            return static_cast<int>(i);
        if (def.cls != cls)
            continue;
        if (same_class < 0 ||
            def.operandIndex.size() < same_class_slots) {
            same_class = static_cast<int>(i);
            same_class_slots = def.operandIndex.size();
        }
    }
    return same_class;
}

isa::InstructionInstance
fillerFor(const isa::InstructionLibrary& lib,
          const isa::InstructionInstance& inst)
{
    const isa::InstructionDef& def = lib.instruction(inst.defIndex);
    const int filler = fillerDefIndex(lib, def.cls);
    if (filler < 0)
        panic("fillerFor on an empty instruction library");
    isa::InstructionInstance out;
    out.defIndex = static_cast<std::uint32_t>(filler);
    // Lowest value per slot: a fixed choice keeps ablation
    // deterministic and the decoded stream of the other genes
    // untouched (decode is per-instruction, the body length is
    // unchanged).
    out.operandChoice.assign(
        lib.instruction(out.defIndex).operandIndex.size(), 0);
    return out;
}

AttributionResult
computeAttribution(const isa::InstructionLibrary& lib,
                   measure::Measurement& measurement,
                   const fitness::Fitness& fitness,
                   const core::Individual& ind,
                   const AttributionOptions& options)
{
    AttributionResult result;
    result.individualId = ind.id;
    if (ind.code.empty())
        return result;

    const int filler_def =
        fillerDefIndex(lib, lib.instruction(ind.code[0].defIndex).cls);
    if (filler_def >= 0) {
        result.fillerInstruction =
            lib.instruction(static_cast<std::size_t>(filler_def)).name;
        result.fillerIsNop =
            lib.instruction(static_cast<std::size_t>(filler_def)).cls ==
            isa::InstrClass::Nop;
    }

    core::Individual probe;
    probe.id = ind.id;
    auto eval = [&](const std::vector<isa::InstructionInstance>& code) {
        probe.code = code;
        probe.measurements = measurement.measure(code).values;
        probe.evaluated = true;
        ++result.evaluationsUsed;
        return fitness.getFitness(probe, lib);
    };

    result.baselineFitness = eval(ind.code);

    std::array<ClassAttribution, isa::numInstrClasses> by_class{};
    std::vector<isa::InstructionInstance> body = ind.code;
    for (std::size_t i = 0; i < ind.code.size(); ++i) {
        const isa::InstructionInstance& gene = ind.code[i];
        const isa::InstructionDef& def = lib.instruction(gene.defIndex);

        GeneAttribution g;
        g.index = i;
        g.instruction = def.name;
        g.cls = def.cls;
        for (std::size_t s = 0; s < gene.operandChoice.size(); ++s) {
            if (s > 0)
                g.operands += ' ';
            g.operands += lib.operand(def.operandIndex[s])
                              .renderValue(gene.operandChoice[s]);
        }

        const isa::InstructionInstance filler = fillerFor(lib, gene);
        if (filler == gene) {
            // The gene already is the filler: ablating it is a no-op,
            // so the re-measurement is free.
            g.fitnessWithout = result.baselineFitness;
        } else {
            body[i] = filler;
            g.fitnessWithout = eval(body);
            body[i] = gene;
        }
        g.deltaFitness = result.baselineFitness - g.fitnessWithout;
        result.sumDelta += g.deltaFitness;

        ClassAttribution& cagg = by_class[static_cast<int>(def.cls)];
        cagg.cls = def.cls;
        ++cagg.genes;
        cagg.deltaSum += g.deltaFitness;

        result.genes.push_back(std::move(g));
    }

    // Whole-champion ablation: how far the additive per-gene story can
    // be trusted (interaction effects show up as the difference).
    std::vector<isa::InstructionInstance> ablated = ind.code;
    bool any_replaced = false;
    for (isa::InstructionInstance& gene : ablated) {
        const isa::InstructionInstance filler = fillerFor(lib, gene);
        if (!(filler == gene)) {
            gene = filler;
            any_replaced = true;
        }
    }
    result.wholeAblationDelta =
        any_replaced ? result.baselineFitness - eval(ablated) : 0.0;

    for (const ClassAttribution& cagg : by_class) {
        if (cagg.genes > 0)
            result.classes.push_back(cagg);
    }

    std::vector<std::size_t> order(result.genes.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  const double da =
                      std::fabs(result.genes[a].deltaFitness);
                  const double db =
                      std::fabs(result.genes[b].deltaFitness);
                  if (da != db)
                      return da > db;
                  return a < b;
              });
    const std::size_t top_k =
        options.topK < 0 ? 0
                         : std::min<std::size_t>(
                               static_cast<std::size_t>(options.topK),
                               order.size());
    result.topGenes.assign(order.begin(), order.begin() + top_k);

    attributionStats().runs.inc();
    attributionStats().evaluations.inc(result.evaluationsUsed);
    return result;
}

} // namespace attribution
} // namespace gest
