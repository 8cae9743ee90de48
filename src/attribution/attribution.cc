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

AttributionPlan
planAttribution(const isa::InstructionLibrary& lib,
                const core::Individual& ind)
{
    AttributionPlan plan;
    if (ind.code.empty())
        return plan;
    plan.bodies.push_back(ind.code);
    std::vector<isa::InstructionInstance> ablated = ind.code;
    for (std::size_t i = 0; i < ind.code.size(); ++i) {
        const isa::InstructionInstance filler = fillerFor(lib, ind.code[i]);
        if (filler == ind.code[i]) {
            plan.geneBody.push_back(-1);
            continue;
        }
        plan.geneBody.push_back(static_cast<int>(plan.bodies.size()));
        plan.bodies.push_back(ind.code);
        plan.bodies.back()[i] = filler;
        ablated[i] = filler;
    }
    // Whole-champion ablation: how far the additive per-gene story can
    // be trusted (interaction effects show up as the difference).
    if (plan.bodies.size() > 1) {
        plan.wholeBody = static_cast<int>(plan.bodies.size());
        plan.bodies.push_back(std::move(ablated));
    }
    return plan;
}

AttributionResult
assembleAttribution(const isa::InstructionLibrary& lib,
                    const fitness::Fitness& fitness,
                    const core::Individual& ind,
                    const AttributionPlan& plan,
                    const std::vector<std::vector<double>>& values,
                    const AttributionOptions& options)
{
    AttributionResult result;
    result.individualId = ind.id;
    if (ind.code.empty())
        return result;
    if (values.size() != plan.bodies.size())
        panic("assembleAttribution: ", values.size(),
              " measurements for ", plan.bodies.size(), " bodies");

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
    probe.evaluated = true;
    auto score = [&](int body) {
        const std::size_t k = static_cast<std::size_t>(body);
        probe.code = plan.bodies[k];
        probe.measurements = values[k];
        return fitness.getFitness(probe, lib);
    };
    result.evaluationsUsed = plan.bodies.size();
    result.baselineFitness = score(0);

    std::array<ClassAttribution, isa::numInstrClasses> by_class{};
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
        // A gene that already is its filler ablates to a no-op.
        g.fitnessWithout = plan.geneBody[i] < 0
                               ? result.baselineFitness
                               : score(plan.geneBody[i]);
        g.deltaFitness = result.baselineFitness - g.fitnessWithout;
        result.sumDelta += g.deltaFitness;

        ClassAttribution& cagg = by_class[static_cast<int>(def.cls)];
        cagg.cls = def.cls;
        ++cagg.genes;
        cagg.deltaSum += g.deltaFitness;

        result.genes.push_back(std::move(g));
    }
    result.wholeAblationDelta =
        plan.wholeBody < 0
            ? 0.0
            : result.baselineFitness - score(plan.wholeBody);

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

AttributionResult
computeAttribution(const isa::InstructionLibrary& lib,
                   measure::Measurement& measurement,
                   const fitness::Fitness& fitness,
                   const core::Individual& ind,
                   const AttributionOptions& options)
{
    const AttributionPlan plan = planAttribution(lib, ind);
    std::vector<std::vector<double>> values;
    values.reserve(plan.bodies.size());
    for (const std::vector<isa::InstructionInstance>& body : plan.bodies)
        values.push_back(measurement.measure(body).values);
    return assembleAttribution(lib, fitness, ind, plan, values, options);
}

} // namespace attribution
} // namespace gest
