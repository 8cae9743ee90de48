/**
 * @file
 * Fitness attribution by gene ablation (docs/attribution.md).
 *
 * The paper explains its evolved viruses by dissecting their
 * instruction composition (the Table III/IV class breakdowns); this
 * module makes that dissection quantitative. A champion's fitness is
 * attributed to its genes by re-measuring the individual with each
 * gene, in turn, replaced by a class-neutral filler and recording the
 * fitness drop: Δfitness(i) = fitness(champion) - fitness(champion
 * with gene i ablated). Per-gene deltas aggregate into per-InstrClass
 * sums, and a whole-champion ablation (every gene replaced at once)
 * bounds how much of the fitness the additive per-gene story can
 * explain.
 *
 * The filler is the library's NOP where one exists (all bundled
 * libraries register one); a NOP-less user library falls back to the
 * gene's own class with the fewest operand slots. Either way the
 * substitution is 1-for-1 — the body length, and therefore loop
 * tiling, alignment and the surrounding genes' decoded stream, is
 * unperturbed (a property test pins this down).
 *
 * Everything here is read-only with respect to the GA: attribution
 * runs on a caller-supplied (ideally private-clone) measurement after
 * the search, costs genes+2 evaluations at most — NOP genes ablate to
 * themselves and are free — and is deterministic for simulated
 * measurements.
 */

#ifndef GEST_ATTRIBUTION_ATTRIBUTION_HH
#define GEST_ATTRIBUTION_ATTRIBUTION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/individual.hh"
#include "fitness/fitness.hh"
#include "isa/library.hh"
#include "measure/measurement.hh"

namespace gest {
namespace attribution {

/** Knobs for computeAttribution(). */
struct AttributionOptions
{
    /** Entries kept in AttributionResult::topGenes. */
    int topK = 5;
};

/** One gene's share of the champion's fitness. */
struct GeneAttribution
{
    std::size_t index = 0;        ///< position in the loop body
    std::string instruction;      ///< definition name
    std::string operands;         ///< rendered values, space-separated
    isa::InstrClass cls = isa::InstrClass::Nop;
    double fitnessWithout = 0.0;  ///< fitness with this gene ablated
    double deltaFitness = 0.0;    ///< baseline - fitnessWithout
};

/** Summed deltas of all genes of one instruction class. */
struct ClassAttribution
{
    isa::InstrClass cls = isa::InstrClass::Nop;
    int genes = 0;
    double deltaSum = 0.0;
};

/** Everything one attribution pass produces. */
struct AttributionResult
{
    std::uint64_t individualId = 0;
    int generation = -1;  ///< -1 when the source carries none
    double baselineFitness = 0.0;

    std::string fillerInstruction;  ///< filler definition name
    bool fillerIsNop = true;        ///< false: same-class fallback

    double sumDelta = 0.0;           ///< Σ per-gene Δfitness
    double wholeAblationDelta = 0.0; ///< baseline - all-genes-ablated
    std::uint64_t evaluationsUsed = 0;

    std::vector<GeneAttribution> genes;
    std::vector<ClassAttribution> classes;  ///< classes present only

    /** Gene indices by |Δfitness| descending, at most options.topK. */
    std::vector<std::size_t> topGenes;
};

/**
 * Index of the class-neutral filler definition for a gene of class
 * @p cls: the library's first Nop-class definition, else the
 * fewest-operand definition of @p cls itself. @return -1 only for an
 * empty library.
 */
int fillerDefIndex(const isa::InstructionLibrary& lib,
                   isa::InstrClass cls);

/** The concrete filler instance substituted for @p inst. */
isa::InstructionInstance fillerFor(const isa::InstructionLibrary& lib,
                                   const isa::InstructionInstance& inst);

/**
 * The bodies one attribution measures, in the order the result is
 * assembled from: the champion itself, then the champion with each
 * gene that differs from its filler ablated in turn, then with every
 * such gene ablated at once (absent when there is none). Empty for an
 * empty champion.
 */
struct AttributionPlan
{
    std::vector<std::vector<isa::InstructionInstance>> bodies;

    /** Per gene, its ablation's index in bodies; -1 for a gene that
     *  already is its filler (ablating it is free). */
    std::vector<int> geneBody;

    /** The whole-champion ablation's index in bodies; -1 if none. */
    int wholeBody = -1;
};

/** Plan the ablation bodies of @p ind. */
AttributionPlan planAttribution(const isa::InstructionLibrary& lib,
                                const core::Individual& ind);

/**
 * Score each planned body from its measurement vector, @p values[k]
 * for plan.bodies[k], and attribute @p ind's fitness. evaluationsUsed
 * is the number of planned bodies, however they were measured.
 */
AttributionResult assembleAttribution(
    const isa::InstructionLibrary& lib, const fitness::Fitness& fitness,
    const core::Individual& ind, const AttributionPlan& plan,
    const std::vector<std::vector<double>>& values,
    const AttributionOptions& options = AttributionOptions());

/**
 * Ablate @p ind gene by gene on @p measurement and attribute its
 * fitness: planAttribution(), each body measured in turn, then
 * assembleAttribution(). The measurement should be private to the
 * caller (a Measurement::clone of the run's instrument): attribution
 * re-measures through the normal measure() path, so the steady-state
 * fast path and its zero-alloc scratch are reused, but any internal
 * measurement state is the caller's to isolate.
 */
AttributionResult computeAttribution(const isa::InstructionLibrary& lib,
                                     measure::Measurement& measurement,
                                     const fitness::Fitness& fitness,
                                     const core::Individual& ind,
                                     const AttributionOptions& options =
                                         AttributionOptions());

} // namespace attribution
} // namespace gest

#endif // GEST_ATTRIBUTION_ATTRIBUTION_HH
