/**
 * @file
 * The run-wide evolution-analytics recorder.
 *
 * One Recorder per GA run. Engine::setAnalytics() attaches it for the
 * record*() birth hooks, which the engine calls as individuals come
 * into existence (they never touch the GA RNG, so results are
 * bit-identical with the recorder attached or not). The run pipeline
 * calls onGenerationEvaluated() once per evaluated generation, which:
 *
 *  - seals the generation's births into `lineage.csv` (LineageLedger);
 *  - computes and appends one `analytics.csv` row (instruction-class
 *    mix, gene entropy, pairwise diversity, fitness quartiles,
 *    operator efficacy);
 *  - mirrors the headline values into the stats registry
 *    (`analysis.*` gauges/counters, subject to stats::enabled()).
 *
 * The status.json heartbeat is the run pipeline's (run/pipeline.hh).
 */

#ifndef GEST_ANALYSIS_RECORDER_HH
#define GEST_ANALYSIS_RECORDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/analytics.hh"
#include "analysis/lineage.hh"
#include "core/engine.hh"

namespace gest {
namespace analysis {

class Recorder
{
  public:
    /**
     * @param run_dir directory the artifacts are written into
     *        (created if absent)
     * @param lib the library individuals reference (must outlive the
     *        recorder)
     */
    Recorder(const std::string& run_dir,
             const isa::InstructionLibrary& lib);

    /**
     * Record a generation-0 individual. @p resumed marks individuals
     * loaded from a seed population/checkpoint, whose parents may
     * predate this ledger.
     */
    void recordSeed(int generation, const core::Individual& ind,
                    bool resumed);

    /**
     * Record a bred child. @p mutated_genes holds the gene indices
     * mutation rewrote; empty means the child is a pure crossover.
     */
    void recordChild(int generation, const core::Individual& ind,
                     const std::vector<std::uint32_t>& mutated_genes);

    /** Record the elite being carried unchanged into @p generation. */
    void recordEliteCopy(int generation, const core::Individual& ind);

    /**
     * Seal the generation: flush lineage rows, append the analytics
     * row and update the stats gauges.
     */
    void onGenerationEvaluated(const core::Population& pop,
                               const core::GenerationRecord& record);

    /** Analytics rows sealed so far (the last one feeds the status). */
    const std::vector<AnalyticsRow>& rows() const { return _rows; }

  private:
    const isa::InstructionLibrary& _lib;
    LineageLedger _ledger;
    AnalyticsWriter _analytics;
    std::vector<AnalyticsRow> _rows;
};

} // namespace analysis
} // namespace gest

#endif // GEST_ANALYSIS_RECORDER_HH
