/**
 * @file
 * Run-directory output (§III.D).
 *
 * For every GA run the framework records, like the original tool:
 *  - one source file per individual, named
 *    `<population>_<id>_<m1>_<m2>....txt` so the fittest individual can
 *    be retrieved with basic UNIX commands (the first measurement is the
 *    fitness by default);
 *  - one reloadable population file per generation (seed populations);
 *  - the configuration and template used, for record keeping.
 */

#ifndef GEST_OUTPUT_RUN_WRITER_HH
#define GEST_OUTPUT_RUN_WRITER_HH

#include <string>

#include "core/engine.hh"
#include "core/population.hh"
#include "isa/asm_template.hh"
#include "isa/library.hh"
#include "output/ledger.hh"

namespace gest {

namespace stats {
class Histogram;
} // namespace stats

namespace output {

class TraceWriter;

/**
 * Writes one GA run's artifacts under a root directory.
 */
class RunWriter
{
  public:
    /**
     * @param root output directory (created if absent)
     * @param lib the library individuals reference
     * @param tmpl template the individuals are printed into; when
     *        nullptr, bare loop bodies are written
     */
    RunWriter(std::string root, const isa::InstructionLibrary& lib,
              const isa::AsmTemplate* tmpl = nullptr);

    /** Record one evaluated individual of a given population. */
    void writeIndividual(int population, const core::Individual& ind);

    /** Record a whole evaluated population (individuals + checkpoint). */
    void writePopulation(const core::Population& pop);

    /**
     * Append one generation record to `history.csv` (the ledger's head
     * written on the first call): fitness, diversity, the
     * fitness-cache hit/miss counters and the per-phase milliseconds
     * of that generation. @p io_ms is the time this writer spent
     * recording the generation's artifacts (onGenerationEvaluated()
     * fills it in; direct callers may pass 0).
     */
    void appendHistory(const core::GenerationRecord& record,
                       double io_ms = 0.0);

    /**
     * Attach a Chrome-trace writer (may be null):
     * onGenerationEvaluated() then emits one "write run dir" span per
     * generation on trace thread @p tid, the thread that calls it. The
     * writer must outlive this RunWriter.
     */
    void setTraceWriter(TraceWriter* trace, int tid)
    {
        _trace = trace;
        _traceTid = tid;
    }

    /** Copy configuration/template text into the run directory. */
    void writeRunMetadata(const std::string& config_text,
                          const std::string& template_text);

    /**
     * Record one evaluated generation: its population (individuals +
     * checkpoint) and its history.csv row with the time spent writing.
     */
    void onGenerationEvaluated(const core::Population& pop,
                               const core::GenerationRecord& record);

    /** The run directory. */
    const std::string& root() const { return _root; }

    /** File name an individual is stored under (naming convention). */
    std::string individualFileName(int population,
                                   const core::Individual& ind) const;

  private:
    std::string _root;
    const isa::InstructionLibrary& _lib;
    const isa::AsmTemplate* _template;
    ledger::Writer _history;
    TraceWriter* _trace = nullptr;
    int _traceTid = 0;
    stats::Histogram& _ioUs;  ///< resolved at construction
};

} // namespace output
} // namespace gest

#endif // GEST_OUTPUT_RUN_WRITER_HH
