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

#include <map>
#include <string>

#include "core/engine.hh"
#include "core/population.hh"
#include "isa/asm_template.hh"
#include "isa/library.hh"

namespace gest {

namespace stats {
class Histogram;
} // namespace stats

namespace output {

class TraceWriter;

/**
 * history.csv format version written by this build. The first line of
 * the file is `# gest-history v<N>`; columns are strictly append-only
 * across versions so both old files and old readers keep working:
 *
 *  v1 (implicit, no version comment): generation..cache_misses
 *  v2: + selection_ms, crossover_ms, mutation_ms, evaluation_ms, io_ms
 */
constexpr int historyCsvVersion = 2;

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
     * Append one generation record to `history.csv` (version comment
     * and header written on the first call): fitness, diversity, the
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

    /**
     * Every artifact this writer emitted, relative path → kind
     * ("individual", "population", "history", "config", "template").
     * The provenance manifest records these kinds; artifacts written
     * by other subsystems get their kind inferred from the file name.
     */
    const std::map<std::string, std::string>& artifactKinds() const
    {
        return _artifactKinds;
    }

    /**
     * Register an artifact another subsystem wrote under the run
     * directory (run-relative @p rel_path) with an explicit @p kind,
     * so the provenance manifest labels it without relying on
     * file-name inference (e.g. "coverage.csv" → "coverage",
     * "attribution/..." → "attribution").
     */
    void noteArtifact(const std::string& rel_path,
                      const std::string& kind)
    {
        _artifactKinds[rel_path] = kind;
    }

    /** File name an individual is stored under (naming convention). */
    std::string individualFileName(int population,
                                   const core::Individual& ind) const;

  private:
    std::string _root;
    const isa::InstructionLibrary& _lib;
    const isa::AsmTemplate* _template;
    bool _historyStarted = false;
    TraceWriter* _trace = nullptr;
    int _traceTid = 0;
    stats::Histogram& _ioUs;  ///< resolved at construction
    std::map<std::string, std::string> _artifactKinds;
};

} // namespace output
} // namespace gest

#endif // GEST_OUTPUT_RUN_WRITER_HH
