/**
 * @file
 * Run-directory output (§III.D).
 *
 * For every GA run the framework records:
 *  - one reloadable population checkpoint per generation,
 *    `population_<gen>.pop`, holding every individual's genome and
 *    measurements; it is each individual's only record, and it doubles
 *    as a seed population for a resumed run;
 *  - one history.csv row per generation;
 *  - the configuration and template used, for record keeping.
 *
 * The original tool also stored every individual as its own source
 * file, `<population>_<id>_<m1>_<m2>....txt`, so the fittest one could
 * be found with basic UNIX commands. That layout is rendered on demand
 * from the checkpoints and run_template.txt (output::exportIndividuals,
 * `gest fittest <run_dir> --out <dir>`).
 */

#ifndef GEST_OUTPUT_RUN_WRITER_HH
#define GEST_OUTPUT_RUN_WRITER_HH

#include <string>
#include <vector>

#include "core/population.hh"
#include "output/ledger.hh"

namespace gest {

namespace stats {
class Histogram;
} // namespace stats

namespace output {

/**
 * The cells of @p record's history.csv row, one per ledger::history
 * column: fitness, diversity, the fitness-cache hit/miss counters and
 * the per-phase milliseconds, then @p io_ms, the time spent writing
 * the generation's checkpoint. Numbers print as an ostream prints
 * them (6 significant digits). The row's only rendering: the run
 * writer appends these cells and the telemetry service serves them.
 */
std::vector<std::string> historyCells(const core::GenerationRecord& record,
                                      double io_ms);

/**
 * Writes one GA run's artifacts under a root directory.
 */
class RunWriter
{
  public:
    /** @param root output directory (created if absent) */
    explicit RunWriter(std::string root);

    /**
     * Write the checkpoint of generation @p generation,
     * population_<generation>.pop: the population rendered as @p text.
     * @return the write's milliseconds when stats are enabled
     *         (stats::enabled(); also sampled into output.io_us), else 0.
     */
    double writePopulation(const core::PopulationText& text,
                           int generation);

    /**
     * Append one generation's row to `history.csv` (the ledger's head
     * written on the first call): @p cells, from historyCells().
     */
    void appendHistory(const std::vector<std::string>& cells);

    /** Copy configuration/template text into the run directory. */
    void writeRunMetadata(const std::string& config_text,
                          const std::string& template_text);

  private:
    std::string _root;
    ledger::Writer _history;
    stats::Histogram& _ioUs;  ///< resolved at construction
};

} // namespace output
} // namespace gest

#endif // GEST_OUTPUT_RUN_WRITER_HH
