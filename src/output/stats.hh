/**
 * @file
 * Post-processing of saved GA runs (§III.D).
 *
 * The original release ships a Python script that reads the binary
 * population files and extracts per-generation statistics — the fitness
 * of the fittest individual and its instruction-mix breakdown. This is
 * that tool as a library, plus the export of §III.D's per-individual
 * source files from the same checkpoints.
 */

#ifndef GEST_OUTPUT_STATS_HH
#define GEST_OUTPUT_STATS_HH

#include <string>
#include <vector>

#include "core/population.hh"

namespace gest {
namespace output {

/**
 * Load every `population_<n>.pop` file in @p run_dir and summarize it,
 * ordered by generation. fatal() if the directory holds none.
 */
std::vector<core::GenerationRecord> summarizeRun(
    const isa::InstructionLibrary& lib, const std::string& run_dir);

/**
 * Summarize populations already in memory: each record's
 * population-derived fields (core::summarizeGeneration).
 */
std::vector<core::GenerationRecord> summarizePopulations(
    const isa::InstructionLibrary& lib,
    const std::vector<core::Population>& pops);

/**
 * The fittest individual across all generations of a saved run.
 * @param generation_out when non-null, receives its generation.
 */
core::Individual fittestInRun(const isa::InstructionLibrary& lib,
                              const std::string& run_dir,
                              int* generation_out = nullptr);

/**
 * Render every individual of every `population_<n>.pop` in @p run_dir
 * into @p out_dir (created if absent) in §III.D's layout: one source
 * file per individual, named `<gen>_<id>_<m1>_<m2>....txt` (individual
 * 10 of generation 1 with measurements [1.30, 1.33] is
 * `1_10_1.30_1.33.txt`), so the fittest can be found with basic UNIX
 * commands. Each body is the individual printed through the run's
 * run_template.txt, or the bare loop body when the run has none.
 * fatal() if the directory holds no checkpoint.
 * @return the number of files written.
 */
std::size_t exportIndividuals(const isa::InstructionLibrary& lib,
                              const std::string& run_dir,
                              const std::string& out_dir);

/** Render summaries as an aligned text table. */
std::string formatSummaryTable(
    const std::vector<core::GenerationRecord>& summaries);

} // namespace output
} // namespace gest

#endif // GEST_OUTPUT_STATS_HH
