#include "output/stats.hh"

#include <algorithm>
#include <optional>
#include <sstream>

#include "core/individual.hh"
#include "isa/asm_template.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace output {

namespace {

std::vector<core::Population>
loadRun(const isa::InstructionLibrary& lib, const std::string& run_dir)
{
    std::vector<core::Population> pops;
    for (const std::string& file : listFiles(run_dir)) {
        if (startsWith(file, "population_") && endsWith(file, ".pop"))
            pops.push_back(
                core::loadPopulation(lib, run_dir + "/" + file));
    }
    if (pops.empty())
        fatal("no population files found in '", run_dir, "'");
    std::sort(pops.begin(), pops.end(),
              [](const core::Population& a, const core::Population& b) {
                  return a.generation < b.generation;
              });
    return pops;
}

/** The §III.D file name of individual @p ind of @p generation. */
std::string
individualFileName(int generation, const core::Individual& ind)
{
    std::string name =
        std::to_string(generation) + "_" + std::to_string(ind.id);
    for (double v : ind.measurements)
        name += "_" + formatFixed(v, 2);
    return name + ".txt";
}

} // namespace

std::vector<core::GenerationRecord>
summarizeRun(const isa::InstructionLibrary& lib, const std::string& run_dir)
{
    return summarizePopulations(lib, loadRun(lib, run_dir));
}

std::vector<core::GenerationRecord>
summarizePopulations(const isa::InstructionLibrary& lib,
                     const std::vector<core::Population>& pops)
{
    std::vector<core::GenerationRecord> out;
    out.reserve(pops.size());
    for (const core::Population& pop : pops)
        out.push_back(core::summarizeGeneration(lib, pop));
    return out;
}

core::Individual
fittestInRun(const isa::InstructionLibrary& lib, const std::string& run_dir,
             int* generation_out)
{
    const std::vector<core::Population> pops = loadRun(lib, run_dir);
    const core::Individual* best = nullptr;
    int best_gen = 0;
    for (const core::Population& pop : pops) {
        const int index = pop.bestIndex();
        if (index < 0)
            continue;
        const core::Individual& ind =
            pop.individuals[static_cast<std::size_t>(index)];
        if (!best || ind.fitness > best->fitness) {
            best = &ind;
            best_gen = pop.generation;
        }
    }
    if (!best)
        fatal("run '", run_dir, "' has no evaluated individuals");
    if (generation_out)
        *generation_out = best_gen;
    return *best;
}

std::size_t
exportIndividuals(const isa::InstructionLibrary& lib,
                  const std::string& run_dir, const std::string& out_dir)
{
    const std::vector<core::Population> pops = loadRun(lib, run_dir);
    std::optional<isa::AsmTemplate> tmpl;
    std::string text;
    if (tryReadFile(run_dir + "/run_template.txt", text))
        tmpl.emplace(std::move(text));
    ensureDir(out_dir);
    std::size_t written = 0;
    for (const core::Population& pop : pops) {
        for (const core::Individual& ind : pop.individuals) {
            const std::vector<std::string> lines =
                core::renderLines(lib, ind);
            std::string body;
            if (tmpl) {
                body = tmpl->render(lines);
            } else {
                for (const std::string& line : lines) {
                    body += line;
                    body += '\n';
                }
            }
            writeFile(out_dir + "/" + individualFileName(pop.generation, ind),
                      body);
            ++written;
        }
    }
    return written;
}

std::string
formatSummaryTable(const std::vector<core::GenerationRecord>& summaries)
{
    std::ostringstream os;
    os << "gen    best_fitness    avg_fitness  diversity  uniq  "
          "ShortInt LongInt Float/SIMD Mem Branch Nop\n";
    for (const core::GenerationRecord& s : summaries) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%3d  %14.4f %14.4f  %9.3f  %4zu  %8d %7d %10d "
                      "%3d %6d %3d",
                      s.generation, s.bestFitness, s.averageFitness,
                      s.diversity, s.bestUniqueInstructions,
                      s.bestBreakdown[0], s.bestBreakdown[1],
                      s.bestBreakdown[2], s.bestBreakdown[3],
                      s.bestBreakdown[4], s.bestBreakdown[5]);
        os << line << "\n";
    }
    return os.str();
}

} // namespace output
} // namespace gest
