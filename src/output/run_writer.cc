#include "output/run_writer.hh"

#include <sstream>

#include "core/individual.hh"
#include "output/trace_writer.hh"
#include "stats/stats.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace output {

RunWriter::RunWriter(std::string root, const isa::InstructionLibrary& lib,
                     const isa::AsmTemplate* tmpl)
    : _root(std::move(root)), _lib(lib), _template(tmpl),
      _ioUs(stats::StatsRegistry::instance().histogram(
          "output.io_us", "run-directory writes per generation (us)", 0.0,
          100000.0, 40))
{
    ensureDir(_root);
}

std::string
RunWriter::individualFileName(int population,
                              const core::Individual& ind) const
{
    // 1_10_1.30_1.33.txt for individual 10 of population 1 with
    // measurements [1.30, 1.33] (§III.D).
    std::string name =
        std::to_string(population) + "_" + std::to_string(ind.id);
    for (double v : ind.measurements)
        name += "_" + formatFixed(v, 2);
    return name + ".txt";
}

void
RunWriter::writeIndividual(int population, const core::Individual& ind)
{
    const std::vector<std::string> lines = core::renderLines(_lib, ind);
    std::string body;
    if (_template) {
        body = _template->render(lines);
    } else {
        for (const std::string& line : lines) {
            body += line;
            body += '\n';
        }
    }
    const std::string name = individualFileName(population, ind);
    writeFile(_root + "/" + name, body);
    _artifactKinds[name] = "individual";
}

void
RunWriter::writePopulation(const core::Population& pop)
{
    for (const core::Individual& ind : pop.individuals)
        writeIndividual(pop.generation, ind);
    const std::string name =
        "population_" + std::to_string(pop.generation) + ".pop";
    core::savePopulation(_lib, pop, _root + "/" + name);
    _artifactKinds[name] = "population";
}

void
RunWriter::appendHistory(const core::GenerationRecord& record,
                         double io_ms)
{
    std::ostringstream out;
    const bool first = !_historyStarted;
    if (first) {
        // Forward compatibility contract: the version comment is for
        // humans and tools; parsers must key on the header row, whose
        // column order is append-only across versions (gest report
        // reads v1 files with no timing columns just as well).
        out << "# gest-history v" << historyCsvVersion << "\n";
        out << "generation,best_fitness,average_fitness,best_id,"
               "unique_instructions,diversity,cache_hits,cache_misses,"
               "selection_ms,crossover_ms,mutation_ms,evaluation_ms,"
               "io_ms\n";
        _historyStarted = true;
        _artifactKinds["history.csv"] = "history";
    }
    out << record.generation << ',' << record.bestFitness << ','
        << record.averageFitness << ',' << record.bestId << ','
        << record.bestUniqueInstructions << ',' << record.diversity
        << ',' << record.cacheHits << ',' << record.cacheMisses << ','
        << record.selectionMs << ',' << record.crossoverMs << ','
        << record.mutationMs << ',' << record.evaluationMs << ','
        << io_ms << '\n';
    appendFile(_root + "/history.csv", out.str(), first);
}

void
RunWriter::writeRunMetadata(const std::string& config_text,
                            const std::string& template_text)
{
    if (!config_text.empty()) {
        writeFile(_root + "/run_configuration.xml", config_text);
        _artifactKinds["run_configuration.xml"] = "config";
    }
    if (!template_text.empty()) {
        writeFile(_root + "/run_template.txt", template_text);
        _artifactKinds["run_template.txt"] = "template";
    }
}

void
RunWriter::onGenerationEvaluated(const core::Population& pop,
                                 const core::GenerationRecord& record)
{
    const bool record_io = stats::enabled() || _trace;
    const double start = record_io ? stats::nowUs() : 0.0;
    writePopulation(pop);
    double io_ms = 0.0;
    if (record_io) {
        const double elapsed = stats::nowUs() - start;
        _ioUs.sample(elapsed);
        io_ms = elapsed / 1000.0;
        if (_trace) {
            _trace->completeEvent(
                "write run dir", "io", _traceTid, start, elapsed,
                {{"generation", static_cast<double>(pop.generation)}});
        }
    }
    appendHistory(record, io_ms);
}

} // namespace output
} // namespace gest
