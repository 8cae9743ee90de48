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
      _history(ledger::history, _root + "/" + ledger::history.file),
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
    writeFile(_root + "/" + individualFileName(population, ind), body);
}

void
RunWriter::writePopulation(const core::Population& pop)
{
    for (const core::Individual& ind : pop.individuals)
        writeIndividual(pop.generation, ind);
    core::savePopulation(_lib, pop,
                         _root + "/population_" +
                             std::to_string(pop.generation) + ".pop");
}

void
RunWriter::appendHistory(const core::GenerationRecord& record,
                         double io_ms)
{
    std::ostringstream out;
    out << record.generation << ',' << record.bestFitness << ','
        << record.averageFitness << ',' << record.bestId << ','
        << record.bestUniqueInstructions << ',' << record.diversity
        << ',' << record.cacheHits << ',' << record.cacheMisses << ','
        << record.selectionMs << ',' << record.crossoverMs << ','
        << record.mutationMs << ',' << record.evaluationMs << ','
        << io_ms << '\n';
    _history.append(out.str());
}

void
RunWriter::writeRunMetadata(const std::string& config_text,
                            const std::string& template_text)
{
    if (!config_text.empty())
        writeFile(_root + "/run_configuration.xml", config_text);
    if (!template_text.empty())
        writeFile(_root + "/run_template.txt", template_text);
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
