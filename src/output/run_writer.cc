#include "output/run_writer.hh"

#include <sstream>

#include "stats/stats.hh"
#include "util/fileutil.hh"
#include "util/strutil.hh"

namespace gest {
namespace output {

std::vector<std::string>
historyCells(const core::GenerationRecord& record, double io_ms)
{
    std::ostringstream out;
    out << record.generation << ',' << record.bestFitness << ','
        << record.averageFitness << ',' << record.bestId << ','
        << record.bestUniqueInstructions << ',' << record.diversity
        << ',' << record.cacheHits << ',' << record.cacheMisses << ','
        << record.selectionMs << ',' << record.crossoverMs << ','
        << record.mutationMs << ',' << record.evaluationMs << ','
        << io_ms;
    return split(out.str(), ',');
}

RunWriter::RunWriter(std::string root)
    : _root(std::move(root)),
      _history(ledger::history, _root + "/" + ledger::history.file),
      _ioUs(stats::StatsRegistry::instance().histogram(
          "output.io_us", "checkpoint write per generation (us)", 0.0,
          100000.0, 40))
{
    ensureDir(_root);
}

double
RunWriter::writePopulation(const core::PopulationText& text, int generation)
{
    const bool record_io = stats::enabled();
    const double start = record_io ? stats::nowUs() : 0.0;
    writeFile(_root + "/population_" + std::to_string(generation) + ".pop",
              text.text);
    if (!record_io)
        return 0.0;
    const double elapsed = stats::nowUs() - start;
    _ioUs.sample(elapsed);
    return elapsed / 1000.0;
}

void
RunWriter::appendHistory(const std::vector<std::string>& cells)
{
    _history.append(join(cells, ",") + "\n");
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

} // namespace output
} // namespace gest
