#include "output/run_writer.hh"

#include <sstream>

#include "stats/stats.hh"
#include "util/fileutil.hh"

namespace gest {
namespace output {

RunWriter::RunWriter(std::string root)
    : _root(std::move(root)),
      _history(ledger::history, _root + "/" + ledger::history.file),
      _ioUs(stats::StatsRegistry::instance().histogram(
          "output.io_us", "checkpoint write per generation (us)", 0.0,
          100000.0, 40))
{
    ensureDir(_root);
}

void
RunWriter::writePopulation(const core::PopulationText& text, int generation)
{
    writeFile(_root + "/population_" + std::to_string(generation) + ".pop",
              text.text);
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
RunWriter::onGenerationEvaluated(const core::PopulationText& text,
                                 const core::GenerationRecord& record)
{
    const bool record_io = stats::enabled();
    const double start = record_io ? stats::nowUs() : 0.0;
    writePopulation(text, record.generation);
    double io_ms = 0.0;
    if (record_io) {
        const double elapsed = stats::nowUs() - start;
        _ioUs.sample(elapsed);
        io_ms = elapsed / 1000.0;
    }
    appendHistory(record, io_ms);
}

} // namespace output
} // namespace gest
