#include "output/flight_recorder.hh"

#include <algorithm>

#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace output {

FlightRecorder::FlightRecorder(std::string run_dir, int top_k)
    : _runDir(std::move(run_dir)), _topK(static_cast<std::size_t>(top_k))
{
    if (top_k < 1)
        fatal("flight recorder needs top_k >= 1, got ", top_k);
}

bool
FlightRecorder::qualifies(double fitness) const
{
    if (_entries.size() < _topK)
        return true;
    return fitness > _entries.back().fitness;
}

bool
FlightRecorder::contains(std::uint64_t id) const
{
    for (const Entry& e : _entries) {
        if (e.id == id)
            return true;
    }
    return false;
}

void
FlightRecorder::onGenerationEvaluated(const core::Population& pop,
                                      const core::GenerationRecord& record)
{
    for (const core::Individual& ind : pop.individuals) {
        if (!ind.evaluated || !qualifies(ind.fitness) ||
            contains(ind.id))
            continue;

        // The code is kept for the seal-time capture and attribution:
        // champions may no longer be in the final population when the
        // run ends.
        Entry entry{ind.id, record.generation, ind.fitness, ind.code};

        // Insert keeping strongest-first order, then trim to the bound.
        const auto pos = std::upper_bound(
            _entries.begin(), _entries.end(), entry.fitness,
            [](double f, const Entry& e) { return f > e.fitness; });
        _entries.insert(pos, std::move(entry));
        if (_entries.size() > _topK)
            _entries.pop_back();
    }
}

signal::WaveformArtifacts
FlightRecorder::writeCapture(std::size_t rank,
                             const signal::SignalProbe& probe) const
{
    return signal::writeWaveformArtifacts(
        _runDir + "/waveforms", std::to_string(_entries.at(rank).id),
        probe);
}

std::vector<std::string>
FlightRecorder::writeIndex(
    const std::vector<signal::WaveformArtifacts>& captures) const
{
    if (captures.size() != _entries.size())
        panic("flight recorder index needs ", _entries.size(),
              " captures, got ", captures.size());
    const std::string dir = _runDir + "/waveforms";
    ensureDir(dir);

    const std::string index_path = dir + "/index.csv";
    std::vector<std::string> files = {index_path};
    std::string index = "# gest-waveform-index v2\n"
                        "rank,id,generation,fitness,csv,spectrum\n";
    for (std::size_t rank = 0; rank < _entries.size(); ++rank) {
        const Entry& e = _entries[rank];
        const signal::WaveformArtifacts& art = captures[rank];
        const std::string basename = std::to_string(e.id);
        index += std::to_string(rank + 1) + "," + basename + "," +
                 std::to_string(e.generation) + ",";
        appendNumber(index, e.fitness);
        index += "," + basename + ".csv," +
                 (art.spectrumPath.empty()
                      ? std::string()
                      : basename + "_spectrum.csv") +
                 "\n";
        files.push_back(art.csvPath);
        if (!art.spectrumPath.empty())
            files.push_back(art.spectrumPath);
    }
    writeFile(index_path, index);
    debug("flight recorder sealed ", _entries.size(),
          " captures into ", dir);
    return files;
}

} // namespace output
} // namespace gest
