/**
 * @file
 * The champion flight recorder: waveform capture for a run's best
 * individuals.
 *
 * The paper's artifacts of record are signal plots of the winning
 * viruses — the oscilloscope shot of the dI/dt virus (§VI), the
 * heat-up curve of the thermal virus (§V). The flight recorder
 * produces the simulated equivalent without instrumenting the GA hot
 * path: it watches each evaluated generation, and whenever an
 * individual enters the current top-K by fitness it re-measures that
 * individual once on a private measurement clone with a SignalProbe
 * attached. The GA's own measurements, RNG stream and artifacts are
 * untouched — fixed-seed runs are bit-identical with the recorder on
 * or off.
 *
 * At the end of the run, writeCapture() writes one waveform artifact
 * set per surviving champion into `<run_dir>/waveforms/` (CSV plus the
 * PDN current spectrum where applicable, see signal/waveform_io.hh) and
 * writeIndex() an `index.csv` mapping ids to fitness and files.
 */

#ifndef GEST_OUTPUT_FLIGHT_RECORDER_HH
#define GEST_OUTPUT_FLIGHT_RECORDER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "measure/measurement.hh"
#include "signal/signal_probe.hh"
#include "signal/waveform_io.hh"

namespace gest {
namespace output {

/** Ring of the top-K individuals' signal captures for one run. */
class FlightRecorder
{
  public:
    /** One retained champion. */
    struct Entry
    {
        std::uint64_t id = 0;
        int generation = 0; ///< generation the capture was taken in
        double fitness = 0.0;
        std::vector<isa::InstructionInstance> code;
        std::vector<double> measurements;
        signal::SignalProbe probe;
    };

    /**
     * @param run_dir run directory whose `waveforms/` writeCapture()
     *        and writeIndex() write into
     * @param top_k champions to retain (> 0)
     * @param measurement private clone used for instrumented re-runs
     */
    FlightRecorder(std::string run_dir, int top_k,
                   std::unique_ptr<measure::Measurement> measurement);

    /**
     * Inspect an evaluated generation; capture any individual that
     * enters the current top-K (each id at most once) and evict the
     * weakest entry past the bound.
     */
    void onGenerationEvaluated(const core::Population& pop,
                               const core::GenerationRecord& record);

    /** Entries currently retained, strongest first. */
    const std::vector<Entry>& entries() const { return _entries; }

    /** Instrumented re-measurements performed so far. */
    std::uint64_t captures() const { return _captures; }

    /**
     * Write entry @p rank's capture (waveform CSV plus spectrum) under
     * `<run_dir>/waveforms/`. Distinct ranks may be written
     * concurrently: the run driver writes each on the evaluation pool.
     */
    signal::WaveformArtifacts writeCapture(std::size_t rank) const;

    /**
     * Write `waveforms/index.csv` for @p captures, writeCapture's
     * result for every entry in rank order. @return every path
     * written, index.csv first.
     */
    std::vector<std::string> writeIndex(
        const std::vector<signal::WaveformArtifacts>& captures) const;

  private:
    bool qualifies(double fitness) const;
    bool contains(std::uint64_t id) const;

    std::string _runDir;
    std::size_t _topK;
    std::unique_ptr<measure::Measurement> _measurement;
    std::vector<Entry> _entries; ///< sorted by fitness, strongest first
    std::uint64_t _captures = 0;
};

} // namespace output
} // namespace gest

#endif // GEST_OUTPUT_FLIGHT_RECORDER_HH
