/**
 * @file
 * The champion flight recorder: which individuals get waveform
 * captures.
 *
 * The paper's artifacts of record are signal plots of the winning
 * viruses — the oscilloscope shot of the dI/dt virus (§VI), the
 * heat-up curve of the thermal virus (§V). The flight recorder keeps
 * the books for the simulated equivalent: it watches each evaluated
 * generation and retains the top-K individuals by fitness (each id at
 * most once, with the generation it entered in). It measures nothing
 * and never touches the GA, so fixed-seed runs are bit-identical with
 * the recorder on or off.
 *
 * At the end of the run the run driver re-measures each retained
 * champion once with a SignalProbe on an evaluation-pool worker;
 * writeCapture() writes that capture into `<run_dir>/waveforms/` (CSV
 * plus the PDN current spectrum where applicable, see
 * signal/waveform_io.hh) and writeIndex() an `index.csv` mapping ids
 * to fitness and files.
 */

#ifndef GEST_OUTPUT_FLIGHT_RECORDER_HH
#define GEST_OUTPUT_FLIGHT_RECORDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "signal/signal_probe.hh"
#include "signal/waveform_io.hh"

namespace gest {
namespace output {

/** The top-K individuals of one run, kept for seal-time capture. */
class FlightRecorder
{
  public:
    /** One retained champion. */
    struct Entry
    {
        std::uint64_t id = 0;
        int generation = 0; ///< generation the entry was retained in
        double fitness = 0.0;
        std::vector<isa::InstructionInstance> code;
    };

    /**
     * @param run_dir run directory whose `waveforms/` writeCapture()
     *        and writeIndex() write into
     * @param top_k champions to retain (> 0)
     */
    FlightRecorder(std::string run_dir, int top_k);

    /**
     * Inspect an evaluated generation; retain any individual that
     * enters the current top-K (each id at most once) and evict the
     * weakest entry past the bound.
     */
    void onGenerationEvaluated(const core::Population& pop,
                               const core::GenerationRecord& record);

    /** Entries currently retained, strongest first. */
    const std::vector<Entry>& entries() const { return _entries; }

    /**
     * Write @p probe, entry @p rank's capture, as its waveform CSV plus
     * spectrum under `<run_dir>/waveforms/`. Distinct ranks may be
     * written concurrently: the run driver writes each on the
     * evaluation pool.
     */
    signal::WaveformArtifacts writeCapture(
        std::size_t rank, const signal::SignalProbe& probe) const;

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
    std::vector<Entry> _entries; ///< sorted by fitness, strongest first
};

} // namespace output
} // namespace gest

#endif // GEST_OUTPUT_FLIGHT_RECORDER_HH
