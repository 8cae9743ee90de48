/**
 * @file
 * Signal-level capture: waveforms, event marks and scalar annotations.
 *
 * The paper's evaluation is built on signals, not scalars: oscilloscope
 * voltage waveforms on the AMD sense pads (§VI), thermal heat-up
 * transients on the X-Gene2 (§V) and per-interval power on the Cortex
 * boards. A SignalProbe is the simulated counterpart of clipping those
 * instruments onto the machine: pass one to Platform::evaluate (or any
 * of the substrates beneath it) and it records the per-cycle and
 * per-interval waveforms the models already compute internally — core
 * power and current, PDN die voltage, the thermal transient, interval
 * IPC — plus cache/branch event marks and the scalar summary of the
 * evaluation.
 *
 * Design constraints, mirroring the stats registry:
 *
 *  1. **Zero cost when absent.** Every capture site takes a
 *     `SignalProbe*` defaulting to nullptr and is guarded by a single
 *     predicted branch; a fixed-seed run is bit-identical with capture
 *     on or off because the probe only observes.
 *  2. **Bounded.** A probe stores at most `maxSamplesPerSignal` samples
 *     per waveform and `maxMarks` marks; overflow is counted, never
 *     reallocated past the bound, so every evaluation worker can hold
 *     one while it captures a champion at the end of a run.
 *  3. **Self-describing.** Each waveform carries its unit, sample rate
 *     and warmup-sample count, so the sealed artifact can be validated
 *     against the scalar Evaluation without re-running the simulator
 *     (tools/check_waveforms.py).
 */

#ifndef GEST_SIGNAL_SIGNAL_PROBE_HH
#define GEST_SIGNAL_SIGNAL_PROBE_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace gest {
namespace signal {

/** One captured time series. */
struct Waveform
{
    /** Signal identifier ("pdn_voltage_v", "core_power_w", ...). */
    std::string name;

    /** Physical unit of the samples ("V", "W", "A", "C", ...). */
    std::string unit;

    /** Samples per second of simulated time. */
    double sampleRateHz = 0.0;

    /**
     * Leading samples excluded from the summary statistics while the
     * producing model settles (the PDN transient's warmup window).
     */
    std::size_t warmupSamples = 0;

    std::vector<double> samples;

    /** Samples the capture bound forced the probe to drop. */
    std::size_t dropped = 0;

    /** Minimum over the post-warmup samples (0 when empty). */
    double minValue() const;

    /** Maximum over the post-warmup samples (0 when empty). */
    double maxValue() const;

    /** Mean over the post-warmup samples (0 when empty). */
    double meanValue() const;

    /** Simulated time of sample @p index (s). */
    double timeAt(std::size_t index) const;
};

/** A point event on a waveform's time base (a cache miss, ...). */
struct EventMark
{
    /** Event kind ("l1_miss", "l2_miss", "mispredict"). */
    std::string kind;

    /** Cycle index on the core clock time base. */
    std::size_t index = 0;

    /** Simulated time of the event (s). */
    double timeS = 0.0;
};

/**
 * Collects waveforms, marks and annotations for one evaluation.
 */
class SignalProbe
{
  public:
    /** Capture bounds and windows. */
    struct Config
    {
        /** Hard cap on stored samples per waveform. */
        std::size_t maxSamplesPerSignal = 1u << 16;

        /** Hard cap on stored event marks. */
        std::size_t maxMarks = 4096;

        /** Cycles per interval of the interval-IPC waveform. */
        std::size_t ipcIntervalCycles = 64;

        /** Length of the captured thermal heat-up transient (s). */
        double thermalWindowSeconds = 120.0;

        /** Samples across the thermal window. */
        int thermalIntervals = 240;
    };

    SignalProbe();
    explicit SignalProbe(Config cfg);

    /** The capture configuration. */
    const Config& config() const { return _cfg; }

    /**
     * Record a complete waveform. Samples beyond maxSamplesPerSignal
     * are dropped (counted in Waveform::dropped). Re-recording an
     * existing name replaces the prior capture.
     */
    Waveform& recordWaveform(const std::string& name,
                             const std::string& unit,
                             double sample_rate_hz,
                             const std::vector<double>& samples,
                             std::size_t warmup_samples = 0);

    /** Record one event mark; dropped silently past maxMarks. */
    void mark(const std::string& kind, std::size_t index, double time_s);

    /**
     * Record a scalar annotation (the Evaluation summary the sealed
     * artifact is validated against). Last write wins per key.
     */
    void annotate(const std::string& key, double value);

    /** All captured waveforms, in capture order. */
    const std::vector<Waveform>& waveforms() const { return _waveforms; }

    /** The waveform named @p name, or nullptr. */
    const Waveform* find(const std::string& name) const;

    /** All event marks, in capture order. */
    const std::vector<EventMark>& marks() const { return _marks; }

    /** Marks silently dropped past the bound. */
    std::size_t droppedMarks() const { return _droppedMarks; }

    /** All annotations, in first-write order. */
    const std::vector<std::pair<std::string, double>>&
    annotations() const
    {
        return _annotations;
    }

    /** The annotation @p key, or @p fallback when absent. */
    double annotationOr(const std::string& key, double fallback) const;

    /** @return true if @p key was annotated. */
    bool hasAnnotation(const std::string& key) const;

    /** Discard everything captured so far; the config is kept. */
    void clear();

  private:
    Config _cfg;
    std::vector<Waveform> _waveforms;
    std::vector<EventMark> _marks;
    std::size_t _droppedMarks = 0;
    std::vector<std::pair<std::string, double>> _annotations;
};

} // namespace signal
} // namespace gest

#endif // GEST_SIGNAL_SIGNAL_PROBE_HH
