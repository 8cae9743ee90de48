/**
 * @file
 * The measurement abstraction (§III.C).
 *
 * In the Python original, an experimenter scripts a measurement procedure
 * by subclassing Measurement.py (compile the individual, ship it to the
 * target, run it, sample an instrument, return numbers). Here the same
 * role is played by implementations of this interface: simulated targets
 * (power / temperature / IPC / voltage-noise on the bundled platform
 * models) and a native runner that assembles and executes generated code
 * on the host under perf counters. Implementations are registered by name
 * in the MeasurementRegistry, the C++ analog of Python's dynamic class
 * loading: configurations select a measurement by string.
 */

#ifndef GEST_MEASURE_MEASUREMENT_HH
#define GEST_MEASURE_MEASUREMENT_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "isa/instruction.hh"
#include "xml/xml.hh"

namespace gest {

namespace isa {
class InstructionLibrary;
} // namespace isa

namespace signal {
class SignalProbe;
} // namespace signal

namespace measure {

/**
 * A named vector of numbers produced by measuring one individual. The
 * first value is, by convention, what DefaultFitness optimizes (§III.D:
 * "By default, the first measurement is the fitness value").
 */
struct MeasurementResult
{
    std::vector<double> values;
};

/**
 * Measurement procedure interface.
 */
class Measurement
{
  public:
    virtual ~Measurement() = default;

    /**
     * Consume implementation-specific parameters from the measurement's
     * own XML configuration element (§III.C: measurement parameters live
     * in a separate configuration file). The default accepts none.
     */
    virtual void init(const xml::Element* config);

    /**
     * Measure one individual: run @p code on the target and return the
     * metric vector.
     */
    virtual MeasurementResult measure(
        const std::vector<isa::InstructionInstance>& code) = 0;

    /**
     * Measure one individual while recording the signals behind the
     * scalar metrics into @p probe — the instrumented re-run of the
     * seal's champion capture or `gest probe`. Must return exactly what
     * measure() returns for the same code (capture only observes).
     * The default ignores the probe and calls measure(): measurements
     * without an underlying waveform (e.g. native perf runs) still
     * satisfy the contract, just with an empty capture.
     */
    virtual MeasurementResult measureWithProbe(
        const std::vector<isa::InstructionInstance>& code,
        signal::SignalProbe* probe);

    /**
     * Enable or disable the steady-state evaluation fast path, where
     * the measurement has one (simulated targets). Results must be
     * identical either way; the knob exists for verification and as an
     * escape hatch. The default is a no-op for measurements without a
     * simulator underneath.
     */
    virtual void setSteadyState(bool enabled);

    /** Names of the values measure() returns, in order. */
    virtual std::vector<std::string> valueNames() const = 0;

    /** Short identifier used in logs. */
    virtual std::string name() const = 0;

    /**
     * Duplicate this measurement, configuration included, so each
     * evaluation worker owns a private instance and no mutable state
     * (RNG streams, simulators, scratch buffers) is shared across
     * threads. The default returns nullptr, meaning "not cloneable":
     * such a measurement can only run with threads=1.
     */
    virtual std::unique_ptr<Measurement> clone() const;
};

/**
 * Name-to-factory registry: the C++ analog of the Python framework's
 * dynamic class loading. A factory receives the instruction library the
 * GA searches over (targets need it to decode individuals).
 */
class MeasurementRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<Measurement>(
        const isa::InstructionLibrary& lib)>;

    /** The process-wide registry instance. */
    static MeasurementRegistry& instance();

    /** Register a factory; fatal() on duplicate names. */
    void registerFactory(const std::string& name, Factory factory);

    /** Instantiate by name; fatal() if unknown. */
    std::unique_ptr<Measurement> create(
        const std::string& name, const isa::InstructionLibrary& lib) const;

    /** @return true if @p name is registered. */
    bool contains(const std::string& name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    std::vector<std::pair<std::string, Factory>> _factories;
};

} // namespace measure
} // namespace gest

#endif // GEST_MEASURE_MEASUREMENT_HH
