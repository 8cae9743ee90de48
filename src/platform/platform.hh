/**
 * @file
 * Platform presets: the paper's Table II machines as simulated targets.
 *
 * A Platform bundles a CPU timing model, an energy model, a thermal
 * ladder, optionally a PDN, the default instruction library for that ISA
 * and the chip-level constants (core count, uncore power, voltage). It
 * offers one end-to-end evaluation entry point: decode a loop body,
 * simulate it, and derive power, temperature, IPC and voltage-noise
 * metrics — everything the bundled measurements need.
 */

#ifndef GEST_PLATFORM_PLATFORM_HH
#define GEST_PLATFORM_PLATFORM_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/simulator.hh"
#include "isa/standard_libs.hh"
#include "pdn/pdn_model.hh"
#include "power/power_model.hh"
#include "thermal/thermal_model.hh"

namespace gest {

namespace signal {
class SignalProbe;
} // namespace signal

namespace platform {

/** Chip-level constants around the core models. */
struct ChipConfig
{
    /** Cores on the chip; viruses run one instance per core (§IV). */
    int numCores = 4;

    /** Uncore dynamic power when cores are active (W). */
    double uncoreActiveWatts = 0.5;

    /** Chip dynamic power when idle (uncore + clock-gated cores) (W). */
    double idleWatts = 0.2;

    /** Operating supply voltage (V). */
    double vdd = 1.0;

    /** Vendor-specified maximum junction temperature (C). */
    double tjMaxC = 95.0;
};

/** Everything derived from evaluating one loop body on a platform. */
struct Evaluation
{
    arch::SimResult sim;

    double ipc = 0.0;

    /** Average single-core power (W). */
    double corePowerWatts = 0.0;

    /** Chip power with a virus instance on every core (W). */
    double chipPowerWatts = 0.0;

    /** Steady-state die temperature with leakage feedback (C). */
    double dieTempC = 0.0;

    /** Voltage-noise metrics; present only on platforms with a PDN. */
    double vMin = 0.0;
    double vMax = 0.0;
    double peakToPeakV = 0.0;
    bool hasVoltage = false;
};

/**
 * Per-worker reusable storage for repeated evaluations. A GA worker
 * (one Measurement clone) owns one of these; after the first
 * evaluation the hot loop is allocation-free — decode buffer,
 * simulator state, power trace and current trace all keep their
 * capacity across individuals. Copyable so Measurement::clone() keeps
 * working (a copy starts with the same settings and its own buffers).
 */
struct EvalScratch
{
    /** Run the steady-state fast path (bit-identical; see DESIGN). */
    bool steadyState = true;

    arch::SimScratch sim;
    std::vector<arch::MicroOp> body;
    power::PowerTrace power;
    std::vector<double> amps;
};

/**
 * A simulated target machine.
 */
class Platform
{
  public:
    Platform(std::string name, arch::CpuConfig cpu,
             power::EnergyModel energy, thermal::ThermalConfig thermal,
             ChipConfig chip, isa::InstructionLibrary library,
             std::optional<pdn::PdnConfig> pdn_cfg = std::nullopt);

    /** Platform identifier ("cortex-a15", ...). */
    const std::string& name() const { return _name; }

    /** The default instruction library for this platform's ISA. */
    const isa::InstructionLibrary& library() const { return _library; }

    /** CPU core model. */
    const arch::CpuConfig& cpu() const { return _cpu; }

    /** Energy model. */
    const power::EnergyModel& energy() const { return _energy; }

    /** Chip constants. */
    const ChipConfig& chip() const { return _chip; }

    /** Thermal ladder. */
    const thermal::ThermalModel& thermalModel() const { return _thermal; }

    /** PDN model, if this platform has voltage-sense instrumentation. */
    const pdn::PdnModel* pdnModel() const
    {
        return _pdn ? &*_pdn : nullptr;
    }

    /** Simulator initial state (register/memory patterns). */
    const arch::InitState& initState() const { return _init; }

    /** Override register/memory initialization (ablation studies). */
    void setInitState(const arch::InitState& init) { _init = init; }

    /**
     * Evaluate a loop body end to end.
     *
     * With a null @p probe (the default, and the whole GA hot path)
     * the capture layer costs one predicted branch per site. With a
     * probe, every signal the models compute along the way is also
     * recorded: interval IPC and cache/mispredict marks from the
     * timing sim, the per-cycle core power/current and chip current
     * traces, the PDN voltage transient (on PDN platforms, even for
     * power-only evaluations), a die-temperature heat-up transient,
     * and the scalar results as annotations. Capture only observes —
     * the returned Evaluation is bit-identical with or without it.
     *
     * @param code instruction instances drawn from @p lib
     * @param lib the library the instances reference
     * @param want_voltage also run the PDN transient (slower)
     * @param min_cycles minimum simulated post-warmup cycles
     * @param probe optional signal capture sink
     */
    Evaluation evaluate(const std::vector<isa::InstructionInstance>& code,
                        const isa::InstructionLibrary& lib,
                        bool want_voltage = false,
                        std::uint64_t min_cycles = 4096,
                        signal::SignalProbe* probe = nullptr) const;

    /**
     * evaluate() into caller-owned storage: all working buffers live
     * in @p scratch and @p out is reset keeping its trace capacity, so
     * a worker evaluating many individuals allocates nothing after
     * warm-up. scratch.steadyState selects the periodic-trace fast
     * path (default on); either way @p out is bit-identical to
     * evaluate()'s result, except for out.sim.simulatedCycles and
     * out.sim.skippedCycles, and except that out.sim.trace may store
     * the tiled layout described by out.sim.tiling when no probe is
     * attached. With a probe the trace is materialized first, so
     * capture sees exactly the full-simulation rows.
     */
    void evaluateInto(const std::vector<isa::InstructionInstance>& code,
                      const isa::InstructionLibrary& lib,
                      bool want_voltage, std::uint64_t min_cycles,
                      signal::SignalProbe* probe, EvalScratch& scratch,
                      Evaluation& out) const;

    /** Evaluate against the platform's own library. */
    Evaluation
    evaluate(const std::vector<isa::InstructionInstance>& code,
             bool want_voltage = false,
             std::uint64_t min_cycles = 4096,
             signal::SignalProbe* probe = nullptr) const
    {
        return evaluate(code, _library, want_voltage, min_cycles, probe);
    }

    /** Die temperature of the idle chip (C). */
    double idleTempC() const;

    /**
     * Chip-level steady-state die temperature for a given per-core
     * dynamic power, including leakage-temperature feedback.
     */
    double chipTempC(double core_dynamic_watts,
                     double* chip_watts_out = nullptr) const;

    /** Per-core load-current trace scaled to the whole chip (A). */
    std::vector<double>
    chipCurrent(const power::PowerTrace& core_trace) const;

    /** chipCurrent() into caller-owned storage (cleared, capacity kept). */
    void chipCurrentInto(const power::PowerTrace& core_trace,
                         std::vector<double>& amps) const;

    /**
     * Chip current when each core runs the same periodic trace shifted
     * by a per-core cycle offset (cyclic shift). One offset per core;
     * all-zero offsets reduce to chipCurrent(). This models the §IV
     * setup — a virus instance per core — with controllable phase
     * alignment, the knob the multicore dI/dt study sweeps.
     */
    std::vector<double>
    chipCurrentWithPhases(const power::PowerTrace& core_trace,
                          const std::vector<std::size_t>&
                              cycle_offsets) const;

    /** Construct a preset by name; fatal() if unknown. */
    static std::shared_ptr<const Platform> byName(const std::string& name);

    /** Names of all bundled presets. */
    static std::vector<std::string> presetNames();

  private:
    std::string _name;
    arch::CpuConfig _cpu;
    power::EnergyModel _energy;
    thermal::ThermalModel _thermal;
    ChipConfig _chip;
    isa::InstructionLibrary _library;
    std::optional<pdn::PdnModel> _pdn;
    arch::InitState _init;
};

/** The Cortex-A15 side of the Versatile Express TC2 (2 cores). */
std::shared_ptr<const Platform> cortexA15Platform();

/** The Cortex-A7 side of the Versatile Express TC2 (3 cores). */
std::shared_ptr<const Platform> cortexA7Platform();

/** The X-Gene2 validation board (8 cores). */
std::shared_ptr<const Platform> xgene2Platform();

/** The AMD Athlon II X4 645 on the Asus M5A78L LE (4 cores, PDN). */
std::shared_ptr<const Platform> athlonX4Platform();

/**
 * The X-Gene2 configured for the LLC/DRAM stress extension (§VII): the
 * cache-stress instruction library and a 1 MiB data buffer exceeding
 * the modelled L2, so cache-miss optimization has room to work.
 */
std::shared_ptr<const Platform> xgene2LlcPlatform();

} // namespace platform
} // namespace gest

#endif // GEST_PLATFORM_PLATFORM_HH
