#include "measure/sim_measurements.hh"

#include "stats/stats.hh"
#include "thermal/thermal_model.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace measure {

SimMeasurementBase::SimMeasurementBase(
    const isa::InstructionLibrary& lib,
    std::shared_ptr<const platform::Platform> plat)
    : _lib(lib), _platform(std::move(plat))
{}

void
SimMeasurementBase::init(const xml::Element* config)
{
    if (!config)
        return;
    if (config->hasAttr("platform"))
        _platform = platform::Platform::byName(config->attr("platform"));
    if (config->hasAttr("min_cycles")) {
        const std::int64_t cycles =
            parseInt(config->attr("min_cycles"), "min_cycles");
        if (cycles < 256)
            fatal("min_cycles must be at least 256, got ", cycles);
        _minCycles = static_cast<std::uint64_t>(cycles);
    }
    if (config->hasAttr("steady_state")) {
        const std::string& mode = config->attr("steady_state");
        if (mode == "on")
            setSteadyState(true);
        else if (mode == "off")
            setSteadyState(false);
        else
            fatal("steady_state must be 'on' or 'off', got '", mode,
                  "'");
    }
}

const platform::Platform&
SimMeasurementBase::platform() const
{
    if (!_platform)
        fatal("measurement '", name(),
              "' has no platform: pass one programmatically or set the "
              "platform attribute in its configuration");
    return *_platform;
}

MeasurementResult
SimMeasurementBase::measureWithProbe(
    const std::vector<isa::InstructionInstance>& code,
    signal::SignalProbe* probe)
{
    _probe = probe;
    MeasurementResult result;
    try {
        result = measure(code);
    } catch (...) {
        _probe = nullptr;
        throw;
    }
    _probe = nullptr;
    return result;
}

const platform::Evaluation&
SimMeasurementBase::evaluate(
    const std::vector<isa::InstructionInstance>& code,
    bool want_voltage) const
{
    platform::Evaluation& eval = _eval;
    platform().evaluateInto(code, _lib, want_voltage, _minCycles,
                            _probe, _scratch, eval);
    if (stats::enabled()) {
        // Every Sim* measurement funnels through here, so these cover
        // the whole simulated-target family: how much micro-architec-
        // tural work each 5-second "hardware measurement" stands for.
        static stats::Counter& evaluations =
            stats::StatsRegistry::instance().counter(
                "measure.sim.evaluations",
                "simulated-platform measurements");
        static stats::Counter& cycles =
            stats::StatsRegistry::instance().counter(
                "measure.sim.cycles", "simulated cycles");
        static stats::Histogram& ipc =
            stats::StatsRegistry::instance().histogram(
                "measure.sim.ipc", "IPC of measured individuals", 0.0,
                8.0, 32);
        static stats::Counter& steady_hits =
            stats::StatsRegistry::instance().counter(
                "eval.steady_hits",
                "evaluations cut short by the steady-state detector");
        static stats::Counter& cycles_simulated =
            stats::StatsRegistry::instance().counter(
                "eval.cycles_simulated",
                "measured cycles simulated, stepped or skipped as idle");
        static stats::Counter& cycles_skipped =
            stats::StatsRegistry::instance().counter(
                "eval.cycles_skipped",
                "simulated cycles skipped as idle instead of stepped");
        static stats::Counter& cycles_tiled =
            stats::StatsRegistry::instance().counter(
                "eval.cycles_tiled",
                "measured cycles covered by exact tiling");
        evaluations.inc();
        cycles.inc(eval.sim.cycles);
        ipc.sample(eval.sim.ipc);
        if (eval.sim.steadyHit())
            steady_hits.inc();
        cycles_simulated.inc(eval.sim.simulatedCycles);
        cycles_skipped.inc(eval.sim.skippedCycles);
        cycles_tiled.inc(eval.sim.cycles - eval.sim.simulatedCycles);
    }
    return eval;
}

MeasurementResult
SimPowerMeasurement::measure(
    const std::vector<isa::InstructionInstance>& code)
{
    const platform::Evaluation& eval = evaluate(code, false);
    return {{eval.chipPowerWatts, eval.corePowerWatts, eval.ipc}};
}

std::vector<std::string>
SimPowerMeasurement::valueNames() const
{
    return {"avg_chip_power_w", "core_power_w", "ipc"};
}

void
SimTemperatureMeasurement::init(const xml::Element* config)
{
    SimMeasurementBase::init(config);
    if (config && config->hasAttr("transient_seconds"))
        setTransientSeconds(parseDouble(
            config->attr("transient_seconds"), "transient_seconds"));
}

void
SimTemperatureMeasurement::setTransientSeconds(double seconds)
{
    if (seconds < 0.0)
        fatal("transient_seconds must be non-negative, got ", seconds);
    _transientSeconds = seconds;
}

MeasurementResult
SimTemperatureMeasurement::measure(
    const std::vector<isa::InstructionInstance>& code)
{
    const platform::Evaluation& eval = evaluate(code, false);
    double temp = eval.dieTempC;
    if (_transientSeconds > 0.0) {
        // A short sensor poll: heat the ladder from idle for the
        // configured window under the workload's chip power. Leakage
        // is held at its equilibrium value (small second-order error).
        thermal::ThermalModel transient(
            platform().thermalModel().config());
        transient.step(platform().chip().idleWatts, 3600.0); // settle
        transient.step(eval.chipPowerWatts, _transientSeconds);
        temp = transient.dieTemp();
    }
    return {{temp, eval.chipPowerWatts, eval.ipc}};
}

std::vector<std::string>
SimTemperatureMeasurement::valueNames() const
{
    return {"die_temp_c", "avg_chip_power_w", "ipc"};
}

MeasurementResult
SimIpcMeasurement::measure(
    const std::vector<isa::InstructionInstance>& code)
{
    const platform::Evaluation& eval = evaluate(code, false);
    return {{eval.ipc, eval.chipPowerWatts}};
}

std::vector<std::string>
SimIpcMeasurement::valueNames() const
{
    return {"ipc", "avg_chip_power_w"};
}

SimVoltageNoiseMeasurement::SimVoltageNoiseMeasurement(
    const isa::InstructionLibrary& lib,
    std::shared_ptr<const platform::Platform> plat)
    : SimMeasurementBase(lib, std::move(plat))
{
    // Voltage noise needs several resonance periods of settled trace.
    _minCycles = 8192;
}

MeasurementResult
SimVoltageNoiseMeasurement::measure(
    const std::vector<isa::InstructionInstance>& code)
{
    if (!platform().pdnModel())
        fatal("SimVoltageNoiseMeasurement needs a platform with a PDN "
              "model, but '", platform().name(),
              "' has none (use 'athlon-x4', or pick a power/"
              "temperature/IPC measurement for this platform)");
    const platform::Evaluation& eval = evaluate(code, true);
    return {{eval.peakToPeakV, eval.vMin, eval.chipPowerWatts}};
}

std::vector<std::string>
SimVoltageNoiseMeasurement::valueNames() const
{
    return {"peak_to_peak_v", "v_min", "avg_chip_power_w"};
}

SimCacheMissMeasurement::SimCacheMissMeasurement(
    const isa::InstructionLibrary& lib,
    std::shared_ptr<const platform::Platform> plat)
    : SimMeasurementBase(lib, std::move(plat))
{
    // Long-latency misses stretch execution; simulate a longer window
    // so steady-state miss behaviour dominates the cold misses.
    _minCycles = 16384;
}

MeasurementResult
SimCacheMissMeasurement::measure(
    const std::vector<isa::InstructionInstance>& code)
{
    if (!platform().cpu().hasL2)
        fatal("SimCacheMissMeasurement needs a platform with an L2 "
              "model (use 'xgene2-llc')");
    const platform::Evaluation& eval = evaluate(code, false);
    return {{eval.sim.dramPerKiloInstr(), 1.0 - eval.sim.l1HitRate(),
             1.0 - eval.sim.l2HitRate(), eval.ipc,
             eval.chipPowerWatts}};
}

std::vector<std::string>
SimCacheMissMeasurement::valueNames() const
{
    return {"dram_per_kinstr", "l1_miss_rate", "l2_miss_rate", "ipc",
            "avg_chip_power_w"};
}

void
registerSimMeasurements()
{
    MeasurementRegistry& registry = MeasurementRegistry::instance();
    if (registry.contains("SimPowerMeasurement"))
        return;
    registry.registerFactory(
        "SimPowerMeasurement", [](const isa::InstructionLibrary& lib) {
            return std::make_unique<SimPowerMeasurement>(lib);
        });
    registry.registerFactory(
        "SimTemperatureMeasurement",
        [](const isa::InstructionLibrary& lib) {
            return std::make_unique<SimTemperatureMeasurement>(lib);
        });
    registry.registerFactory(
        "SimIpcMeasurement", [](const isa::InstructionLibrary& lib) {
            return std::make_unique<SimIpcMeasurement>(lib);
        });
    registry.registerFactory(
        "SimVoltageNoiseMeasurement",
        [](const isa::InstructionLibrary& lib) {
            return std::make_unique<SimVoltageNoiseMeasurement>(lib);
        });
    registry.registerFactory(
        "SimCacheMissMeasurement",
        [](const isa::InstructionLibrary& lib) {
            return std::make_unique<SimCacheMissMeasurement>(lib);
        });
}

} // namespace measure
} // namespace gest
