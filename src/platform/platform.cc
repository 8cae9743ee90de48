#include "platform/platform.hh"

#include <cmath>

#include "signal/signal_probe.hh"
#include "util/logging.hh"

namespace gest {
namespace platform {

Platform::Platform(std::string name, arch::CpuConfig cpu,
                   power::EnergyModel energy,
                   thermal::ThermalConfig thermal, ChipConfig chip,
                   isa::InstructionLibrary library,
                   std::optional<pdn::PdnConfig> pdn_cfg)
    : _name(std::move(name)), _cpu(std::move(cpu)),
      _energy(std::move(energy)), _thermal(std::move(thermal)),
      _chip(chip), _library(std::move(library))
{
    _cpu.validate();
    if (_chip.numCores < 1)
        fatal("platform '", _name, "' needs at least one core");
    if (pdn_cfg)
        _pdn.emplace(*pdn_cfg);
    _init.baseRegister = isa::memBaseIntReg;
}

double
Platform::idleTempC() const
{
    return chipTempC(0.0);
}

double
Platform::chipTempC(double core_dynamic_watts,
                    double* chip_watts_out) const
{
    // Fixed point of T -> steady(dyn + cores * leak(T)): hotter silicon
    // leaks more, which heats the silicon.
    const double dyn = core_dynamic_watts > 0.0
                           ? core_dynamic_watts * _chip.numCores +
                                 _chip.uncoreActiveWatts
                           : _chip.idleWatts;
    double temp = _thermal.steadyStateDieTemp(dyn);
    double total = dyn;
    for (int iter = 0; iter < 64; ++iter) {
        total = dyn + _chip.numCores *
                          _energy.leakageWatts(temp, _chip.vdd);
        const double next = _thermal.steadyStateDieTemp(total);
        if (std::fabs(next - temp) < 1e-9) {
            temp = next;
            break;
        }
        temp = next;
    }
    if (chip_watts_out)
        *chip_watts_out = total;
    return temp;
}

std::vector<double>
Platform::chipCurrent(const power::PowerTrace& core_trace) const
{
    std::vector<double> amps;
    chipCurrentInto(core_trace, amps);
    return amps;
}

void
Platform::chipCurrentInto(const power::PowerTrace& core_trace,
                          std::vector<double>& amps) const
{
    // All cores run a virus instance each. Instances are assumed phase
    // aligned — the worst case the PDN can see, and what a dI/dt virus
    // achieves in practice by synchronizing through the loop period.
    amps.clear();
    amps.reserve(core_trace.watts.size());
    const double uncore_amps =
        _chip.uncoreActiveWatts / core_trace.vdd;
    for (double w : core_trace.watts)
        amps.push_back(w / core_trace.vdd * _chip.numCores + uncore_amps);
}

std::vector<double>
Platform::chipCurrentWithPhases(
    const power::PowerTrace& core_trace,
    const std::vector<std::size_t>& cycle_offsets) const
{
    if (static_cast<int>(cycle_offsets.size()) != _chip.numCores)
        fatal("platform '", _name, "' has ", _chip.numCores,
              " cores but ", cycle_offsets.size(),
              " phase offsets were given");
    const std::size_t n = core_trace.watts.size();
    std::vector<double> amps(n, _chip.uncoreActiveWatts /
                                    core_trace.vdd);
    if (n == 0)
        return amps;
    for (std::size_t offset : cycle_offsets) {
        for (std::size_t c = 0; c < n; ++c)
            amps[c] += core_trace.watts[(c + offset) % n] /
                       core_trace.vdd;
    }
    return amps;
}

Evaluation
Platform::evaluate(const std::vector<isa::InstructionInstance>& code,
                   const isa::InstructionLibrary& lib, bool want_voltage,
                   std::uint64_t min_cycles,
                   signal::SignalProbe* probe) const
{
    EvalScratch scratch;
    Evaluation eval;
    evaluateInto(code, lib, want_voltage, min_cycles, probe, scratch,
                 eval);
    return eval;
}

void
Platform::evaluateInto(const std::vector<isa::InstructionInstance>& code,
                       const isa::InstructionLibrary& lib,
                       bool want_voltage, std::uint64_t min_cycles,
                       signal::SignalProbe* probe, EvalScratch& scratch,
                       Evaluation& out) const
{
    if (code.empty())
        fatal("cannot evaluate an empty individual on platform '", _name,
              "'");
    if (want_voltage && !_pdn)
        fatal("platform '", _name,
              "' has no PDN model; voltage noise cannot be measured");

    // Reset the result but keep the trace's capacity (scratch use).
    {
        arch::SimResult sim = std::move(out.sim);
        out = Evaluation{};
        out.sim = std::move(sim);
    }
    Evaluation& eval = out;

    arch::decodeBodyInto(lib, code, scratch.body);
    arch::LoopSimulator sim(_cpu, _init);
    arch::RunOptions run_options;
    run_options.steadyState = scratch.steadyState;
    sim.runForCyclesInto(scratch.body, min_cycles, 2'000'000,
                         run_options, scratch.sim, eval.sim);
    eval.ipc = eval.sim.ipc;

    if (probe) {
        // Capture must see exactly the rows a full simulation stores;
        // expand a tiled trace before any probe consumer touches it.
        arch::materializeTrace(eval.sim);
        arch::captureActivitySignals(eval.sim, _cpu.freqGHz, *probe);
    }

    const power::PowerModel power_model(_energy, _cpu.freqGHz);

    // First pass: core dynamic power at a reference temperature (the
    // leakage term is added at chip level with feedback).
    const power::EnergyModel& em = _energy;
    const double leak_ref =
        em.leakageWatts(em.leakageRefTempC, _chip.vdd);
    const double core_total_at_ref =
        power_model.averageWatts(eval.sim, _chip.vdd,
                                 em.leakageRefTempC);
    const double core_dynamic = core_total_at_ref - leak_ref;

    double chip_watts = 0.0;
    eval.dieTempC = chipTempC(core_dynamic, &chip_watts);
    eval.chipPowerWatts = chip_watts;
    eval.corePowerWatts =
        core_dynamic + em.leakageWatts(eval.dieTempC, _chip.vdd);

    // The PDN transient runs for want_voltage (as always) and also
    // under a probe on PDN platforms, so power-only evaluations still
    // capture the full voltage waveform. Capture never feeds back: the
    // Evaluation fields are filled exactly as without a probe.
    const bool run_pdn = _pdn && (want_voltage || probe != nullptr);
    if (run_pdn) {
        power_model.traceInto(eval.sim, _chip.vdd, eval.dieTempC, probe,
                              scratch.power);
        chipCurrentInto(scratch.power, scratch.amps);
        if (probe)
            probe->recordWaveform("chip_current_a", "A",
                                  _cpu.freqGHz * 1e9, scratch.amps);
        // Without a probe the voltage trace itself is discarded, so
        // the tiled kernel produces just the scalars, reading the
        // (possibly tiled) current trace through the tiling map. With
        // a probe the trace was materialized above and the classic
        // path records the waveform; both step the same cycles in the
        // same order, so the results are bit-identical.
        const pdn::VoltageTrace volts =
            probe ? _pdn->simulate(scratch.amps, _cpu.freqGHz, 256,
                                   probe)
                  : _pdn->simulateTiled(
                        scratch.amps.data(), eval.sim.tiling,
                        static_cast<std::size_t>(
                            eval.sim.tiling.clippedVirtualCycles(
                                arch::maxTraceCycles)),
                        _cpu.freqGHz, 256);
        if (want_voltage) {
            eval.vMin = volts.vMin;
            eval.vMax = volts.vMax;
            eval.peakToPeakV = volts.peakToPeak();
            eval.hasVoltage = true;
        }
        if (probe) {
            probe->annotate("v_min", volts.vMin);
            probe->annotate("v_max", volts.vMax);
            probe->annotate("peak_to_peak_v", volts.peakToPeak());
            probe->annotate("pdn_resonance_hz",
                            _pdn->config().resonanceHz());
            probe->annotate("pdn_q", _pdn->config().qFactor());
        }
    } else if (probe) {
        // No PDN on this platform: still capture the core power and
        // current waveforms the trace computes.
        power_model.traceInto(eval.sim, _chip.vdd, eval.dieTempC, probe,
                              scratch.power);
    }

    if (probe) {
        // Heat-up transient: settle the package at idle power, then
        // apply the virus's chip power for the probe's thermal window
        // — the simulated counterpart of polling the temperature
        // sensor through a heat-up run (§V).
        thermal::ThermalModel tm = _thermal;
        double idle_watts = 0.0;
        chipTempC(0.0, &idle_watts);
        tm.step(idle_watts, 3600.0);
        const signal::SignalProbe::Config& pc = probe->config();
        tm.captureTransient(chip_watts, pc.thermalWindowSeconds,
                            pc.thermalIntervals, probe);

        probe->annotate("ipc", eval.ipc);
        probe->annotate("core_power_w", eval.corePowerWatts);
        probe->annotate("chip_power_w", eval.chipPowerWatts);
        probe->annotate("die_temp_c", eval.dieTempC);
        probe->annotate("vdd", _chip.vdd);
        probe->annotate("freq_ghz", _cpu.freqGHz);
        probe->annotate("cycles",
                        static_cast<double>(eval.sim.cycles));
        probe->annotate("instructions",
                        static_cast<double>(eval.sim.instructions));
    }
}

std::shared_ptr<const Platform>
Platform::byName(const std::string& name)
{
    if (name == "cortex-a15")
        return cortexA15Platform();
    if (name == "cortex-a7")
        return cortexA7Platform();
    if (name == "xgene2")
        return xgene2Platform();
    if (name == "athlon-x4")
        return athlonX4Platform();
    if (name == "xgene2-llc")
        return xgene2LlcPlatform();
    fatal("unknown platform '", name, "'; available: cortex-a15, "
          "cortex-a7, xgene2, athlon-x4, xgene2-llc");
}

std::vector<std::string>
Platform::presetNames()
{
    return {"cortex-a15", "cortex-a7", "xgene2", "athlon-x4",
            "xgene2-llc"};
}

std::shared_ptr<const Platform>
cortexA15Platform()
{
    ChipConfig chip;
    chip.numCores = 2;
    chip.uncoreActiveWatts = 0.25;
    chip.idleWatts = 0.12;
    chip.vdd = 1.05;
    chip.tjMaxC = 90.0;
    return std::make_shared<Platform>(
        "cortex-a15", arch::cortexA15Config(), power::cortexA15Energy(),
        thermal::versatileExpressThermal(), chip, isa::armLikeLibrary());
}

std::shared_ptr<const Platform>
cortexA7Platform()
{
    ChipConfig chip;
    chip.numCores = 3;
    chip.uncoreActiveWatts = 0.1;
    chip.idleWatts = 0.05;
    chip.vdd = 1.0;
    chip.tjMaxC = 90.0;
    return std::make_shared<Platform>(
        "cortex-a7", arch::cortexA7Config(), power::cortexA7Energy(),
        thermal::versatileExpressThermal(), chip, isa::armLikeLibrary());
}

std::shared_ptr<const Platform>
xgene2Platform()
{
    ChipConfig chip;
    chip.numCores = 8;
    chip.uncoreActiveWatts = 6.0;
    chip.idleWatts = 9.0;
    chip.vdd = 0.98;
    chip.tjMaxC = 95.0;
    return std::make_shared<Platform>(
        "xgene2", arch::xgene2Config(), power::xgene2Energy(),
        thermal::xgene2Thermal(), chip, isa::armLikeLibrary());
}

std::shared_ptr<const Platform>
xgene2LlcPlatform()
{
    ChipConfig chip;
    chip.numCores = 8;
    chip.uncoreActiveWatts = 6.0;
    chip.idleWatts = 9.0;
    chip.vdd = 0.98;
    chip.tjMaxC = 95.0;
    auto plat = std::make_shared<Platform>(
        "xgene2-llc", arch::xgene2Config(), power::xgene2Energy(),
        thermal::xgene2Thermal(), chip, isa::armCacheStressLibrary());
    arch::InitState init = plat->initState();
    init.bufferBytes = 1u << 20; // 1 MiB: 4x the modelled L2
    plat->setInitState(init);
    return plat;
}

std::shared_ptr<const Platform>
athlonX4Platform()
{
    ChipConfig chip;
    chip.numCores = 4;
    chip.uncoreActiveWatts = 4.0;
    chip.idleWatts = 8.0;
    chip.vdd = 1.35;
    chip.tjMaxC = 71.0;
    return std::make_shared<Platform>(
        "athlon-x4", arch::athlonX4Config(), power::athlonX4Energy(),
        thermal::athlonX4Thermal(), chip, isa::x86LikeLibrary(),
        pdn::athlonPdn());
}

} // namespace platform
} // namespace gest
