/**
 * @file
 * Second-order RLC power-delivery-network model.
 *
 * Substitute for the oscilloscope on the Asus M5A78L LE voltage-sense
 * pads (§VI). The package/board PDN is modelled as the classic series
 * R-L feeding the die capacitance, with the CPU drawing its per-cycle
 * load current from the die node:
 *
 *      Vs ──R──L──┬────── v(t)   (die voltage)
 *                 C
 *                 ├── i_load(t)
 *                GND
 *
 * The network has a first-order resonance at f0 = 1/(2*pi*sqrt(LC));
 * periodic current swings at f0 build up the largest droops and
 * overshoots, which is exactly the physics a dI/dt virus exploits. The
 * paper's loop-length rule (instructions = IPC * f_clk / f_res) makes one
 * loop iteration take one resonance period.
 */

#ifndef GEST_PDN_PDN_MODEL_HH
#define GEST_PDN_PDN_MODEL_HH

#include <cstddef>
#include <string>
#include <vector>

#include "util/tiling.hh"

namespace gest {

namespace signal {
class SignalProbe;
} // namespace signal

namespace pdn {

/** Electrical parameters of the PDN. */
struct PdnConfig
{
    std::string name;

    double vdd = 1.35;          ///< nominal supply at the VRM (V)
    double resistanceOhm = 1e-3;
    double inductanceH = 80e-12;
    double capacitanceF = 32e-9;

    /** First-order resonance frequency (Hz). */
    double resonanceHz() const;

    /** Quality factor Q = sqrt(L/C) / R. */
    double qFactor() const;

    /** Impedance peak seen by the load at resonance, ~Q^2 * R (ohm). */
    double peakImpedanceOhm() const;

    /**
     * Construct a PDN with a prescribed resonance frequency and Q for a
     * given series resistance.
     */
    static PdnConfig forResonance(std::string name, double vdd,
                                  double resonance_hz, double q,
                                  double resistance_ohm);

    /** Sanity-check; fatal() on non-physical parameters. */
    void validate() const;
};

/** Result of a PDN transient simulation. */
struct VoltageTrace
{
    /** Die voltage per CPU cycle (V). */
    std::vector<double> volts;

    double vMin = 0.0;
    double vMax = 0.0;
    double vAvg = 0.0;

    /** Max minus min — the paper's Figure 8 metric. */
    double peakToPeak() const { return vMax - vMin; }

    /** Worst droop below nominal (V, positive). */
    double worstDroop(double vdd) const { return vdd - vMin; }
};

/**
 * Time-domain PDN simulator. The load current is held for a whole CPU
 * cycle, so each cycle advances the network by its exact
 * zero-order-hold step (no sub-cycle integration error).
 */
class PdnModel
{
  public:
    explicit PdnModel(PdnConfig cfg);

    /**
     * Simulate the die voltage for a per-cycle load-current trace.
     *
     * Degenerate inputs have defined results: an empty trace yields a
     * flat trace pinned at the supply (vMin = vMax = vAvg = supply, no
     * samples); a warmup window reaching past the trace is clamped to
     * its first half, so even a single-sample trace produces one
     * measured sample.
     *
     * @param current_amps load current per CPU cycle (A)
     * @param freq_ghz CPU clock in GHz (sets the timestep)
     * @param warmup_cycles cycles excluded from the min/max statistics
     *        while the network settles
     * @param probe when non-null, the die-voltage trace (which the
     *        scalar result otherwise discards) is recorded as the
     *        `pdn_voltage_v` waveform with its warmup window
     */
    VoltageTrace simulate(const std::vector<double>& current_amps,
                          double freq_ghz,
                          std::size_t warmup_cycles = 256,
                          signal::SignalProbe* probe = nullptr) const;

    /**
     * Simulate with the supply voltage overridden to @p vs (for V_MIN
     * sweeps; dynamic current is assumed voltage-independent, which is
     * conservative and documented in DESIGN.md).
     */
    VoltageTrace simulateAt(const std::vector<double>& current_amps,
                            double freq_ghz, double vs,
                            std::size_t warmup_cycles = 256,
                            signal::SignalProbe* probe = nullptr) const;

    /**
     * Simulate over a tiled current trace without materializing it.
     * The integrator still steps every virtual cycle in order — the
     * PDN is stateful — but reads the load current through @p tiling
     * from the flat stored array, and only the scalar summary is
     * produced (VoltageTrace::volts stays empty). Bit-identical to
     * simulate() over the expanded trace.
     *
     * @param current_amps flat array of tiling.storedCycles() samples
     * @param tiling stored-to-virtual trace mapping
     * @param virtual_cycles virtual cycles to step (callers clip to
     *        their trace-capacity bound; <= tiling.virtualCycles())
     */
    VoltageTrace simulateTiled(const double* current_amps,
                               const util::TraceTiling& tiling,
                               std::size_t virtual_cycles,
                               double freq_ghz,
                               std::size_t warmup_cycles = 256) const;

    /** The configuration in use. */
    const PdnConfig& config() const { return _cfg; }

  private:
    PdnConfig _cfg;
};

/** Parameters of the V_MIN characterization loop (§VI). */
struct VminConfig
{
    /** Voltage below which timing fails (V). */
    double vCritical = 1.05;

    /** Supply step used in the paper: 12.5 mV. */
    double stepVolts = 0.0125;

    /** Starting (nominal) supply (V). */
    double vNominal = 1.35;
};

/**
 * Characterize a workload's V_MIN exactly the way the paper does: run at
 * progressively lower supply voltages in 12.5 mV steps and report the
 * lowest supply at which the minimum die voltage still clears the
 * critical timing voltage.
 */
class VminModel
{
  public:
    VminModel(const PdnModel& pdn, VminConfig cfg);

    /**
     * @return the workload's V_MIN (V). If even the nominal voltage
     * fails, returns vNominal.
     */
    double characterize(const std::vector<double>& current_amps,
                        double freq_ghz) const;

    /** The sweep configuration. */
    const VminConfig& config() const { return _cfg; }

  private:
    const PdnModel& _pdn;
    VminConfig _cfg;
};

/** PDN preset for the Athlon II / Asus M5A78L LE system. */
PdnConfig athlonPdn();

} // namespace pdn
} // namespace gest

#endif // GEST_PDN_PDN_MODEL_HH
