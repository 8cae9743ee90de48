#include "pdn/pdn_model.hh"

#include <cmath>
#include <limits>

#include "signal/signal_probe.hh"
#include "util/logging.hh"

namespace gest {
namespace pdn {

namespace {
constexpr double pi = 3.14159265358979323846;
} // namespace

double
PdnConfig::resonanceHz() const
{
    return 1.0 / (2.0 * pi * std::sqrt(inductanceH * capacitanceF));
}

double
PdnConfig::qFactor() const
{
    return std::sqrt(inductanceH / capacitanceF) / resistanceOhm;
}

double
PdnConfig::peakImpedanceOhm() const
{
    // Series RLC seen from the load: |Z| at resonance is L / (R * C).
    return inductanceH / (resistanceOhm * capacitanceF);
}

PdnConfig
PdnConfig::forResonance(std::string name, double vdd, double resonance_hz,
                        double q, double resistance_ohm)
{
    // Q = sqrt(L/C)/R and w0 = 1/sqrt(LC) give
    //   L = Q * R / w0   and   C = 1 / (Q * R * w0).
    PdnConfig cfg;
    cfg.name = std::move(name);
    cfg.vdd = vdd;
    cfg.resistanceOhm = resistance_ohm;
    const double w0 = 2.0 * pi * resonance_hz;
    cfg.inductanceH = q * resistance_ohm / w0;
    cfg.capacitanceF = 1.0 / (q * resistance_ohm * w0);
    cfg.validate();
    return cfg;
}

void
PdnConfig::validate() const
{
    if (vdd <= 0.0 || resistanceOhm <= 0.0 || inductanceH <= 0.0 ||
        capacitanceF <= 0.0)
        fatal("PDN '", name, "': non-physical electrical parameters");
}

PdnModel::PdnModel(PdnConfig cfg) : _cfg(std::move(cfg))
{
    _cfg.validate();
}

VoltageTrace
PdnModel::simulate(const std::vector<double>& current_amps,
                   double freq_ghz, std::size_t warmup_cycles,
                   signal::SignalProbe* probe) const
{
    return simulateAt(current_amps, freq_ghz, _cfg.vdd, warmup_cycles,
                      probe);
}

namespace {

/**
 * exp(A*T) of the network's state matrix, for the state x = (i_L, v_c)
 * measured from its DC operating point:
 *
 *      A = [ -R/L  -1/L ]
 *          [  1/C    0  ]
 *
 * With alpha = R/2L and w0^2 = 1/LC, B = A + alpha*I is traceless with
 * B^2 = (alpha^2 - w0^2)*I, so exp(A*T) = e^(-alpha*T) * (f0*I + f1*B)
 * where, for z = (alpha^2 - w0^2)*T^2,
 *
 *      z > 0 (overdamped):    f0 = cosh(sqrt z), f1 = T*sinh(sqrt z)/sqrt z
 *      z < 0 (underdamped):   f0 = cos(sqrt -z), f1 = T*sin(sqrt -z)/sqrt -z
 *      z = 0 (critical):      f0 = 1,            f1 = T
 *
 * None of the three takes a square root of a negative number, so every
 * damping regime (and the rounding noise around Q = 0.5) stays finite.
 */
struct StepMatrix
{
    double a00, a01, a10, a11;
};

StepMatrix
stepMatrix(const PdnConfig& cfg, double t)
{
    const double r = cfg.resistanceOhm;
    const double l = cfg.inductanceH;
    const double c = cfg.capacitanceF;
    const double alpha = r / (2.0 * l);
    const double z = (alpha * alpha - 1.0 / (l * c)) * t * t;
    double f0 = 1.0;
    double f1 = t;
    if (z > 0.0) {
        const double s = std::sqrt(z);
        f0 = std::cosh(s);
        f1 = t * std::sinh(s) / s;
    } else if (z < 0.0) {
        const double s = std::sqrt(-z);
        f0 = std::cos(s);
        f1 = t * std::sin(s) / s;
    }
    const double decay = std::exp(-alpha * t);
    return {decay * (f0 - f1 * alpha), decay * (-f1 / l),
            decay * (f1 / c), decay * (f0 + f1 * alpha)};
}

/**
 * The one PDN integrator behind simulateAt() and simulateTiled(): steps
 * @p cycles cycles reading the load current of each through
 * @p current_at, and keeps the per-cycle die voltage in
 * VoltageTrace::volts only when @p keep_volts. A warmup window reaching
 * past the trace is clamped to its first half (in place, so the caller
 * can label the waveform).
 *
 * The current is constant within a cycle, so one cycle is exact: with
 * x_eq(i) = (i, vs - R*i) the DC operating point for load i and
 * A_d = exp(A*T_clk) (stepMatrix()),
 *
 *      x[k+1] = x_eq(i_k) + A_d * (x[k] - x_eq(i_k)).
 *
 * The DC operating point is a fixed point bit for bit: a load held from
 * the first cycle keeps the deviation exactly zero.
 */
template <typename CurrentAt>
VoltageTrace
integrate(const PdnConfig& cfg, CurrentAt current_at, std::size_t cycles,
          double freq_ghz, double vs, std::size_t& warmup_cycles,
          bool keep_volts)
{
    if (freq_ghz <= 0.0)
        fatal("PDN simulation needs a positive clock frequency");

    VoltageTrace out;
    if (cycles == 0) {
        // No load samples: the die sits at the supply. Keep every
        // summary field defined so downstream consumers (Vmin sweeps,
        // fitness functions) never read uninitialized state.
        out.vMin = out.vMax = out.vAvg = vs;
        return out;
    }
    if (warmup_cycles >= cycles)
        warmup_cycles = cycles / 2;
    if (keep_volts)
        out.volts.reserve(cycles);

    const StepMatrix ad = stepMatrix(cfg, 1e-9 / freq_ghz);
    const double r = cfg.resistanceOhm;

    // Start at the DC operating point for the first sample's current so
    // the transient begins settled.
    double i_l = current_at(0);
    double v_c = vs - r * i_l;

    double v_min = std::numeric_limits<double>::max();
    double v_max = -std::numeric_limits<double>::max();
    double v_sum = 0.0;
    std::size_t measured = 0;

    for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
        const double i_load = current_at(cycle);
        const double v_eq = vs - r * i_load;
        const double di = i_l - i_load;
        const double dv = v_c - v_eq;
        i_l = i_load + (ad.a00 * di + ad.a01 * dv);
        v_c = v_eq + (ad.a10 * di + ad.a11 * dv);
        if (keep_volts)
            out.volts.push_back(v_c);
        if (cycle >= warmup_cycles) {
            v_min = std::min(v_min, v_c);
            v_max = std::max(v_max, v_c);
            v_sum += v_c;
            ++measured;
        }
    }

    if (measured == 0) {
        // Unreachable with the warmup clamp above (any non-empty trace
        // measures at least its second half), but kept as a defined
        // fallback rather than UB if the clamp policy ever changes.
        out.vMin = out.vMax = out.vAvg = v_c;
    } else {
        out.vMin = v_min;
        out.vMax = v_max;
        out.vAvg = v_sum / static_cast<double>(measured);
    }
    return out;
}

} // namespace

VoltageTrace
PdnModel::simulateAt(const std::vector<double>& current_amps,
                     double freq_ghz, double vs,
                     std::size_t warmup_cycles,
                     signal::SignalProbe* probe) const
{
    VoltageTrace out = integrate(
        _cfg, [&](std::size_t cycle) { return current_amps[cycle]; },
        current_amps.size(), freq_ghz, vs, warmup_cycles,
        /*keep_volts=*/true);
    if (probe && !current_amps.empty()) {
        probe->recordWaveform("pdn_voltage_v", "V", freq_ghz * 1e9,
                              out.volts, warmup_cycles);
    }
    return out;
}

VoltageTrace
PdnModel::simulateTiled(const double* current_amps,
                        const util::TraceTiling& tiling,
                        std::size_t virtual_cycles, double freq_ghz,
                        std::size_t warmup_cycles) const
{
    return integrate(
        _cfg,
        [&](std::size_t cycle) {
            return current_amps[tiling.storedIndex(cycle)];
        },
        virtual_cycles, freq_ghz, _cfg.vdd, warmup_cycles,
        /*keep_volts=*/false);
}

VminModel::VminModel(const PdnModel& pdn, VminConfig cfg)
    : _pdn(pdn), _cfg(cfg)
{
    if (_cfg.stepVolts <= 0.0)
        fatal("Vmin sweep step must be positive");
    if (_cfg.vCritical >= _cfg.vNominal)
        fatal("Vmin sweep: critical voltage ", _cfg.vCritical,
              " is not below nominal ", _cfg.vNominal);
}

double
VminModel::characterize(const std::vector<double>& current_amps,
                        double freq_ghz) const
{
    // Lower the supply in fixed steps, exactly like the paper's
    // procedure, and report the lowest passing voltage.
    double last_pass = _cfg.vNominal;
    bool any_pass = false;
    for (double vs = _cfg.vNominal; vs > _cfg.vCritical - 1e-12;
         vs -= _cfg.stepVolts) {
        const VoltageTrace trace =
            _pdn.simulateAt(current_amps, freq_ghz, vs);
        if (trace.vMin < _cfg.vCritical)
            break;
        last_pass = vs;
        any_pass = true;
    }
    if (!any_pass)
        warn("workload fails even at nominal supply ", _cfg.vNominal,
             " V; reporting nominal as Vmin");
    return last_pass;
}

PdnConfig
athlonPdn()
{
    // ~100 MHz first-order resonance with Q ~ 2.2 and 1 mOhm of loop
    // resistance: a typical desktop package/board combination and close
    // to the band AUDIT reports for AMD parts.
    PdnConfig cfg = PdnConfig::forResonance("athlon-asus-m5a78l", 1.35,
                                            100e6, 2.2, 1.0e-3);
    return cfg;
}

} // namespace pdn
} // namespace gest
