/**
 * @file
 * Unit tests for the RLC power-delivery-network model and V_MIN sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "pdn/pdn_model.hh"
#include "pdn/spectrum.hh"
#include "util/logging.hh"

namespace gest {
namespace pdn {
namespace {

constexpr double pi = 3.14159265358979323846;

PdnConfig
testPdn()
{
    return PdnConfig::forResonance("test", 1.2, 100e6, 3.0, 1e-3);
}

/** Square-wave current between lo and hi with the given cycle period. */
std::vector<double>
squareWave(std::size_t cycles, int period, double lo, double hi)
{
    std::vector<double> amps(cycles);
    for (std::size_t c = 0; c < cycles; ++c)
        amps[c] = (static_cast<int>(c) % period) * 2 < period ? hi : lo;
    return amps;
}

TEST(PdnConfig, ForResonanceRoundTrips)
{
    const PdnConfig cfg = testPdn();
    EXPECT_NEAR(cfg.resonanceHz(), 100e6, 100e6 * 1e-9);
    EXPECT_NEAR(cfg.qFactor(), 3.0, 1e-9);
    EXPECT_GT(cfg.inductanceH, 0.0);
    EXPECT_GT(cfg.capacitanceF, 0.0);
}

TEST(PdnConfig, PeakImpedanceIsQSquaredR)
{
    const PdnConfig cfg = testPdn();
    EXPECT_NEAR(cfg.peakImpedanceOhm(), 9.0 * 1e-3, 1e-9);
}

TEST(PdnConfig, ValidationRejectsNonsense)
{
    PdnConfig bad = testPdn();
    bad.capacitanceF = -1;
    EXPECT_THROW(bad.validate(), FatalError);
}

TEST(PdnModel, DcCurrentGivesIrDrop)
{
    const PdnModel model(testPdn());
    const std::vector<double> amps(4096, 20.0);
    const VoltageTrace trace = model.simulate(amps, 3.0);
    // Settled DC: v = Vs - I*R = 1.2 - 20*0.001.
    EXPECT_NEAR(trace.vAvg, 1.2 - 0.02, 1e-3);
    EXPECT_LT(trace.peakToPeak(), 2e-3);
}

TEST(PdnModel, ResonantExcitationBeatsOffResonance)
{
    const PdnModel model(testPdn());
    const double freq_ghz = 3.0;
    // Resonance period in CPU cycles: f_clk / f_res = 30 cycles.
    const int resonant_period = 30;
    const VoltageTrace on = model.simulate(
        squareWave(8192, resonant_period, 5.0, 35.0), freq_ghz);
    const VoltageTrace off_fast = model.simulate(
        squareWave(8192, 6, 5.0, 35.0), freq_ghz);
    const VoltageTrace off_slow = model.simulate(
        squareWave(8192, 300, 5.0, 35.0), freq_ghz);
    EXPECT_GT(on.peakToPeak(), off_fast.peakToPeak() * 2.0);
    EXPECT_GT(on.peakToPeak(), off_slow.peakToPeak() * 1.3);
}

TEST(PdnModel, ResonanceSweepPeaksAtF0)
{
    const PdnModel model(testPdn());
    const double freq_ghz = 3.0;
    double best_p2p = 0.0;
    int best_period = 0;
    for (int period = 10; period <= 90; period += 4) {
        const VoltageTrace trace = model.simulate(
            squareWave(8192, period, 5.0, 35.0), freq_ghz);
        if (trace.peakToPeak() > best_p2p) {
            best_p2p = trace.peakToPeak();
            best_period = period;
        }
    }
    // f_clk / f_res = 30 cycles; allow one sweep step of slack.
    EXPECT_NEAR(best_period, 30, 4);
}

TEST(PdnModel, LargerSwingMakesMoreNoise)
{
    const PdnModel model(testPdn());
    const VoltageTrace small =
        model.simulate(squareWave(8192, 30, 15.0, 25.0), 3.0);
    const VoltageTrace large =
        model.simulate(squareWave(8192, 30, 5.0, 35.0), 3.0);
    EXPECT_GT(large.peakToPeak(), small.peakToPeak() * 2.0);
}

TEST(PdnModel, MinMaxBracketTrace)
{
    const PdnModel model(testPdn());
    const VoltageTrace trace =
        model.simulate(squareWave(4096, 30, 5.0, 35.0), 3.0);
    EXPECT_LE(trace.vMin, trace.vAvg);
    EXPECT_LE(trace.vAvg, trace.vMax);
    EXPECT_EQ(trace.volts.size(), 4096u);
}

TEST(PdnModel, EmptyTraceIsNominal)
{
    const PdnModel model(testPdn());
    const VoltageTrace trace = model.simulate({}, 3.0);
    EXPECT_DOUBLE_EQ(trace.vMin, 1.2);
    EXPECT_DOUBLE_EQ(trace.peakToPeak(), 0.0);
}

TEST(PdnModel, SingleSampleTraceIsWellDefined)
{
    // One cycle of current: the warmup clamp degrades to "measure the
    // whole (second half of the) trace", so the stats stay finite and
    // bracket the supply sensibly instead of reading uninitialized
    // accumulators.
    const PdnModel model(testPdn());
    const VoltageTrace trace = model.simulate({20.0}, 3.0);
    EXPECT_EQ(trace.volts.size(), 1u);
    EXPECT_TRUE(std::isfinite(trace.vMin));
    EXPECT_TRUE(std::isfinite(trace.vMax));
    EXPECT_LE(trace.vMin, trace.vMax);
    EXPECT_LE(trace.vMax, 1.2);
    EXPECT_GE(trace.peakToPeak(), 0.0);
}

TEST(PdnModel, WarmupLongerThanTraceIsClamped)
{
    // 100 cycles against the default 256-cycle warmup: the clamp
    // measures the second half rather than nothing.
    const PdnModel model(testPdn());
    const VoltageTrace trace =
        model.simulate(squareWave(100, 10, 5.0, 35.0), 3.0);
    EXPECT_EQ(trace.volts.size(), 100u);
    EXPECT_TRUE(std::isfinite(trace.vMin));
    EXPECT_LT(trace.vMin, 1.2);
    EXPECT_GT(trace.peakToPeak(), 0.0);
}

TEST(PdnModel, SimulateAtShiftsSupply)
{
    const PdnModel model(testPdn());
    const auto amps = squareWave(4096, 30, 5.0, 35.0);
    const VoltageTrace at_nominal = model.simulateAt(amps, 3.0, 1.2);
    const VoltageTrace lowered = model.simulateAt(amps, 3.0, 1.1);
    EXPECT_NEAR(at_nominal.vMin - lowered.vMin, 0.1, 1e-3);
    EXPECT_NEAR(at_nominal.peakToPeak(), lowered.peakToPeak(), 1e-3);
}

TEST(Vmin, HigherNoiseMeansHigherVmin)
{
    const PdnModel model(testPdn());
    VminConfig cfg;
    cfg.vCritical = 1.0;
    cfg.vNominal = 1.2;

    const VminModel vmin(model, cfg);
    const double noisy =
        vmin.characterize(squareWave(8192, 30, 5.0, 35.0), 3.0);
    const double quiet =
        vmin.characterize(std::vector<double>(8192, 20.0), 3.0);
    EXPECT_GT(noisy, quiet);
    // Both results land on the 12.5 mV grid below nominal.
    const double steps_n = (cfg.vNominal - noisy) / cfg.stepVolts;
    EXPECT_NEAR(steps_n, std::round(steps_n), 1e-6);
    const double steps_q = (cfg.vNominal - quiet) / cfg.stepVolts;
    EXPECT_NEAR(steps_q, std::round(steps_q), 1e-6);
}

TEST(Vmin, VminEqualsCriticalPlusDroopOnGrid)
{
    const PdnModel model(testPdn());
    VminConfig cfg;
    cfg.vCritical = 1.0;
    cfg.vNominal = 1.2;
    const VminModel vmin(model, cfg);

    const auto amps = squareWave(8192, 30, 5.0, 35.0);
    const double droop =
        model.simulate(amps, 3.0).worstDroop(1.2);
    const double measured = vmin.characterize(amps, 3.0);
    // The analytic relation: lowest grid voltage >= vCrit + droop.
    EXPECT_GE(measured, cfg.vCritical + droop - cfg.stepVolts);
    EXPECT_LE(measured, cfg.vCritical + droop + cfg.stepVolts + 1e-9);
}

TEST(Vmin, RejectsMalformedSweep)
{
    const PdnModel model(testPdn());
    VminConfig bad;
    bad.vCritical = 1.3;
    bad.vNominal = 1.2;
    EXPECT_THROW(VminModel(model, bad), FatalError);
    bad = VminConfig{};
    bad.stepVolts = 0.0;
    EXPECT_THROW(VminModel(model, bad), FatalError);
}

TEST(PdnPresets, AthlonPdnMatchesPaperSetup)
{
    const PdnConfig cfg = athlonPdn();
    EXPECT_NEAR(cfg.resonanceHz(), 100e6, 1e3);
    EXPECT_NEAR(cfg.vdd, 1.35, 1e-9);
    EXPECT_GT(cfg.qFactor(), 1.0);
}

TEST(PdnModel, StepResponseOvershootReflectsQ)
{
    // An underdamped PDN must overshoot above nominal after a load
    // release (the overshoot side of dI/dt noise).
    const PdnModel model(testPdn());
    std::vector<double> amps(8192, 30.0);
    for (std::size_t c = 4096; c < amps.size(); ++c)
        amps[c] = 2.0;
    const VoltageTrace trace = model.simulate(amps, 3.0, 512);
    EXPECT_GT(trace.vMax, 1.2 - 0.002 * 2.0 + 0.005);
}

TEST(PdnModel, UnderdampedStepMatchesTheClosedForm)
{
    // A load step from i0 to i1 on a Q = 3 network rings as
    //   v(t) = v1 + e^(-a t) (dv0 cos(wd t) + (a dv0 + di0/C)/wd sin(wd t))
    // with a = R/2L, wd = sqrt(1/LC - a^2), di0 = i0 - i1 and
    // dv0 = R (i1 - i0). The exact per-cycle step samples that curve.
    const PdnConfig cfg = testPdn();
    const PdnModel model(cfg);
    const double freq_ghz = 3.0;
    const double t_clk = 1e-9 / freq_ghz;
    const double i0 = 30.0, i1 = 2.0;
    const std::size_t step_at = 1000;
    std::vector<double> amps(8192, i0);
    for (std::size_t c = step_at; c < amps.size(); ++c)
        amps[c] = i1;
    const VoltageTrace trace = model.simulate(amps, freq_ghz);

    const double r = cfg.resistanceOhm;
    const double l = cfg.inductanceH;
    const double c = cfg.capacitanceF;
    const double a = r / (2.0 * l);
    const double wd = std::sqrt(1.0 / (l * c) - a * a);
    const double v1 = cfg.vdd - r * i1;
    const double di0 = i0 - i1;
    const double dv0 = r * (i1 - i0);
    for (std::size_t n = 0; n < amps.size(); ++n) {
        double want = cfg.vdd - r * i0;
        if (n >= step_at) {
            // Sample n is the state at the end of cycle n.
            const double t = static_cast<double>(n - step_at + 1) * t_clk;
            want = v1 + std::exp(-a * t) *
                            (dv0 * std::cos(wd * t) +
                             (a * dv0 + di0 / c) / wd * std::sin(wd * t));
        }
        ASSERT_NEAR(trace.volts[n], want, 1e-12) << "cycle " << n;
    }
    // The release overshoots nominal, as it must at Q = 3.
    EXPECT_GT(trace.vMax, v1 + 0.5 * r * di0);
}

TEST(PdnModel, CriticalAndOverdampedNetworksStayFinite)
{
    // At Q <= 0.5 the ringing frequency sqrt(1/LC - a^2) does not
    // exist; the step must still be finite and settle.
    for (double q : {0.5, 0.3}) {
        SCOPED_TRACE(q);
        const PdnModel model(
            PdnConfig::forResonance("damped", 1.2, 100e6, q, 1e-3));
        // A DC load is a fixed point, bit for bit.
        const VoltageTrace dc =
            model.simulate(std::vector<double>(4096, 20.0), 3.0);
        for (double v : dc.volts)
            ASSERT_EQ(v, 1.2 - 1e-3 * 20.0);
        EXPECT_EQ(dc.peakToPeak(), 0.0);

        std::vector<double> amps(8192, 30.0);
        for (std::size_t c = 100; c < amps.size(); ++c)
            amps[c] = 10.0;
        const VoltageTrace step = model.simulate(amps, 3.0);
        for (double v : step.volts)
            ASSERT_TRUE(std::isfinite(v));
        EXPECT_NEAR(step.volts.back(), 1.2 - 1e-3 * 10.0, 1e-12);
    }
}

TEST(PdnModel, ExactStepMatchesAFineEulerReference)
{
    // The Athlon preset under a 5/35 A square wave at resonance (31
    // cycles at 3.1 GHz), against semi-implicit Euler at 2000 substeps
    // per cycle, whose error shrinks with the substep.
    const PdnConfig cfg = athlonPdn();
    const auto amps = squareWave(8192, 31, 5.0, 35.0);
    const VoltageTrace exact = PdnModel(cfg).simulate(amps, 3.1);

    const int substeps = 2000;
    const double dt = 1e-9 / 3.1 / substeps;
    const double r = cfg.resistanceOhm;
    double i_l = amps[0];
    double v_c = cfg.vdd - r * i_l;
    double v_min = 1e9, v_max = -1e9;
    for (std::size_t n = 0; n < amps.size(); ++n) {
        for (int s = 0; s < substeps; ++s) {
            i_l += dt * (cfg.vdd - v_c - r * i_l) / cfg.inductanceH;
            v_c += dt * (i_l - amps[n]) / cfg.capacitanceF;
        }
        if (n >= 256) {
            v_min = std::min(v_min, v_c);
            v_max = std::max(v_max, v_c);
        }
    }
    EXPECT_NEAR(exact.vMin, v_min, 1e-5);
    EXPECT_NEAR(exact.vMax, v_max, 1e-5);
    EXPECT_NEAR(exact.peakToPeak(), v_max - v_min, 1e-5);
}

// ------------------------------------------------------------ Spectrum

TEST(Spectrum, RecoversPureToneAmplitude)
{
    const double fs = 3.1e9;
    const double tone = 100e6;
    std::vector<double> samples(8192);
    for (std::size_t i = 0; i < samples.size(); ++i)
        samples[i] = 20.0 + 5.0 * std::sin(2.0 * pi * tone *
                                           static_cast<double>(i) / fs);
    // DC offset removed, amplitude recovered.
    EXPECT_NEAR(toneAmplitude(samples, fs, tone), 5.0, 0.05);
    // Energy elsewhere is tiny.
    EXPECT_LT(toneAmplitude(samples, fs, 55e6), 0.3);
    EXPECT_LT(toneAmplitude(samples, fs, 200e6), 0.3);
}

TEST(Spectrum, SquareWaveFundamentalDominates)
{
    const double fs = 3.0e9;
    const int period = 30; // 100 MHz
    std::vector<double> samples(8192);
    for (std::size_t i = 0; i < samples.size(); ++i)
        samples[i] = (static_cast<int>(i) % period) * 2 < period ? 35.0
                                                                 : 5.0;
    const double fundamental = fs / period;
    const double amp = toneAmplitude(samples, fs, fundamental);
    // Square wave fundamental: (4/pi) * half-swing = 19.1.
    EXPECT_NEAR(amp, 4.0 / pi * 15.0, 1.5);
    EXPECT_NEAR(dominantTone(samples, fs, 20e6, 400e6, 96),
                fundamental, 8e6);
}

TEST(Spectrum, DcOnlySignalHasNoTones)
{
    const std::vector<double> flat(4096, 42.0);
    EXPECT_NEAR(toneAmplitude(flat, 3e9, 100e6), 0.0, 1e-9);
}

TEST(Spectrum, AmplitudeSpectrumMatchesPointQueries)
{
    const double fs = 3.0e9;
    std::vector<double> samples(4096);
    for (std::size_t i = 0; i < samples.size(); ++i)
        samples[i] = std::sin(2.0 * pi * 80e6 *
                              static_cast<double>(i) / fs);
    const std::vector<double> tones{40e6, 80e6, 160e6};
    const std::vector<double> spectrum =
        amplitudeSpectrum(samples, fs, tones);
    ASSERT_EQ(spectrum.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_NEAR(spectrum[i], toneAmplitude(samples, fs, tones[i]),
                    1e-12);
    EXPECT_GT(spectrum[1], spectrum[0] * 5.0);
    EXPECT_GT(spectrum[1], spectrum[2] * 5.0);
}

TEST(Spectrum, RejectsBadArguments)
{
    const std::vector<double> samples(128, 1.0);
    EXPECT_THROW(toneAmplitude(samples, -1.0, 1e6), FatalError);
    EXPECT_THROW(toneAmplitude(samples, 1e9, 0.9e9), FatalError);
    EXPECT_THROW(dominantTone(samples, 1e9, 2e6, 1e6), FatalError);
    EXPECT_DOUBLE_EQ(toneAmplitude({}, 1e9, 1e6), 0.0);
}

TEST(Spectrum, WorksOnNonPowerOfTwoLengths)
{
    // Goertzel has no FFT length restriction: a prime-length trace
    // still resolves its tone.
    const double fs = 3.0e9;
    std::vector<double> samples(3001);
    for (std::size_t i = 0; i < samples.size(); ++i)
        samples[i] = 2.5 * std::sin(2.0 * pi * 80e6 *
                                    static_cast<double>(i) / fs);
    EXPECT_NEAR(toneAmplitude(samples, fs, 80e6), 2.5, 0.05);
    EXPECT_LT(toneAmplitude(samples, fs, 160e6), 0.1);
}

TEST(Spectrum, DegenerateLengthsHaveNoAcContent)
{
    EXPECT_DOUBLE_EQ(toneAmplitude({}, 1e9, 1e6), 0.0);
    EXPECT_DOUBLE_EQ(toneAmplitude({7.0}, 1e9, 1e6), 0.0);
}

TEST(Spectrum, DominantToneClampsToNyquist)
{
    // A scan band reaching past Nyquist is clamped, not fatal...
    const double fs = 1.0e9;
    std::vector<double> samples(2048);
    for (std::size_t i = 0; i < samples.size(); ++i)
        samples[i] = std::sin(2.0 * pi * 100e6 *
                              static_cast<double>(i) / fs);
    const double tone = dominantTone(samples, fs, 50e6, 10e9, 128);
    EXPECT_NEAR(tone, 100e6, 10e6);

    // ...unless nothing of the band survives the clamp.
    EXPECT_THROW(dominantTone(samples, fs, 0.7e9, 10e9), FatalError);
    EXPECT_THROW(dominantTone(samples, 0.0, 1e6, 2e6), FatalError);
}

} // namespace
} // namespace pdn
} // namespace gest
