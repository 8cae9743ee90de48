/**
 * @file
 * Sealing captured signals as versioned run artifacts.
 *
 * A probe's capture is written as `<basename>.csv`, validated by
 * tools/check_waveforms.py: long-format CSV, one row per sample or
 * mark, headed by `# gest-waveforms v1` plus one `# signal ...` comment
 * per waveform (unit, sample rate, warmup, drop count) and one
 * `# annotation ...` comment per scalar. Values are printed with 17
 * significant digits so the scalar Evaluation can be re-derived from
 * the samples to 1e-9.
 *
 * When the capture includes a chip-current waveform and PDN
 * annotations, a `<basename>_spectrum.csv` companion is written: the
 * current's amplitude spectrum across a band around the PDN resonance
 * (pdn/spectrum's Goertzel scan), the direct evidence that a dI/dt
 * virus concentrates energy at f_res.
 */

#ifndef GEST_SIGNAL_WAVEFORM_IO_HH
#define GEST_SIGNAL_WAVEFORM_IO_HH

#include <string>
#include <vector>

#include "signal/signal_probe.hh"

namespace gest {
namespace signal {

/** waveform CSV format version written by this build. */
constexpr int waveformCsvVersion = 1;

/** Render a capture as the long-format CSV artifact. */
std::string formatWaveformsCsv(const SignalProbe& probe);

/**
 * Amplitude spectrum of the probe's chip-current waveform as
 * `frequency_hz,amplitude_a` CSV rows. The scanned band is centred on
 * the `pdn_resonance_hz` annotation (0.1x to 4x resonance, bounded by
 * Nyquist). Empty string when the capture has no chip current, no PDN
 * annotation, or fewer than two samples.
 */
std::string formatSpectrumCsv(const SignalProbe& probe, int tones = 96);

/** Paths written by writeWaveformArtifacts. */
struct WaveformArtifacts
{
    std::string csvPath;
    std::string spectrumPath; ///< empty when no spectrum applies
};

/**
 * Write `<dir>/<basename>.csv` and (when applicable)
 * `<dir>/<basename>_spectrum.csv`; @p dir is created if absent.
 */
WaveformArtifacts writeWaveformArtifacts(const std::string& dir,
                                         const std::string& basename,
                                         const SignalProbe& probe);

} // namespace signal
} // namespace gest

#endif // GEST_SIGNAL_WAVEFORM_IO_HH
