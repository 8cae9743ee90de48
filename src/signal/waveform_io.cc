#include "signal/waveform_io.hh"

#include "pdn/spectrum.hh"
#include "util/fileutil.hh"
#include "util/strutil.hh"

namespace gest {
namespace signal {

namespace {

/**
 * Full-precision decimal rendering: 17 significant digits round-trip
 * an IEEE double, so the validator can hold the artifact to the 1e-9
 * agreement contract against the scalar Evaluation. The sample rows
 * append through appendNumber() directly, the same bytes.
 */
std::string
formatExact(double v)
{
    std::string out;
    appendNumber(out, v);
    return out;
}

} // namespace

std::string
formatWaveformsCsv(const SignalProbe& probe)
{
    std::string out;
    out += "# gest-waveforms v" + std::to_string(waveformCsvVersion) +
           "\n";
    for (const auto& [key, value] : probe.annotations())
        out += "# annotation " + key + " " + formatExact(value) + "\n";
    for (const Waveform& w : probe.waveforms()) {
        out += "# signal " + w.name + " unit=" + w.unit +
               " rate_hz=" + formatExact(w.sampleRateHz) +
               " warmup=" + std::to_string(w.warmupSamples) +
               " samples=" + std::to_string(w.samples.size()) +
               " dropped=" + std::to_string(w.dropped) + "\n";
    }
    out += "signal,kind,index,time_s,value\n";
    // A sample row is its signal's name and at most ~64 more bytes.
    std::size_t row_bytes = 0;
    for (const Waveform& w : probe.waveforms())
        row_bytes += w.samples.size() * (w.name.size() + 64);
    out.reserve(out.size() + row_bytes);
    for (const Waveform& w : probe.waveforms()) {
        for (std::size_t i = 0; i < w.samples.size(); ++i) {
            out += w.name;
            out += ",sample,";
            appendNumber(out, i);
            out += ',';
            appendNumber(out, w.timeAt(i));
            out += ',';
            appendNumber(out, w.samples[i]);
            out += '\n';
        }
    }
    for (const EventMark& m : probe.marks()) {
        out += m.kind;
        out += ",mark,";
        appendNumber(out, m.index);
        out += ',';
        appendNumber(out, m.timeS);
        out += ",1\n";
    }
    return out;
}

std::string
formatSpectrumCsv(const SignalProbe& probe, int tones)
{
    const Waveform* current = probe.find("chip_current_a");
    if (!current || current->samples.size() < 2 || tones < 2)
        return "";
    if (!probe.hasAnnotation("pdn_resonance_hz"))
        return "";
    const double resonance =
        probe.annotationOr("pdn_resonance_hz", 0.0);
    const double rate = current->sampleRateHz;
    if (resonance <= 0.0 || rate <= 0.0)
        return "";

    // 0.1x to 4x resonance covers the fundamental plus the first
    // harmonics a loop-shaped current train produces; clamp under
    // Nyquist so the Goertzel scan stays valid.
    const double lo = resonance * 0.1;
    double hi = resonance * 4.0;
    if (hi > rate / 2.0)
        hi = rate / 2.0;
    if (lo >= hi)
        return "";

    std::string out = "# gest-spectrum v1\n";
    out += "# resonance_hz " + formatExact(resonance) + "\n";
    out += "frequency_hz,amplitude_a\n";
    for (int i = 0; i < tones; ++i) {
        const double tone =
            lo + (hi - lo) * static_cast<double>(i) /
                     static_cast<double>(tones - 1);
        out += formatExact(tone) + "," +
               formatExact(pdn::toneAmplitude(current->samples, rate,
                                              tone)) +
               "\n";
    }
    return out;
}

WaveformArtifacts
writeWaveformArtifacts(const std::string& dir,
                       const std::string& basename,
                       const SignalProbe& probe)
{
    ensureDir(dir);
    WaveformArtifacts paths;
    paths.csvPath = dir + "/" + basename + ".csv";
    writeFile(paths.csvPath, formatWaveformsCsv(probe));
    const std::string spectrum = formatSpectrumCsv(probe);
    if (!spectrum.empty()) {
        paths.spectrumPath = dir + "/" + basename + "_spectrum.csv";
        writeFile(paths.spectrumPath, spectrum);
    }
    return paths;
}

} // namespace signal
} // namespace gest
