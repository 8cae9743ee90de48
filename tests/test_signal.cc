/**
 * @file
 * Tests for the signal-capture layer: SignalProbe bounds and capture
 * fidelity, waveform artifacts, probe analysis, the champion flight
 * recorder and the determinism contract (capture only observes).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>

#include "config/config.hh"
#include "core/engine.hh"
#include "measure/sim_measurements.hh"
#include "output/flight_recorder.hh"
#include "signal/analysis.hh"
#include "signal/signal_probe.hh"
#include "signal/waveform_io.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/strutil.hh"

namespace gest {
namespace signal {
namespace {

std::vector<isa::InstructionInstance>
athlonLoop(const isa::InstructionLibrary& lib)
{
    // A dI/dt-ish body: bursts of FP multiplies separated by NOPs.
    std::vector<isa::InstructionInstance> code;
    for (int i = 0; i < 4; ++i)
        code.push_back(lib.makeInstance("MULPD", {"xmm0", "xmm1"}));
    for (int i = 0; i < 4; ++i)
        code.push_back(lib.makeInstance("NOP", {}));
    return code;
}

std::vector<isa::InstructionInstance>
armLoop(const isa::InstructionLibrary& lib)
{
    return {
        lib.makeInstance("ADD", {"x4", "x5", "x6"}),
        lib.makeInstance("FMUL", {"v0", "v1", "v2"}),
        lib.makeInstance("LDR", {"x2", "x10", "8"}),
        lib.makeInstance("MUL", {"x5", "x6", "x7"}),
    };
}

TEST(Probe, RecordReplaceAndAnnotate)
{
    SignalProbe probe;
    probe.recordWaveform("x", "V", 1000.0, {1.0, 2.0, 3.0});
    probe.recordWaveform("y", "W", 10.0, {5.0});
    ASSERT_EQ(probe.waveforms().size(), 2u);

    // Re-recording a name replaces the prior capture in place.
    probe.recordWaveform("x", "A", 500.0, {9.0});
    ASSERT_EQ(probe.waveforms().size(), 2u);
    const Waveform* x = probe.find("x");
    ASSERT_NE(x, nullptr);
    EXPECT_EQ(x->unit, "A");
    ASSERT_EQ(x->samples.size(), 1u);
    EXPECT_DOUBLE_EQ(x->samples[0], 9.0);
    EXPECT_EQ(probe.find("nope"), nullptr);

    probe.annotate("k", 1.0);
    probe.annotate("k", 2.0); // last write wins
    EXPECT_TRUE(probe.hasAnnotation("k"));
    EXPECT_DOUBLE_EQ(probe.annotationOr("k", -1.0), 2.0);
    EXPECT_DOUBLE_EQ(probe.annotationOr("absent", -1.0), -1.0);
    EXPECT_FALSE(probe.hasAnnotation("absent"));

    probe.clear();
    EXPECT_TRUE(probe.waveforms().empty());
    EXPECT_TRUE(probe.annotations().empty());
}

TEST(Probe, SampleAndMarkBoundsAreCounted)
{
    SignalProbe::Config cfg;
    cfg.maxSamplesPerSignal = 8;
    cfg.maxMarks = 3;
    SignalProbe probe(cfg);

    const std::vector<double> long_trace(20, 1.5);
    const Waveform& w =
        probe.recordWaveform("v", "V", 1e9, long_trace);
    EXPECT_EQ(w.samples.size(), 8u);
    EXPECT_EQ(w.dropped, 12u);

    for (std::size_t i = 0; i < 5; ++i)
        probe.mark("l1_miss", i, static_cast<double>(i) * 1e-9);
    EXPECT_EQ(probe.marks().size(), 3u);
    EXPECT_EQ(probe.droppedMarks(), 2u);
}

TEST(Probe, WaveformStatsRespectWarmup)
{
    SignalProbe probe;
    // Warmup sample (100) must not leak into the summary stats.
    const Waveform& w = probe.recordWaveform(
        "v", "V", 10.0, {100.0, 1.0, 3.0, 2.0}, 1);
    EXPECT_DOUBLE_EQ(w.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(w.maxValue(), 3.0);
    EXPECT_DOUBLE_EQ(w.meanValue(), 2.0);
    EXPECT_DOUBLE_EQ(w.timeAt(2), 0.2);
}

TEST(Probe, CaptureAgreesWithScalarEvaluation)
{
    const auto plat = platform::athlonX4Platform();
    SignalProbe probe;
    const platform::Evaluation eval =
        plat->evaluate(athlonLoop(plat->library()), true, 2048, &probe);

    // The captured PDN voltage trace must reproduce the scalar
    // Evaluation exactly: same model pass, same warmup policy.
    const Waveform* v = probe.find("pdn_voltage_v");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->dropped, 0u);
    EXPECT_EQ(v->warmupSamples, 256u);
    EXPECT_DOUBLE_EQ(v->minValue(), eval.vMin);
    EXPECT_DOUBLE_EQ(v->maxValue(), eval.vMax);

    // Every waveform layer reported in.
    EXPECT_NE(probe.find("interval_ipc"), nullptr);
    EXPECT_NE(probe.find("core_power_w"), nullptr);
    EXPECT_NE(probe.find("core_current_a"), nullptr);
    EXPECT_NE(probe.find("chip_current_a"), nullptr);
    EXPECT_NE(probe.find("die_temp_c"), nullptr);

    // The annotations carry the scalar summary verbatim.
    EXPECT_DOUBLE_EQ(probe.annotationOr("v_min", -1.0), eval.vMin);
    EXPECT_DOUBLE_EQ(probe.annotationOr("v_max", -1.0), eval.vMax);
    EXPECT_DOUBLE_EQ(probe.annotationOr("peak_to_peak_v", -1.0),
                     eval.peakToPeakV);
    EXPECT_DOUBLE_EQ(probe.annotationOr("ipc", -1.0), eval.ipc);
    EXPECT_DOUBLE_EQ(probe.annotationOr("core_power_w", -1.0),
                     eval.corePowerWatts);
    EXPECT_DOUBLE_EQ(probe.annotationOr("chip_power_w", -1.0),
                     eval.chipPowerWatts);
    EXPECT_DOUBLE_EQ(probe.annotationOr("die_temp_c", -1.0),
                     eval.dieTempC);
    EXPECT_GT(probe.annotationOr("pdn_resonance_hz", 0.0), 0.0);
}

TEST(Probe, EvaluationIsBitIdenticalWithAndWithoutProbe)
{
    const auto plat = platform::athlonX4Platform();
    const auto code = athlonLoop(plat->library());

    const platform::Evaluation plain = plat->evaluate(code, true, 2048);
    SignalProbe probe;
    const platform::Evaluation captured =
        plat->evaluate(code, true, 2048, &probe);

    EXPECT_EQ(plain.sim.cycles, captured.sim.cycles);
    EXPECT_EQ(plain.sim.instructions, captured.sim.instructions);
    EXPECT_EQ(plain.ipc, captured.ipc);
    EXPECT_EQ(plain.corePowerWatts, captured.corePowerWatts);
    EXPECT_EQ(plain.chipPowerWatts, captured.chipPowerWatts);
    EXPECT_EQ(plain.dieTempC, captured.dieTempC);
    EXPECT_EQ(plain.vMin, captured.vMin);
    EXPECT_EQ(plain.vMax, captured.vMax);
    EXPECT_EQ(plain.peakToPeakV, captured.peakToPeakV);
    EXPECT_EQ(plain.hasVoltage, captured.hasVoltage);
}

TEST(Probe, PowerOnlyEvaluationStillCapturesVoltageOnPdnPlatform)
{
    // want_voltage=false: the Evaluation must not grow voltage fields,
    // but the probe still sees the PDN transient.
    const auto plat = platform::athlonX4Platform();
    SignalProbe probe;
    const platform::Evaluation eval =
        plat->evaluate(athlonLoop(plat->library()), false, 2048, &probe);
    EXPECT_FALSE(eval.hasVoltage);
    EXPECT_DOUBLE_EQ(eval.vMin, 0.0);
    EXPECT_NE(probe.find("pdn_voltage_v"), nullptr);
    EXPECT_TRUE(probe.hasAnnotation("peak_to_peak_v"));
}

TEST(Probe, ThermalTransientHeatsMonotonically)
{
    // The captured heat-up starts at the idle-settled die temperature
    // and rises monotonically toward the loaded equilibrium (§V).
    const auto plat = platform::cortexA15Platform();
    SignalProbe probe;
    const platform::Evaluation eval =
        plat->evaluate(armLoop(plat->library()), false, 2048, &probe);
    const Waveform* t = probe.find("die_temp_c");
    ASSERT_NE(t, nullptr);
    ASSERT_GE(t->samples.size(), 2u);
    for (std::size_t i = 1; i < t->samples.size(); ++i)
        EXPECT_GE(t->samples[i], t->samples[i - 1] - 1e-9);
    EXPECT_GE(t->samples.front(), plat->idleTempC() - 1.0);
    EXPECT_LE(t->samples.back(), eval.dieTempC + 1.0);
}

TEST(WaveformIo, CsvCarriesVersionHeadersAndRows)
{
    SignalProbe probe;
    probe.annotate("answer", 42.0);
    probe.recordWaveform("v", "V", 1000.0, {1.25, 2.5}, 1);
    probe.mark("l1_miss", 7, 0.007);

    const std::string csv = formatWaveformsCsv(probe);
    EXPECT_EQ(csv.rfind("# gest-waveforms v1\n", 0), 0u);
    EXPECT_NE(csv.find("# annotation answer 42\n"), std::string::npos);
    EXPECT_NE(csv.find("# signal v unit=V rate_hz=1000 warmup=1 "
                       "samples=2 dropped=0\n"),
              std::string::npos);
    EXPECT_NE(csv.find("signal,kind,index,time_s,value\n"),
              std::string::npos);
    EXPECT_NE(csv.find("v,sample,0,0,1.25\n"), std::string::npos);
    EXPECT_NE(csv.find("v,sample,1,0.001,2.5\n"), std::string::npos);
    EXPECT_NE(csv.find("l1_miss,mark,7,0.007"), std::string::npos);
}

TEST(WaveformIo, SpectrumNeedsCurrentAndPdnAnnotation)
{
    SignalProbe bare;
    EXPECT_TRUE(formatSpectrumCsv(bare).empty());

    // Current alone is not enough — without the resonance annotation
    // there is no band to scan.
    SignalProbe no_pdn;
    no_pdn.recordWaveform("chip_current_a", "A", 1e9,
                          std::vector<double>(64, 1.0));
    EXPECT_TRUE(formatSpectrumCsv(no_pdn).empty());

    SignalProbe full;
    full.recordWaveform("chip_current_a", "A", 1e9,
                        std::vector<double>(64, 1.0));
    full.annotate("pdn_resonance_hz", 1e8);
    const std::string spectrum = formatSpectrumCsv(full);
    EXPECT_EQ(spectrum.rfind("# gest-spectrum v1\n", 0), 0u);
    EXPECT_NE(spectrum.find("frequency_hz,amplitude_a\n"),
              std::string::npos);
}

/** printf's `%.17g` of @p v: the bytes the CSV renderers must print. */
std::string
printfExact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * @p count seeded doubles over the shapes that print differently:
 * random bit patterns (NaNs and infinities among them), subnormals,
 * signed zeros, integers and magnitudes near 1e±300.
 */
std::vector<double>
awkwardDoubles(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> out;
    for (std::size_t i = 0; i < count; ++i) {
        const double unit = rng.nextDouble();
        switch (i % 6) {
          case 0: out.push_back(std::bit_cast<double>(rng.next())); break;
          case 1:
            out.push_back(std::bit_cast<double>(
                rng.next() & 0x800fffffffffffffULL));
            break;
          case 2: out.push_back(rng.nextBool(0.5) ? 0.0 : -0.0); break;
          case 3:
            out.push_back(static_cast<double>(rng.nextRange(-1000000,
                                                            1000000)));
            break;
          case 4: out.push_back((unit - 0.5) * 1e300); break;
          default: out.push_back((unit - 0.5) * 1e-300); break;
        }
    }
    return out;
}

TEST(WaveformIo, EveryValuePrintsAsPrintfExact)
{
    const std::vector<double> values = awkwardDoubles(3000, 41);
    SignalProbe probe;
    for (std::size_t i = 0; i < 12; ++i)
        probe.annotate("a" + std::to_string(i), values[i]);
    probe.recordWaveform(
        "w", "V", 3e9 / 7.0,
        std::vector<double>(values.begin(), values.begin() + 2000), 3);
    probe.recordWaveform(
        "slow", "A", 0.7,
        std::vector<double>(values.begin() + 2000, values.end()));
    Rng rng(42);
    for (std::size_t i = 0; i < 200; ++i)
        probe.mark("l1_miss", i * 3, values[rng.nextBelow(values.size())]);

    // The reference: the same layout, every number through snprintf.
    std::string want = "# gest-waveforms v1\n";
    for (const auto& [key, value] : probe.annotations())
        want += "# annotation " + key + " " + printfExact(value) + "\n";
    for (const Waveform& w : probe.waveforms())
        want += "# signal " + w.name + " unit=" + w.unit +
                " rate_hz=" + printfExact(w.sampleRateHz) +
                " warmup=" + std::to_string(w.warmupSamples) +
                " samples=" + std::to_string(w.samples.size()) +
                " dropped=" + std::to_string(w.dropped) + "\n";
    want += "signal,kind,index,time_s,value\n";
    for (const Waveform& w : probe.waveforms())
        for (std::size_t i = 0; i < w.samples.size(); ++i)
            want += w.name + ",sample," + std::to_string(i) + "," +
                    printfExact(w.timeAt(i)) + "," +
                    printfExact(w.samples[i]) + "\n";
    for (const EventMark& m : probe.marks())
        want += m.kind + ",mark," + std::to_string(m.index) + "," +
                printfExact(m.timeS) + ",1\n";
    EXPECT_EQ(formatWaveformsCsv(probe), want);
}

TEST(WaveformIo, SpectrumValuesPrintAsPrintfExact)
{
    // Each number must be the %.17g text of the double it parses to:
    // 17 digits round-trip, so any other rendering of that double
    // differs from the printf text.
    Rng rng(43);
    for (int trial = 0; trial < 8; ++trial) {
        SignalProbe probe;
        std::vector<double> current;
        for (int i = 0; i < 256; ++i)
            current.push_back(rng.nextDouble() * (trial + 1));
        if (trial % 2)
            current[rng.nextBelow(current.size())] = 5e-324;
        probe.recordWaveform("chip_current_a", "A",
                             1e9 + rng.nextDouble() * 1e8, current);
        probe.annotate("pdn_resonance_hz",
                       5e7 * (1.0 + rng.nextDouble()));
        const std::string spectrum = formatSpectrumCsv(probe);
        const std::vector<std::string> lines = split(spectrum, '\n');
        ASSERT_EQ(lines.size(), 96u + 4u);
        ASSERT_TRUE(startsWith(lines[1], "# resonance_hz "));
        EXPECT_EQ(lines[1].substr(15),
                  printfExact(probe.annotationOr("pdn_resonance_hz", 0)));
        for (std::size_t i = 3; i + 1 < lines.size(); ++i) {
            const std::vector<std::string> fields = split(lines[i], ',');
            ASSERT_EQ(fields.size(), 2u) << lines[i];
            for (const std::string& f : fields)
                EXPECT_EQ(f, printfExact(std::strtod(f.c_str(), nullptr)));
        }
    }
}

TEST(WaveformIo, WriteArtifactsSealsCsvAndSpectrum)
{
    const auto plat = platform::athlonX4Platform();
    SignalProbe probe;
    plat->evaluate(athlonLoop(plat->library()), true, 2048, &probe);

    const std::string dir = makeTempDir("gest-waveio");
    const WaveformArtifacts art =
        writeWaveformArtifacts(dir + "/wf", "champ", probe);
    EXPECT_TRUE(fileExists(art.csvPath));
    ASSERT_FALSE(art.spectrumPath.empty());
    EXPECT_TRUE(fileExists(art.spectrumPath));
    EXPECT_EQ(listFiles(dir + "/wf"),
              (std::vector<std::string>{"champ.csv", "champ_spectrum.csv"}));
    EXPECT_EQ(readFile(art.csvPath).rfind("# gest-waveforms v1\n", 0),
              0u);
    removeAll(dir);
}

TEST(Analysis, SummaryDerivesHeadlineMetrics)
{
    const auto plat = platform::athlonX4Platform();
    SignalProbe probe;
    const platform::Evaluation eval =
        plat->evaluate(athlonLoop(plat->library()), true, 2048, &probe);

    const ProbeSummary s = summarizeProbe(probe);
    EXPECT_TRUE(s.hasVoltage);
    EXPECT_DOUBLE_EQ(s.vMin, eval.vMin);
    EXPECT_DOUBLE_EQ(s.peakToPeakV, eval.peakToPeakV);
    EXPECT_GT(s.droopDepthV, 0.0);
    EXPECT_NEAR(s.droopDepthV, plat->chip().vdd - eval.vMin, 1e-12);
    EXPECT_GT(s.pdnResonanceHz, 0.0);
    EXPECT_GT(s.dominantToneHz, 0.0);
    EXPECT_GT(s.thermalTauSeconds, 0.0);
    EXPECT_GE(s.powerDutyCycle, 0.0);
    EXPECT_LE(s.powerDutyCycle, 1.0);

    const std::string text = formatProbeSummary(s, probe);
    EXPECT_NE(text.find("droop"), std::string::npos);
    EXPECT_NE(text.find("resonance"), std::string::npos);
}

class FlightRecorderTest : public ::testing::Test
{
  protected:
    FlightRecorderTest()
        : _plat(platform::cortexA7Platform()), _lib(_plat->library())
    {
    }

    core::Population makeGeneration(int generation,
                                    std::vector<double> fitnesses,
                                    std::uint64_t first_id) const
    {
        core::Population pop;
        pop.generation = generation;
        for (double f : fitnesses) {
            core::Individual ind;
            ind.code = armLoop(_lib);
            ind.id = first_id++;
            ind.fitness = f;
            ind.evaluated = true;
            pop.individuals.push_back(std::move(ind));
        }
        return pop;
    }

    static core::GenerationRecord recordFor(const core::Population& pop)
    {
        core::GenerationRecord record;
        record.generation = pop.generation;
        return record;
    }

    std::shared_ptr<const platform::Platform> _plat;
    const isa::InstructionLibrary& _lib;
};

TEST_F(FlightRecorderTest, KeepsTopKStrongestFirst)
{
    output::FlightRecorder fr("unused", 2);
    const core::Population gen0 =
        makeGeneration(0, {0.5, 2.0, 1.0}, 1);
    fr.onGenerationEvaluated(gen0, recordFor(gen0));
    // 0.5 was retained while the ring was filling; 1.0 displaced it.
    ASSERT_EQ(fr.entries().size(), 2u);
    EXPECT_DOUBLE_EQ(fr.entries()[0].fitness, 2.0);
    EXPECT_DOUBLE_EQ(fr.entries()[1].fitness, 1.0);
    EXPECT_EQ(fr.entries()[1].code, armLoop(_lib));

    // A stronger champion evicts the weakest; a weaker one is ignored.
    const core::Population gen1 =
        makeGeneration(1, {3.0, 0.25}, 10);
    fr.onGenerationEvaluated(gen1, recordFor(gen1));
    ASSERT_EQ(fr.entries().size(), 2u);
    EXPECT_DOUBLE_EQ(fr.entries()[0].fitness, 3.0);
    EXPECT_EQ(fr.entries()[0].id, 10u);
    EXPECT_EQ(fr.entries()[0].generation, 1);
    EXPECT_DOUBLE_EQ(fr.entries()[1].fitness, 2.0);
}

TEST_F(FlightRecorderTest, RetainsEachIdOnceAndSkipsUnevaluated)
{
    output::FlightRecorder fr("unused", 4);
    core::Population pop = makeGeneration(0, {1.0, 2.0}, 1);
    pop.individuals[1].evaluated = false;
    fr.onGenerationEvaluated(pop, recordFor(pop));
    EXPECT_EQ(fr.entries().size(), 1u);

    // Elitism carries id 1 into the next generation: it keeps the
    // generation it entered in.
    const core::Population again = makeGeneration(1, {1.0}, 1);
    fr.onGenerationEvaluated(again, recordFor(again));
    ASSERT_EQ(fr.entries().size(), 1u);
    EXPECT_EQ(fr.entries()[0].generation, 0);
}

TEST_F(FlightRecorderTest, RejectsBadConstruction)
{
    EXPECT_THROW(output::FlightRecorder("d", 0), FatalError);
}

TEST_F(FlightRecorderTest, SealWritesIndexAndArtifacts)
{
    const std::string dir = makeTempDir("gest-fr");
    output::FlightRecorder fr(dir, 2);
    const core::Population pop =
        makeGeneration(0, {1.0, 4.0, 2.0}, 21);
    fr.onGenerationEvaluated(pop, recordFor(pop));

    measure::SimPowerMeasurement meas(_lib, _plat);
    std::vector<signal::WaveformArtifacts> captures;
    for (std::size_t rank = 0; rank < fr.entries().size(); ++rank) {
        SignalProbe probe;
        meas.measureWithProbe(fr.entries()[rank].code, &probe);
        captures.push_back(fr.writeCapture(rank, probe));
    }
    const std::vector<std::string> files = fr.writeIndex(captures);
    ASSERT_GE(files.size(), 3u); // index + 2x csv
    EXPECT_EQ(files[0], dir + "/waveforms/index.csv");
    for (const std::string& f : files)
        EXPECT_TRUE(fileExists(f)) << f;

    const std::string index = readFile(files[0]);
    EXPECT_EQ(index.rfind("# gest-waveform-index v2\n", 0), 0u);
    EXPECT_NE(index.find("rank,id,generation,fitness,csv,spectrum\n"),
              std::string::npos);
    // Strongest first: the fitness-4.0 individual (id 22) is rank 1.
    EXPECT_NE(index.find("1,22,0,4,22.csv,"), std::string::npos);
    EXPECT_NE(index.find("2,23,0,2,23.csv,"), std::string::npos);
    removeAll(dir);
}

const char* kWaveformRunConfig = R"(
<gest_configuration>
  <ga population_size="8" individual_size="6" generations="3"
      seed="5" tournament_size="3"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a7" min_cycles="1024"/>
  </measurement>
  <fitness class="DefaultFitness"/>
</gest_configuration>
)";

TEST(Determinism, RunHistoryByteIdenticalWithWaveformsOnOrOff)
{
    const std::string dir = makeTempDir("gest-wfrun");

    // stats off: the history timing columns read wall clocks, which
    // would differ between the runs for reasons unrelated to capture.
    config::RunConfig off = config::parseConfig(kWaveformRunConfig);
    off.outputDirectory = dir + "/off";
    off.recordStats = false;
    const config::RunResult off_result = config::runFromConfig(off);
    EXPECT_TRUE(off_result.waveformFiles.empty());

    config::RunConfig on = config::parseConfig(kWaveformRunConfig);
    on.outputDirectory = dir + "/on";
    on.recordStats = false;
    on.waveformTopK = 2;
    const config::RunResult on_result = config::runFromConfig(on);

    // The recorder only observes: identical search, identical files.
    EXPECT_EQ(readFile(dir + "/off/history.csv"),
              readFile(dir + "/on/history.csv"));
    EXPECT_EQ(off_result.best.fitness, on_result.best.fitness);
    EXPECT_EQ(off_result.best.code, on_result.best.code);

    // And the waveform artifacts exist where the index says they are.
    ASSERT_FALSE(on_result.waveformFiles.empty());
    EXPECT_EQ(on_result.waveformFiles[0],
              dir + "/on/waveforms/index.csv");
    for (const std::string& f : on_result.waveformFiles)
        EXPECT_TRUE(fileExists(f)) << f;
    removeAll(dir);
}

TEST(Determinism, WaveformsWithoutOutputDirIsSkippedNotFatal)
{
    config::RunConfig cfg = config::parseConfig(kWaveformRunConfig);
    cfg.waveformTopK = 2; // no outputDirectory: warn and continue
    const config::RunResult result = config::runFromConfig(cfg);
    EXPECT_TRUE(result.waveformFiles.empty());
    EXPECT_GT(result.best.fitness, 0.0);
}

TEST(Determinism, SealedCapturesMatchAFreshMeasurement)
{
    // The seal captures each champion on a pool worker's clone, which
    // has already measured the whole search; a fresh measurement must
    // capture the same bytes.
    config::RunConfig cfg = config::parseConfig(R"(
<gest_configuration>
  <ga population_size="8" individual_size="8" generations="3"
      seed="11" tournament_size="3" threads="4"/>
  <library name="x86"/>
  <measurement class="SimPowerMeasurement">
    <config platform="athlon-x4" min_cycles="1024"/>
  </measurement>
  <fitness class="DefaultFitness"/>
</gest_configuration>
)");
    const std::string dir = makeTempDir("gest-wfpool");
    cfg.outputDirectory = dir + "/run";
    cfg.recordStats = false;
    cfg.waveformTopK = 3;
    config::runFromConfig(cfg);

    // Each index row names a champion and the generation whose
    // population checkpoint holds its code.
    const std::string waveforms = cfg.outputDirectory + "/waveforms/";
    const std::vector<std::string> lines =
        split(readFile(waveforms + "index.csv"), '\n');
    int champions = 0;
    for (std::size_t i = 2; i < lines.size(); ++i) {
        if (lines[i].empty())
            continue;
        const std::vector<std::string> row = split(lines[i], ',');
        ASSERT_EQ(row.size(), 6u) << lines[i];
        const std::string& id = row[1];
        SCOPED_TRACE(id);
        const core::Population pop = core::loadPopulation(
            cfg.library,
            cfg.outputDirectory + "/population_" + row[2] + ".pop");
        const auto champion = std::find_if(
            pop.individuals.begin(), pop.individuals.end(),
            [&](const core::Individual& ind) {
                return std::to_string(ind.id) == id;
            });
        ASSERT_NE(champion, pop.individuals.end());

        measure::SimPowerMeasurement fresh(cfg.library,
                                           platform::athlonX4Platform());
        fresh.init(cfg.measurementConfig);
        SignalProbe probe;
        fresh.measureWithProbe(champion->code, &probe);
        const WaveformArtifacts art =
            writeWaveformArtifacts(dir + "/fresh", id, probe);
        EXPECT_EQ(readFile(art.csvPath), readFile(waveforms + id + ".csv"));
        ASSERT_FALSE(art.spectrumPath.empty());
        EXPECT_EQ(readFile(art.spectrumPath),
                  readFile(waveforms + id + "_spectrum.csv"));
        ++champions;
    }
    EXPECT_EQ(champions, cfg.waveformTopK);
    removeAll(dir);
}

/** Forwards to a SimPowerMeasurement but keeps the default null clone(). */
class UncloneableSimPower : public measure::Measurement
{
  public:
    explicit UncloneableSimPower(const isa::InstructionLibrary& lib)
        : _inner(lib, nullptr)
    {
    }
    void init(const xml::Element* config) override { _inner.init(config); }
    measure::MeasurementResult
    measure(const std::vector<isa::InstructionInstance>& code) override
    {
        return _inner.measure(code);
    }
    measure::MeasurementResult
    measureWithProbe(const std::vector<isa::InstructionInstance>& code,
                     SignalProbe* probe) override
    {
        return _inner.measureWithProbe(code, probe);
    }
    std::vector<std::string> valueNames() const override
    {
        return _inner.valueNames();
    }
    std::string name() const override { return "UncloneableSimPower"; }

  private:
    measure::SimPowerMeasurement _inner;
};

TEST(Determinism, UncloneableMeasurementStillSealsWaveforms)
{
    // threads=1 needs no clone: the seal captures on the main
    // measurement.
    measure::MeasurementRegistry& registry =
        measure::MeasurementRegistry::instance();
    if (!registry.contains("UncloneableSimPower"))
        registry.registerFactory(
            "UncloneableSimPower", [](const isa::InstructionLibrary& lib) {
                return std::make_unique<UncloneableSimPower>(lib);
            });
    config::RunConfig cfg = config::parseConfig(kWaveformRunConfig);
    cfg.measurementClass = "UncloneableSimPower";
    const std::string dir = makeTempDir("gest-wfsolo");
    cfg.outputDirectory = dir;
    cfg.waveformTopK = 2;
    const config::RunResult result = config::runFromConfig(cfg);

    ASSERT_EQ(result.waveformFiles.size(), 3u); // index + 2 captures
    EXPECT_EQ(result.waveformFiles[0], dir + "/waveforms/index.csv");
    EXPECT_EQ(listFiles(dir + "/waveforms").size(), 3u);
    for (const std::string& f : result.waveformFiles)
        EXPECT_TRUE(fileExists(f)) << f;
    removeAll(dir);
}

TEST(Config, NegativeWaveformCountIsFatal)
{
    EXPECT_THROW(config::parseConfig(R"(
<gest_configuration>
  <library name="arm"/>
  <output directory="out" waveforms="-1"/>
</gest_configuration>
)"),
                 FatalError);
}

TEST(Config, WaveformCountParsedFromOutputElement)
{
    const config::RunConfig cfg = config::parseConfig(R"(
<gest_configuration>
  <library name="arm"/>
  <output directory="out" waveforms="3"/>
</gest_configuration>
)");
    EXPECT_EQ(cfg.waveformTopK, 3);
    // The directory is resolved relative to the configuration's dir.
    EXPECT_EQ(cfg.outputDirectory, "./out");
}

} // namespace
} // namespace signal
} // namespace gest
