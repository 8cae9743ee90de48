/**
 * @file
 * End-to-end tests of the `gest` command-line tool: run a search from a
 * configuration file, then post-process the run directory with `stats`
 * and `fittest`, exactly as a user would.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "util/fileutil.hh"
#include "util/strutil.hh"

#ifndef GEST_CLI_PATH
#define GEST_CLI_PATH "./tools/gest"
#endif

#ifndef GEST_README_PATH
#define GEST_README_PATH "README.md"
#endif

namespace gest {
namespace {

/** Run the CLI, capture stdout+stderr, return the exit status. */
int
runCli(const std::string& args, std::string& output,
       const std::string& scratch)
{
    const std::string out_file = scratch + "/cli_output.txt";
    const std::string command = std::string(GEST_CLI_PATH) + " " + args +
                                " > '" + out_file + "' 2>&1";
    const int status = std::system(command.c_str());
    tryReadFile(out_file, output);
    return status;
}

class CliTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _dir = makeTempDir("gest-cli");
        writeFile(_dir + "/config.xml", R"(
<gest_configuration>
  <ga population_size="8" individual_size="6" mutation_rate="0.2"
      tournament_size="3" generations="3" seed="11"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a7" min_cycles="1024"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="run_out"/>
</gest_configuration>
)");
    }

    void TearDown() override { removeAll(_dir); }

    std::string _dir;
};

TEST_F(CliTest, NoArgumentsPrintsUsage)
{
    std::string output;
    EXPECT_NE(runCli("", output, _dir), 0);
    EXPECT_NE(output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, PlatformsListsPresets)
{
    std::string output;
    EXPECT_EQ(runCli("platforms", output, _dir), 0);
    EXPECT_NE(output.find("cortex-a15"), std::string::npos);
    EXPECT_NE(output.find("athlon-x4"), std::string::npos);
    EXPECT_NE(output.find("PDN instrumented"), std::string::npos);
}

TEST_F(CliTest, ClassesListsRegistries)
{
    std::string output;
    EXPECT_EQ(runCli("classes", output, _dir), 0);
    EXPECT_NE(output.find("SimPowerMeasurement"), std::string::npos);
    EXPECT_NE(output.find("SimCacheMissMeasurement"), std::string::npos);
    EXPECT_NE(output.find("TemperatureSimplicityFitness"),
              std::string::npos);
    EXPECT_NE(output.find("NativePerfMeasurement"), std::string::npos);
}

TEST_F(CliTest, RunThenStatsThenFittest)
{
    std::string output;
    ASSERT_EQ(runCli("run '" + _dir + "/config.xml'", output, _dir), 0)
        << output;
    EXPECT_NE(output.find("best individual"), std::string::npos);
    EXPECT_NE(output.find("breakdown:"), std::string::npos);

    const std::string run_dir = _dir + "/run_out";
    EXPECT_TRUE(fileExists(run_dir + "/population_0.pop"));
    EXPECT_TRUE(fileExists(run_dir + "/run_configuration.xml"));

    // stats rebuilds the library from the recorded configuration.
    ASSERT_EQ(runCli("stats '" + run_dir + "'", output, _dir), 0)
        << output;
    EXPECT_NE(output.find("best_fitness"), std::string::npos);
    EXPECT_EQ(split(trim(output), '\n').size(), 4u); // header + 3 gens

    ASSERT_EQ(runCli("fittest '" + run_dir + "'", output, _dir), 0)
        << output;
    EXPECT_NE(output.find("# id "), std::string::npos);
    // Six instructions follow the header line.
    EXPECT_EQ(split(trim(output), '\n').size(), 7u);
}

TEST_F(CliTest, StatsWithExplicitLibraryOverride)
{
    std::string output;
    ASSERT_EQ(runCli("run '" + _dir + "/config.xml'", output, _dir), 0);
    EXPECT_EQ(runCli("stats '" + _dir + "/run_out' --library arm",
                     output, _dir),
              0)
        << output;
    EXPECT_NE(output.find("best_fitness"), std::string::npos);
}

TEST_F(CliTest, StatsWorksWhenConfigReferencedExternalFiles)
{
    // Regression: the recorded configuration references the template
    // relative to the *original* directory; stats/fittest must still
    // rebuild the library from inside the run directory.
    writeFile(_dir + "/tmpl.s", "loop:\n#loop_code\nb loop\n");
    writeFile(_dir + "/config_tmpl.xml", R"(
<gest_configuration>
  <ga population_size="6" individual_size="5" tournament_size="3"
      generations="2" seed="9"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a7" min_cycles="1024"/>
  </measurement>
  <template file="tmpl.s"/>
  <output directory="run_tmpl"/>
</gest_configuration>
)");
    std::string output;
    ASSERT_EQ(runCli("run '" + _dir + "/config_tmpl.xml'", output, _dir),
              0)
        << output;
    ASSERT_EQ(runCli("stats '" + _dir + "/run_tmpl'", output, _dir), 0)
        << output;
    EXPECT_NE(output.find("best_fitness"), std::string::npos);
    ASSERT_EQ(runCli("fittest '" + _dir + "/run_tmpl'", output, _dir),
              0)
        << output;
    EXPECT_NE(output.find("# id "), std::string::npos);
}

TEST_F(CliTest, FittestOutExportsThePaperLayoutFromCheckpoints)
{
    writeFile(_dir + "/tmpl.s", "loop:\n#loop_code\nb loop\n");
    writeFile(_dir + "/config_export.xml", R"(
<gest_configuration>
  <ga population_size="4" individual_size="3" tournament_size="2"
      generations="2" seed="11"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a7" min_cycles="1024"/>
  </measurement>
  <template file="tmpl.s"/>
  <output directory="run_export"/>
</gest_configuration>
)");
    std::string output;
    ASSERT_EQ(runCli("run '" + _dir + "/config_export.xml'", output, _dir),
              0)
        << output;

    // The run leaves no <gen>_<id>_<m...>.txt: checkpoints only.
    const std::string run_dir = _dir + "/run_export";
    auto individual_files = [](const std::string& dir) {
        std::set<std::string> found;
        for (const std::string& name : listFiles(dir)) {
            if (endsWith(name, ".txt") && name != "run_template.txt")
                found.insert(name);
        }
        return found;
    };
    EXPECT_TRUE(individual_files(run_dir).empty());

    std::string plain, exported;
    ASSERT_EQ(runCli("fittest '" + run_dir + "'", plain, _dir), 0)
        << plain;
    const std::string out_dir = _dir + "/layout";
    ASSERT_EQ(runCli("fittest '" + run_dir + "' --out '" + out_dir + "'",
                     exported, _dir),
              0)
        << exported;
    EXPECT_EQ(exported, plain);

    // Population 4 x 2 checkpoints, one file each, rendered through
    // the recorded template.
    const std::set<std::string> files = individual_files(out_dir);
    EXPECT_EQ(files.size(), 8u);
    EXPECT_EQ(listFiles(out_dir).size(), 8u);
    ASSERT_EQ(files.count("0_1_0.73_0.21_0.80.txt"), 1u);
    EXPECT_EQ(readFile(out_dir + "/0_1_0.73_0.21_0.80.txt"),
              "loop:\n"
              "FMUL v1.2D, v5.2D, v0.2D\n"
              "MADD x7, x5, x7, x5\n"
              "ORR x7, x8, x7\n"
              "b loop\n");
}

TEST_F(CliTest, RunWithTraceWritesObservabilityArtifacts)
{
    std::string output;
    ASSERT_EQ(runCli("run '" + _dir + "/config.xml' --trace", output,
                     _dir),
              0)
        << output;
    EXPECT_NE(output.find("trace written to"), std::string::npos);

    const std::string run_dir = _dir + "/run_out";
    ASSERT_TRUE(fileExists(run_dir + "/trace.json"));
    EXPECT_TRUE(fileExists(run_dir + "/metrics.json"));
    EXPECT_FALSE(fileExists(run_dir + "/stats.txt"));

    const std::string trace = readFile(run_dir + "/trace.json");
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(trace.find("coordinator"), std::string::npos);

    const std::string metrics = readFile(run_dir + "/metrics.json");
    EXPECT_NE(metrics.find("\"engine.generations\": 3"),
              std::string::npos);
    EXPECT_NE(metrics.find("\"engine.evaluations\""), std::string::npos);

    // The v2 history carries the per-phase timing columns.
    const std::string history = readFile(run_dir + "/history.csv");
    EXPECT_NE(history.find("# gest-history v2"), std::string::npos);
    EXPECT_NE(history.find("evaluation_ms"), std::string::npos);
}

TEST_F(CliTest, ReportSummarizesARun)
{
    std::string output;
    ASSERT_EQ(runCli("run '" + _dir + "/config.xml' --quiet", output,
                     _dir),
              0)
        << output;
    // --quiet suppresses the inform() banner and progress lines.
    EXPECT_EQ(output.find("running GA:"), std::string::npos);
    EXPECT_EQ(output.find("gen "), std::string::npos);
    EXPECT_NE(output.find("best individual"), std::string::npos);

    ASSERT_EQ(runCli("report '" + _dir + "/run_out'", output, _dir), 0)
        << output;
    EXPECT_NE(output.find("history v2, 3 generations"),
              std::string::npos);
    EXPECT_NE(output.find("phase breakdown"), std::string::npos);
    EXPECT_NE(output.find("hit rate"), std::string::npos);
    EXPECT_NE(output.find("evaluation"), std::string::npos);
}

TEST_F(CliTest, ReportOnBadRunDirectoryFails)
{
    std::string output;
    EXPECT_NE(runCli("report '" + _dir + "'", output, _dir), 0);
    EXPECT_NE(output.find("fatal:"), std::string::npos);
    EXPECT_NE(output.find("history.csv"), std::string::npos);

    EXPECT_NE(runCli("report /nonexistent/run", output, _dir), 0);
    EXPECT_NE(output.find("does not exist"), std::string::npos);
}

TEST_F(CliTest, UnknownOptionFails)
{
    std::string output;
    EXPECT_NE(runCli("run '" + _dir + "/config.xml' --bogus", output,
                     _dir),
              0);
    EXPECT_NE(output.find("unknown option"), std::string::npos);
}

TEST_F(CliTest, RunWithMissingConfigFails)
{
    std::string output;
    EXPECT_NE(runCli("run /nonexistent/config.xml", output, _dir), 0);
    EXPECT_NE(output.find("fatal:"), std::string::npos);
}

TEST_F(CliTest, StatsOnEmptyDirectoryFails)
{
    std::string output;
    EXPECT_NE(runCli("stats '" + _dir + "'", output, _dir), 0);
    EXPECT_NE(output.find("fatal:"), std::string::npos);
}

TEST_F(CliTest, RunRecordsAnalyticsAndExplainReadsThem)
{
    std::string output;
    ASSERT_EQ(runCli("run '" + _dir + "/config.xml' --quiet", output,
                     _dir),
              0)
        << output;

    const std::string run_dir = _dir + "/run_out";
    EXPECT_TRUE(fileExists(run_dir + "/lineage.csv"));
    EXPECT_TRUE(fileExists(run_dir + "/analytics.csv"));
    EXPECT_TRUE(fileExists(run_dir + "/status.json"));

    ASSERT_EQ(runCli("explain '" + run_dir + "'", output, _dir), 0)
        << output;
    EXPECT_NE(output.find("champion: id "), std::string::npos);
    EXPECT_NE(output.find("primary descent line"), std::string::npos);
    EXPECT_NE(output.find("instruction-mix trajectory"),
              std::string::npos);
    EXPECT_NE(output.find("convergence pathologies"),
              std::string::npos);

    // The summary picks the analytics up too.
    ASSERT_EQ(runCli("report '" + run_dir + "'", output, _dir), 0)
        << output;
    EXPECT_NE(output.find("evolution analytics"), std::string::npos);
}

TEST_F(CliTest, ReportJsonIsMachineReadable)
{
    std::string output;
    ASSERT_EQ(runCli("run '" + _dir + "/config.xml' --quiet", output,
                     _dir),
              0)
        << output;
    ASSERT_EQ(runCli("report --json '" + _dir + "/run_out'", output,
                     _dir),
              0)
        << output;
    EXPECT_EQ(trim(output).front(), '{');
    EXPECT_EQ(trim(output).back(), '}');
    EXPECT_NE(output.find("\"generations\": 3"), std::string::npos);
    EXPECT_NE(output.find("\"phase_ms\""), std::string::npos);
    EXPECT_NE(output.find("\"analytics\""), std::string::npos);
    EXPECT_NE(output.find("\"mutation_children\""), std::string::npos);
}

TEST_F(CliTest, AnalyticsOffIsBitIdenticalAndSuppressesArtifacts)
{
    // Same seed, stats off (the v2 timing columns are wall-clock and
    // would differ between runs); the only variable is analytics.
    const char* config_template = R"(
<gest_configuration>
  <ga population_size="8" individual_size="6" mutation_rate="0.2"
      tournament_size="3" generations="3" seed="11"/>
  <library name="arm"/>
  <measurement class="SimPowerMeasurement">
    <config platform="cortex-a7" min_cycles="1024"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="%s" stats="false" analytics="%s"/>
</gest_configuration>
)";
    char on_cfg[1024], off_cfg[1024];
    std::snprintf(on_cfg, sizeof(on_cfg), config_template, "run_on",
                  "true");
    std::snprintf(off_cfg, sizeof(off_cfg), config_template, "run_off",
                  "false");
    writeFile(_dir + "/on.xml", on_cfg);
    writeFile(_dir + "/off.xml", off_cfg);

    std::string output;
    ASSERT_EQ(runCli("run '" + _dir + "/on.xml' --quiet", output, _dir),
              0)
        << output;
    ASSERT_EQ(runCli("run '" + _dir + "/off.xml' --quiet", output,
                     _dir),
              0)
        << output;

    // Bit-identical search with analytics on or off.
    EXPECT_EQ(readFile(_dir + "/run_on/history.csv"),
              readFile(_dir + "/run_off/history.csv"));
    EXPECT_EQ(readFile(_dir + "/run_on/population_2.pop"),
              readFile(_dir + "/run_off/population_2.pop"));

    // analytics="false" suppresses the artifacts entirely.
    EXPECT_TRUE(fileExists(_dir + "/run_on/lineage.csv"));
    EXPECT_FALSE(fileExists(_dir + "/run_off/lineage.csv"));
    EXPECT_FALSE(fileExists(_dir + "/run_off/analytics.csv"));
    EXPECT_FALSE(fileExists(_dir + "/run_off/status.json"));

    // explain on the analytics-less run fails with an actionable hint.
    EXPECT_NE(runCli("explain '" + _dir + "/run_off'", output, _dir),
              0);
    EXPECT_NE(output.find("analytics"), std::string::npos);
}

TEST_F(CliTest, WaveformsSealedAndProbeReMeasures)
{
    // A PDN-instrumented search with the flight recorder and
    // attribution on: the run seals waveform and attribution CSVs (and
    // no JSON twins), and `gest probe` re-measures the champion with
    // full capture.
    writeFile(_dir + "/didt.xml", R"(
<gest_configuration>
  <ga population_size="8" individual_size="6" mutation_rate="0.2"
      tournament_size="3" generations="3" seed="6"/>
  <library name="x86"/>
  <measurement class="SimVoltageNoiseMeasurement">
    <config platform="athlon-x4" min_cycles="1024"/>
  </measurement>
  <fitness class="DefaultFitness"/>
  <output directory="didt_out" waveforms="2" attribution="true"
          stats="false"/>
</gest_configuration>
)");
    std::string output;
    ASSERT_EQ(runCli("run '" + _dir + "/didt.xml' --quiet", output,
                     _dir),
              0)
        << output;
    EXPECT_NE(output.find("waveform"), std::string::npos);

    const std::string run_dir = _dir + "/didt_out";
    ASSERT_TRUE(fileExists(run_dir + "/waveforms/index.csv"));
    const std::string index = readFile(run_dir + "/waveforms/index.csv");
    EXPECT_TRUE(startsWith(index, "# gest-waveform-index v2\n"
                                  "rank,id,generation,fitness,csv,"
                                  "spectrum\n"))
        << index;
    const auto json_files = [](const std::string& dir) {
        std::size_t n = 0;
        for (const std::string& name : listFiles(dir))
            n += endsWith(name, ".json");
        return n;
    };
    EXPECT_EQ(json_files(run_dir + "/waveforms"), 0u);
    ASSERT_FALSE(listFiles(run_dir + "/attribution").empty());
    EXPECT_EQ(json_files(run_dir + "/attribution"), 0u);

    ASSERT_EQ(runCli("probe '" + _dir + "/didt.xml' '" + run_dir + "'",
                     output, _dir),
              0)
        << output;
    EXPECT_NE(output.find("signals:"), std::string::npos);
    EXPECT_NE(output.find("droop depth"), std::string::npos);
    EXPECT_NE(output.find("resonance"), std::string::npos);
    EXPECT_TRUE(dirExists(run_dir + "/probe"));
    EXPECT_EQ(listFiles(run_dir + "/probe").size(), 2u); // csv + spectrum

    // probe also accepts a population file directly, with --out.
    ASSERT_EQ(runCli("probe '" + _dir + "/didt.xml' '" + run_dir +
                         "/population_2.pop' --out '" + _dir +
                         "/probe_out'",
                     output, _dir),
              0)
        << output;
    EXPECT_TRUE(dirExists(_dir + "/probe_out"));
}

TEST_F(CliTest, ProbeOnBadTargetFails)
{
    std::string output;
    EXPECT_NE(runCli("probe '" + _dir + "/config.xml' /nonexistent",
                     output, _dir),
              0);
    EXPECT_NE(output.find("fatal:"), std::string::npos);
}

TEST_F(CliTest, ExplainOnBadRunDirectoryFails)
{
    std::string output;
    EXPECT_NE(runCli("explain '" + _dir + "'", output, _dir), 0);
    EXPECT_NE(output.find("fatal:"), std::string::npos);
    EXPECT_NE(output.find("lineage.csv"), std::string::npos);

    EXPECT_NE(runCli("explain /nonexistent/run", output, _dir), 0);
    EXPECT_NE(output.find("does not exist"), std::string::npos);
}

TEST_F(CliTest, VerifyPassesOnSealedRunAndCatchesTampering)
{
    std::string output;
    ASSERT_EQ(runCli("run '" + _dir + "/config.xml'", output, _dir), 0)
        << output;
    const std::string run_dir = _dir + "/run_out";
    ASSERT_TRUE(fileExists(run_dir + "/manifest.json"));
    ASSERT_TRUE(fileExists(run_dir + "/digests.csv"));

    ASSERT_EQ(runCli("verify '" + run_dir + "'", output, _dir), 0)
        << output;
    EXPECT_NE(output.find("OK: run verified"), std::string::npos);
    EXPECT_NE(output.find("reproduced bit-identically"),
              std::string::npos);

    ASSERT_EQ(runCli("verify '" + run_dir + "' --quick", output, _dir),
              0)
        << output;
    EXPECT_NE(output.find("replay skipped"), std::string::npos);

    // One flipped byte in any sealed artifact must fail verification
    // naming that artifact.
    std::string history = readFile(run_dir + "/history.csv");
    history[history.size() / 2] ^= 0x01;
    writeFile(run_dir + "/history.csv", history);
    EXPECT_NE(runCli("verify '" + run_dir + "'", output, _dir), 0);
    EXPECT_NE(output.find("history.csv"), std::string::npos);
    EXPECT_NE(output.find("checksum mismatch"), std::string::npos);
}

TEST_F(CliTest, VerifyOnUnsealedDirectoryFails)
{
    std::string output;
    EXPECT_NE(runCli("verify '" + _dir + "'", output, _dir), 0);
    EXPECT_NE(output.find("manifest.json"), std::string::npos);
}

TEST_F(CliTest, CompareSameSeedRunsReportsZeroDeltas)
{
    std::string output;
    ASSERT_EQ(runCli("run '" + _dir + "/config.xml'", output, _dir), 0)
        << output;
    writeFile(_dir + "/config_b.xml",
              replaceAll(readFile(_dir + "/config.xml"), "run_out",
                         "run_out_b"));
    ASSERT_EQ(runCli("run '" + _dir + "/config_b.xml'", output, _dir),
              0)
        << output;

    ASSERT_EQ(runCli("compare '" + _dir + "/run_out' '" + _dir +
                         "/run_out_b'",
                     output, _dir),
              0)
        << output;
    EXPECT_NE(output.find("significant deltas: 0"), std::string::npos);
    EXPECT_NE(output.find("deterministic results identical"),
              std::string::npos);

    ASSERT_EQ(runCli("compare '" + _dir + "/run_out' '" + _dir +
                         "/run_out_b' --json",
                     output, _dir),
              0)
        << output;
    EXPECT_NE(output.find("\"significant_deltas\": 0"),
              std::string::npos);
    EXPECT_NE(output.find("\"gest_compare_version\": 1"),
              std::string::npos);
}

TEST_F(CliTest, ProvenanceOffSuppressesManifestAndDigests)
{
    writeFile(_dir + "/noprov.xml",
              replaceAll(readFile(_dir + "/config.xml"),
                         "<output directory=\"run_out\"/>",
                         "<output directory=\"run_noprov\" "
                         "provenance=\"false\"/>"));
    std::string output;
    ASSERT_EQ(runCli("run '" + _dir + "/noprov.xml'", output, _dir), 0)
        << output;
    EXPECT_FALSE(fileExists(_dir + "/run_noprov/manifest.json"));
    EXPECT_FALSE(fileExists(_dir + "/run_noprov/digests.csv"));
    EXPECT_TRUE(fileExists(_dir + "/run_noprov/history.csv"));
}

TEST_F(CliTest, TopOnRunDirWithoutHistoryShowsWaitingState)
{
    // A run directory that exists but has not evaluated its first
    // generation yet (no history.csv) is a normal condition for
    // `gest top`, not an error.
    const std::string run_dir = _dir + "/empty_run";
    ensureDir(run_dir);
    std::string output;
    EXPECT_EQ(runCli("top '" + run_dir + "' --once", output, _dir), 0)
        << output;
    EXPECT_NE(output.find("waiting for first generation"),
              std::string::npos);

    // A directory that does not exist at all is still an error.
    EXPECT_NE(runCli("top '" + _dir + "/nonexistent' --once", output,
                     _dir),
              0);
}

/** The `gest <name>` subcommands a usage or README text mentions. */
std::set<std::string>
subcommandsIn(const std::string& text, const std::string& prefix)
{
    std::set<std::string> names;
    for (const std::string& line : split(text, '\n')) {
        const std::size_t at = line.find(prefix);
        if (at == std::string::npos)
            continue;
        std::size_t end = at + prefix.size();
        while (end < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[end])) ||
                line[end] == '-'))
            ++end;
        const std::string name =
            line.substr(at + prefix.size(), end - at - prefix.size());
        if (!name.empty())
            names.insert(name);
    }
    return names;
}

TEST_F(CliTest, UsageAndReadmeAgreeOnTheCommandSet)
{
    // Every subcommand must appear in usage() with a description...
    std::string usage;
    EXPECT_NE(runCli("", usage, _dir), 0);
    const std::set<std::string> from_usage =
        subcommandsIn(usage, "  gest ");
    ASSERT_FALSE(from_usage.empty());
    for (const char* required :
         {"run", "probe", "attribute", "report", "explain", "stats",
          "fittest", "top", "runs", "verify", "compare", "platforms",
          "classes"})
        EXPECT_EQ(from_usage.count(required), 1u) << required;

    // ...and the README's command table must list exactly the same set
    // (rows of the form "| `gest <name> ...` | description |").
    const std::string readme = readFile(GEST_README_PATH);
    const std::set<std::string> from_readme =
        subcommandsIn(readme, "| `gest ");
    EXPECT_EQ(from_usage, from_readme);
}

TEST_F(CliTest, AttributeExplainsTheChampion)
{
    std::string output;
    ASSERT_EQ(runCli("run '" + _dir + "/config.xml' --quiet", output,
                     _dir),
              0)
        << output;
    const std::string run_dir = _dir + "/run_out";

    ASSERT_EQ(runCli("attribute '" + _dir + "/config.xml' '" + run_dir +
                         "' --top 3",
                     output, _dir),
              0)
        << output;
    EXPECT_NE(output.find("top load-bearing genes:"), std::string::npos);
    EXPECT_NE(output.find("class attribution:"), std::string::npos);
    EXPECT_NE(output.find("whole-champion ablation"), std::string::npos);

    // The default lands beside, never inside, the sealed attribution/
    // directory, so attributing a sealed run keeps it verifiable.
    const std::string csv_dir = run_dir + "/attribute";
    ASSERT_TRUE(dirExists(csv_dir)) << output;
    bool found_csv = false;
    for (const std::string& line : split(output, '\n')) {
        const std::size_t at = line.find(csv_dir + "/individual_");
        if (at != std::string::npos && endsWith(line, ".csv")) {
            const std::string path = line.substr(at);
            EXPECT_TRUE(startsWith(readFile(path),
                                   "# gest-attribution v1\n"));
            found_csv = true;
        }
    }
    EXPECT_TRUE(found_csv) << output;
    EXPECT_EQ(listFiles(csv_dir).size(), 1u);
    EXPECT_EQ(runCli("verify '" + run_dir + "' --quick", output, _dir),
              0)
        << output;

    // --out redirects the artifacts away from the run directory.
    ASSERT_EQ(runCli("attribute '" + _dir + "/config.xml' '" + run_dir +
                         "' --out '" + _dir + "/attr_out'",
                     output, _dir),
              0)
        << output;
    EXPECT_TRUE(dirExists(_dir + "/attr_out"));
}

} // namespace
} // namespace gest
