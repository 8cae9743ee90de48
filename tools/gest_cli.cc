/**
 * @file
 * The `gest` command-line tool: the C++ counterpart of invoking the
 * original Python framework.
 *
 *   gest run <config.xml>      run a GA search from a configuration
 *   gest probe <config.xml> <run_dir|population>
 *                              re-measure an individual with full
 *                              signal capture and seal waveforms
 *   gest report <run_dir>      fitness/phase/cache summary of a run
 *   gest explain <run_dir>     champion ancestry + search dynamics
 *   gest verify <run_dir>      replay a sealed run against its manifest
 *   gest compare <a> <b> [...] cross-run result + performance deltas
 *   gest stats <run_dir>       per-generation statistics of a saved run
 *   gest fittest <run_dir>     print the fittest individual's source;
 *                              --out <dir> also renders every
 *                              individual in §III.D's file layout
 *   gest runs <workspace>      index every run in a workspace and
 *                              screen cross-run regressions
 *   gest platforms             list the bundled platform presets
 *   gest classes               list measurement and fitness classes
 *
 * `stats` and `fittest` rebuild the instruction library from the
 * run_configuration.xml recorded in the run directory, so a run is
 * self-describing; `--library arm|x86` overrides that. `report` reads
 * only history.csv (plus analytics.csv when recorded), so it also
 * summarizes in-flight runs; `--json` makes it machine-readable.
 * `explain` reads lineage.csv + analytics.csv and reconstructs the
 * champion's ancestry back to generation 0.
 *
 * Global flags: --quiet / --verbose (and the GEST_LOG environment
 * variable, e.g. GEST_LOG=debug,timestamps) control log output.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <chrono>
#include <thread>

#include "attribution/attribution.hh"
#include "attribution/attribution_io.hh"
#include "config/config.hh"
#include "fitness/fitness.hh"
#include "isa/standard_libs.hh"
#include "measure/measurement.hh"
#include "native/native_measurement.hh"
#include "output/report.hh"
#include "output/stats.hh"
#include "output/top.hh"
#include "platform/platform.hh"
#include "registry/registry.hh"
#include "provenance/compare.hh"
#include "provenance/verify.hh"
#include "signal/analysis.hh"
#include "signal/signal_probe.hh"
#include "signal/waveform_io.hh"
#include "util/fileutil.hh"
#include "util/strutil.hh"

namespace {

using namespace gest;

int
usage()
{
    // One line per subcommand, each with a description:
    // tests/test_cli.cc asserts this list and the README's command
    // table name exactly the same set of subcommands.
    std::fprintf(
        stderr,
        "usage:\n"
        "  gest run <config.xml>        run a GA search\n"
        "  gest probe <config.xml> <run_dir|population>\n"
        "                               re-measure an individual with "
        "full signal capture\n"
        "  gest attribute <config.xml> <run_dir|population>\n"
        "                               ablate the champion gene by "
        "gene and attribute its fitness\n"
        "  gest report <run_dir>        summarize a run (works while "
        "in flight)\n"
        "  gest explain <run_dir>       champion ancestry, mix "
        "trajectory, pathologies\n"
        "  gest stats <run_dir>         per-generation statistics\n"
        "  gest fittest <run_dir>       print the fittest individual\n"
        "  gest top <url|run_dir>       live dashboard of a run "
        "(telemetry server or files)\n"
        "  gest runs <workspace>        index every run in a "
        "workspace; screen regressions\n"
        "  gest verify <run_dir>        replay a sealed run against "
        "its manifest\n"
        "  gest compare <baseline> <candidate> [...]\n"
        "                               cross-run result + performance "
        "deltas\n"
        "  gest platforms               list platform presets\n"
        "  gest classes                 list measurement/fitness "
        "classes\n"
        "global options: --quiet | --verbose (or GEST_LOG=quiet|debug"
        "[,timestamps])\n"
        "options for run: --threads N (override evaluation workers)\n"
        "                 --trace [file.json] (write a Chrome trace; "
        "default <output dir>/trace.json)\n"
        "                 --steady-state on|off (periodic-trace fast "
        "path; default on, bit-identical)\n"
        "                 --listen host:port (serve live telemetry; "
        "port 0 = ephemeral)\n"
        "options for top: --interval SECONDS (refresh period, default "
        "1) | --once (single frame)\n"
        "                 --fleet (target is a workspace of runs; "
        "multi-run view)\n"
        "options for runs: --filter k=v (narrow the view; repeatable; "
        "prefix match)\n"
        "                  --baseline <run> (screen the baseline's "
        "config-hash cohort; exit 1 on regression)\n"
        "                  --json (machine-readable output)\n"
        "options for report: --json (machine-readable output)\n"
        "options for verify: --quick (manifest + checksums only, no "
        "replay)\n"
        "options for compare: --json (machine-readable output)\n"
        "options for probe: --out <dir> (artifact directory; default "
        "<target>/probe)\n"
        "options for attribute: --out <dir> (artifact directory; "
        "default <target>/attribute — never the sealed "
        "attribution/)\n"
        "                       --top K (load-bearing genes listed; "
        "default 5)\n"
        "options for fittest: --out <dir> (also write every individual "
        "as <gen>_<id>_<m1>_...txt)\n"
        "options for stats/fittest: --library arm|x86|cache-stress\n");
    return 2;
}

isa::InstructionLibrary
libraryForRun(const std::string& run_dir, const char* override_name)
{
    if (override_name) {
        const std::string name = override_name;
        if (name == "arm")
            return isa::armLikeLibrary();
        if (name == "armv7")
            return isa::armV7LikeLibrary();
        if (name == "x86")
            return isa::x86LikeLibrary();
        if (name == "cache-stress")
            return isa::armCacheStressLibrary();
        fatal("unknown --library '", name, "'");
    }
    const std::string recorded = run_dir + "/run_configuration.xml";
    std::string text;
    if (tryReadFile(recorded, text)) {
        // Only the instruction library is needed; the recorded
        // configuration's relative file references (template, external
        // measurement configs) do not resolve from the run directory.
        config::ParseOptions options;
        options.loadReferencedFiles = false;
        config::RunConfig cfg =
            config::parseConfig(text, run_dir, options);
        return std::move(cfg.library);
    }
    warn("no run_configuration.xml in ", run_dir,
         "; assuming the bundled ARM library");
    return isa::armLikeLibrary();
}

int
cmdRun(const std::string& path, const char* threads_override,
       bool want_trace, const char* trace_file,
       const char* steady_override, const char* listen_override)
{
    config::RunConfig cfg = config::loadConfig(path);
    if (listen_override)
        cfg.listenAddress = listen_override;
    if (threads_override) {
        cfg.ga.threads = static_cast<int>(
            parseInt(threads_override, "--threads"));
        cfg.ga.validate();
    }
    if (steady_override) {
        const std::string mode = steady_override;
        if (mode == "on")
            cfg.steadyStateOverride = true;
        else if (mode == "off")
            cfg.steadyStateOverride = false;
        else
            fatal("--steady-state must be 'on' or 'off', got '", mode,
                  "'");
    }
    if (trace_file) {
        cfg.traceFile = trace_file;
    } else if (want_trace && cfg.traceFile.empty()) {
        if (cfg.outputDirectory.empty())
            fatal("--trace without a file name needs an <output "
                  "directory=\"...\"> to put trace.json in; pass "
                  "--trace <file.json> instead");
        cfg.traceFile = cfg.outputDirectory + "/trace.json";
    }
    inform("running GA: population ", cfg.ga.populationSize,
           ", individual size ", cfg.ga.individualSize, ", ",
           cfg.ga.generations, " generations, measurement ",
           cfg.measurementClass, ", fitness ", cfg.fitnessClass,
           ", threads ", cfg.ga.threads);
    const config::RunResult result = config::runFromConfig(cfg);
    if (!quiet()) {
        for (const core::GenerationRecord& rec : result.history) {
            if (rec.generation % 10 == 0 ||
                rec.generation + 1 ==
                    static_cast<int>(result.history.size()))
                std::printf("gen %3d: best %.6f avg %.6f "
                            "diversity %.3f\n",
                            rec.generation, rec.bestFitness,
                            rec.averageFitness, rec.diversity);
        }
    }

    std::printf("best individual: id %llu, fitness %.6f\n",
                static_cast<unsigned long long>(result.best.id),
                result.best.fitness);
    for (const std::string& line :
         core::renderLines(cfg.library, result.best))
        std::printf("%s\n", line.c_str());
    std::printf("breakdown: %s; unique instructions: %zu; "
                "measurements performed: %llu\n",
                core::breakdownToString(
                    core::classBreakdown(cfg.library, result.best))
                    .c_str(),
                core::uniqueInstructionCount(result.best),
                static_cast<unsigned long long>(result.evaluations));
    if (cfg.ga.fitnessCacheSize > 0)
        std::printf("fitness cache: %llu hits, %llu misses (%.1f%% hit "
                    "rate)\n",
                    static_cast<unsigned long long>(result.cacheHits),
                    static_cast<unsigned long long>(result.cacheMisses),
                    result.cacheHits + result.cacheMisses > 0
                        ? 100.0 * static_cast<double>(result.cacheHits) /
                              static_cast<double>(result.cacheHits +
                                                  result.cacheMisses)
                        : 0.0);
    if (!result.traceFile.empty())
        std::printf("trace written to %s (open in chrome://tracing or "
                    "https://ui.perfetto.dev)\n",
                    result.traceFile.c_str());
    if (!result.listenAddress.empty())
        std::printf("telemetry served on http://%s (gest top %s)\n",
                    result.listenAddress.c_str(),
                    result.listenAddress.c_str());
    if (!result.waveformFiles.empty())
        std::printf("waveform captures sealed in %s/waveforms (%zu "
                    "files; validate with tools/check_waveforms.py)\n",
                    cfg.outputDirectory.c_str(),
                    result.waveformFiles.size());
    if (!cfg.outputDirectory.empty())
        std::printf("artifacts recorded in %s\n",
                    cfg.outputDirectory.c_str());
    return 0;
}

/**
 * Resolve a probe/attribute target: a run directory yields its
 * all-time champion, a saved population file its best individual
 * (falling back to the first when none carries a fitness).
 */
core::Individual
resolveTargetIndividual(const config::RunConfig& cfg,
                        const std::string& target, const char* what,
                        int* generation)
{
    if (dirExists(target))
        return output::fittestInRun(cfg.library, target, generation);
    if (fileExists(target)) {
        const core::Population pop =
            core::loadPopulation(cfg.library, target);
        if (pop.individuals.empty())
            fatal("population file ", target, " holds no individuals");
        core::Individual ind = pop.individuals.front();
        for (const core::Individual& candidate : pop.individuals) {
            if (candidate.evaluated &&
                (!ind.evaluated || candidate.fitness > ind.fitness))
                ind = candidate;
        }
        return ind;
    }
    fatal(what, " target ", target,
          " is neither a run directory nor a population file");
}

int
cmdProbe(const std::string& config_path, const std::string& target,
         const char* out_override)
{
    config::RunConfig cfg = config::loadConfig(config_path);
    native::registerNativeMeasurements();
    const config::Evaluator built = config::buildEvaluator(cfg);
    measure::Measurement& measurement = *built.measurement;
    const fitness::Fitness& fit = *built.fitness;

    int generation = -1;
    core::Individual ind =
        resolveTargetIndividual(cfg, target, "probe", &generation);

    inform("probing individual ", ind.id, " (", ind.code.size(),
           " instructions) with measurement ", cfg.measurementClass);

    signal::SignalProbe probe;
    ind.measurements =
        measurement.measureWithProbe(ind.code, &probe).values;
    ind.evaluated = true;
    ind.fitness = fit.getFitness(ind, cfg.library);

    const std::string out_dir =
        out_override ? std::string(out_override) : target + "/probe";
    const signal::WaveformArtifacts artifacts =
        signal::writeWaveformArtifacts(
            out_dir, "individual_" + std::to_string(ind.id), probe);

    std::printf("# id %llu%s, fitness %.6f (%s)\n",
                static_cast<unsigned long long>(ind.id),
                generation >= 0
                    ? (", generation " + std::to_string(generation))
                          .c_str()
                    : "",
                ind.fitness, fit.name().c_str());
    const std::vector<std::string> names = measurement.valueNames();
    for (std::size_t i = 0; i < ind.measurements.size(); ++i)
        std::printf("%-24s %.9g\n",
                    i < names.size() ? names[i].c_str() : "value",
                    ind.measurements[i]);
    std::printf("%s", signal::formatProbeSummary(
                          signal::summarizeProbe(probe), probe)
                          .c_str());
    std::printf("waveforms: %s\n", artifacts.csvPath.c_str());
    if (!artifacts.spectrumPath.empty())
        std::printf("           %s\n", artifacts.spectrumPath.c_str());
    return 0;
}

int
cmdAttribute(const std::string& config_path, const std::string& target,
             const char* out_override, const char* top_arg)
{
    config::RunConfig cfg = config::loadConfig(config_path);
    native::registerNativeMeasurements();
    const config::Evaluator built = config::buildEvaluator(cfg);
    measure::Measurement& measurement = *built.measurement;
    const fitness::Fitness& fit = *built.fitness;

    int generation = -1;
    core::Individual ind =
        resolveTargetIndividual(cfg, target, "attribute", &generation);

    attribution::AttributionOptions options;
    if (top_arg)
        options.topK = static_cast<int>(parseInt(top_arg, "--top"));

    inform("attributing individual ", ind.id, " (", ind.code.size(),
           " genes) with measurement ", cfg.measurementClass);

    attribution::AttributionResult result =
        attribution::computeAttribution(cfg.library, measurement,
                                        fit, ind, options);
    result.generation = generation;

    // Default beside, never inside, the sealed attribution/ directory:
    // overwriting a sealed artifact would fail a later `gest verify`.
    const std::string out_dir =
        out_override ? std::string(out_override)
                     : target + "/attribute";
    const std::string artifact =
        attribution::writeAttributionArtifacts(
            out_dir, "individual_" + std::to_string(ind.id), result);

    std::printf("# id %llu%s, fitness %.6f (%s, %s)\n",
                static_cast<unsigned long long>(result.individualId),
                generation >= 0
                    ? (", generation " + std::to_string(generation))
                          .c_str()
                    : "",
                result.baselineFitness, cfg.measurementClass.c_str(),
                fit.name().c_str());
    std::printf("filler: %s (%s); %llu evaluations for %zu genes\n",
                result.fillerInstruction.c_str(),
                result.fillerIsNop ? "nop" : "same-class",
                static_cast<unsigned long long>(result.evaluationsUsed),
                result.genes.size());
    std::printf("top load-bearing genes:\n");
    for (std::size_t rank = 0; rank < result.topGenes.size(); ++rank) {
        const attribution::GeneAttribution& g =
            result.genes[result.topGenes[rank]];
        std::printf("  %zu. gene %-3zu %-10s %-20s delta %+.6f%s\n",
                    rank + 1, g.index, g.instruction.c_str(),
                    g.operands.c_str(), g.deltaFitness,
                    result.sumDelta != 0.0
                        ? (" (" +
                           std::to_string(static_cast<int>(
                               100.0 * g.deltaFitness /
                                   result.sumDelta +
                               0.5)) +
                           "% of sum)")
                              .c_str()
                        : "");
    }
    std::printf("class attribution:\n");
    for (const attribution::ClassAttribution& c : result.classes)
        std::printf("  %-12s %3d genes   delta %+.6f\n",
                    isa::toString(c.cls), c.genes, c.deltaSum);
    std::printf("sum of per-gene deltas %.6f; whole-champion ablation "
                "delta %.6f\n",
                result.sumDelta, result.wholeAblationDelta);
    std::printf("artifact: %s\n", artifact.c_str());
    return 0;
}

int
cmdReport(const std::string& run_dir, bool json)
{
    const output::RunReport report = output::analyzeRun(run_dir);
    std::printf("%s", (json ? output::formatReportJson(report)
                            : output::formatReport(report))
                          .c_str());
    return 0;
}

int
cmdExplain(const std::string& run_dir)
{
    std::printf("%s",
                output::formatExplain(output::analyzeExplain(run_dir))
                    .c_str());
    return 0;
}

int
cmdStats(const std::string& run_dir, const char* library_override)
{
    const isa::InstructionLibrary lib =
        libraryForRun(run_dir, library_override);
    std::printf("%s", output::formatSummaryTable(
                          output::summarizeRun(lib, run_dir))
                          .c_str());
    return 0;
}

int
cmdFittest(const std::string& run_dir, const char* library_override,
           const char* out_dir)
{
    const isa::InstructionLibrary lib =
        libraryForRun(run_dir, library_override);
    int generation = 0;
    const core::Individual best =
        output::fittestInRun(lib, run_dir, &generation);
    std::printf("# id %llu, generation %d, fitness %.6f\n",
                static_cast<unsigned long long>(best.id), generation,
                best.fitness);
    for (const std::string& line : core::renderLines(lib, best))
        std::printf("%s\n", line.c_str());
    if (out_dir)
        output::exportIndividuals(lib, run_dir, out_dir);
    return 0;
}

int
cmdTop(const std::string& target, double interval_s, bool once)
{
    // A target with no local directory behind it is treated as a
    // telemetry URL ("host:port" or "http://host:port").
    const bool is_url =
        !dirExists(target) &&
        (startsWith(target, "http://") ||
         target.find(':') != std::string::npos);

    bool had_success = false;
    for (;;) {
        output::TopSnapshot snapshot;
        const bool ok = is_url ? output::fetchTopSnapshot(target, snapshot)
                               : output::loadTopSnapshot(target, snapshot);
        if (!ok) {
            if (had_success && is_url) {
                // The server went away mid-watch: the run finished and
                // tore it down, which is a normal ending.
                std::printf("telemetry source gone (%s); run finished?\n",
                            snapshot.error.c_str());
                return 0;
            }
            std::fprintf(stderr, "gest top: %s\n",
                         snapshot.error.c_str());
            return 1;
        }
        had_success = true;

        const std::string frame = output::renderTop(snapshot);
        if (once) {
            std::printf("%s", frame.c_str());
            return 0;
        }
        // Home + clear-to-end keeps the frame flicker-free on any VT100
        // descendant without a curses dependency.
        std::printf("\033[H\033[J%s(refresh %.1fs — ctrl-c to quit)\n",
                    frame.c_str(), interval_s);
        std::fflush(stdout);
        if (snapshot.state == "completed") {
            std::printf("run completed.\n");
            return 0;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(
            static_cast<long>(interval_s * 1000.0)));
    }
}

/**
 * `gest top --fleet <workspace>`: one compact row per run in the
 * workspace. Running runs that serve telemetry are refreshed live over
 * HTTP; everything else reads from the registry scan (files). The view
 * exits once no run is left running.
 */
int
cmdTopFleet(const std::string& workspace, double interval_s, bool once)
{
    for (;;) {
        const std::vector<registry::RunEntry> entries =
            registry::scanWorkspace(workspace);

        std::string frame = "gest top — fleet " + workspace + "\n";
        char line[512];
        std::snprintf(line, sizeof(line),
                      "%-24s %-10s %-11s %12s %7s  %s\n", "run", "state",
                      "progress", "best", "alerts", "source");
        frame += line;

        bool any_running = false;
        unsigned long long total_alerts = 0;
        std::vector<std::string> alert_lines;
        for (const registry::RunEntry& entry : entries) {
            std::string state = entry.state;
            int done = entry.generationsCompleted;
            double best = entry.bestFitness;
            unsigned long long alerts =
                static_cast<unsigned long long>(entry.alerts);
            std::string source = "files";
            if (entry.state == "running" && !entry.listen.empty()) {
                output::TopSnapshot snap;
                if (output::fetchTopSnapshot(entry.listen, snap)) {
                    state = snap.state;
                    done = snap.generation + 1;
                    best = snap.bestFitness;
                    if (snap.alertsRaised >= 0)
                        alerts = static_cast<unsigned long long>(
                            snap.alertsRaised);
                    for (const std::string& alert : snap.alertLines)
                        alert_lines.push_back(entry.name + ": " + alert);
                    source = "live " + entry.listen;
                }
            }
            if (state == "running")
                any_running = true;
            total_alerts += alerts;

            char progress[32];
            if (entry.generations > 0)
                std::snprintf(progress, sizeof(progress), "%d/%d", done,
                              entry.generations);
            else
                std::snprintf(progress, sizeof(progress), "%d/?", done);
            std::snprintf(line, sizeof(line),
                          "%-24s %-10s %-11s %12.6f %7llu  %s\n",
                          entry.name.c_str(), state.c_str(), progress,
                          best, alerts, source.c_str());
            frame += line;
        }
        std::snprintf(line, sizeof(line),
                      "%zu run(s), %s, %llu alert(s)\n", entries.size(),
                      any_running ? "fleet active" : "fleet idle",
                      total_alerts);
        frame += line;
        if (alert_lines.size() > 5)
            alert_lines.erase(alert_lines.begin(),
                              alert_lines.end() - 5);
        for (const std::string& alert : alert_lines)
            frame += "  " + alert + "\n";

        if (once) {
            std::printf("%s", frame.c_str());
            return 0;
        }
        std::printf("\033[H\033[J%s(refresh %.1fs — ctrl-c to quit)\n",
                    frame.c_str(), interval_s);
        std::fflush(stdout);
        if (!any_running) {
            std::printf("fleet idle; all runs finished.\n");
            return 0;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(
            static_cast<long>(interval_s * 1000.0)));
    }
}

int
cmdRuns(const std::string& workspace,
        const std::vector<std::string>& filters, bool json,
        const char* baseline)
{
    const std::vector<registry::RunEntry> all =
        registry::scanWorkspace(workspace);
    const std::string csv_path =
        registry::writeRegistry(workspace, all);
    inform("registry written to ", csv_path);

    // Filters narrow the printed view only; the sealed registry always
    // indexes the whole workspace.
    std::vector<registry::RunEntry> view;
    for (const registry::RunEntry& entry : all) {
        bool keep = true;
        for (const std::string& filter : filters) {
            const std::size_t eq = filter.find('=');
            if (eq == std::string::npos || eq == 0)
                fatal("--filter needs key=value, got '", filter, "'");
            if (!registry::matchesFilter(entry, filter.substr(0, eq),
                                         filter.substr(eq + 1))) {
                keep = false;
                break;
            }
        }
        if (keep)
            view.push_back(entry);
    }

    if (baseline) {
        const std::vector<registry::BaselineComparison> rows =
            registry::screenBaseline(workspace, baseline, all);
        if (json)
            std::printf("%s",
                        registry::formatBaselineJson(rows).c_str());
        else
            std::printf("%s%s",
                        registry::formatRunsTable(view).c_str(),
                        registry::formatBaselineTable(rows).c_str());
        for (const registry::BaselineComparison& row : rows)
            if (row.fitnessRegression)
                return 1;
        return 0;
    }
    std::printf("%s",
                json ? registry::formatRegistryJson(workspace, view)
                           .c_str()
                     : registry::formatRunsTable(view).c_str());
    return 0;
}

int
cmdVerify(const std::string& run_dir, bool quick)
{
    provenance::VerifyOptions options;
    options.quick = quick;
    const provenance::VerifyResult result =
        provenance::verifyRun(run_dir, options);
    std::printf("%s", provenance::formatVerify(run_dir, result).c_str());
    return result.ok ? 0 : 1;
}

int
cmdCompare(const std::vector<std::string>& dirs, bool json)
{
    std::vector<provenance::RunComparison> comparisons;
    for (std::size_t i = 1; i < dirs.size(); ++i)
        comparisons.push_back(provenance::compareRuns(dirs[0], dirs[i]));
    if (json) {
        std::printf("%s",
                    provenance::formatComparisonsJson(comparisons).c_str());
    } else {
        for (const provenance::RunComparison& cmp : comparisons)
            std::printf("%s", provenance::formatComparison(cmp).c_str());
    }
    return 0;
}

int
cmdPlatforms()
{
    for (const std::string& name : platform::Platform::presetNames()) {
        const auto plat = platform::Platform::byName(name);
        std::printf("%-12s %d cores @ %.2f GHz, %s, %s\n", name.c_str(),
                    plat->chip().numCores, plat->cpu().freqGHz,
                    plat->cpu().outOfOrder ? "out-of-order" : "in-order",
                    plat->pdnModel() ? "PDN instrumented"
                                     : "no PDN instrumentation");
    }
    return 0;
}

int
cmdClasses()
{
    config::registerBuiltins();
    native::registerNativeMeasurements();
    std::printf("measurement classes:\n");
    for (const std::string& name :
         measure::MeasurementRegistry::instance().names())
        std::printf("  %s\n", name.c_str());
    std::printf("fitness classes:\n");
    for (const std::string& name :
         fitness::FitnessRegistry::instance().names())
        std::printf("  %s\n", name.c_str());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
try {
    configureLoggingFromEnv();
    if (argc < 2)
        return usage();
    const std::string command = argv[1];

    // Separate flags from positional operands; flags may appear
    // anywhere after the command. --trace takes an optional value: the
    // next argument is consumed only when it names a .json file.
    std::vector<std::string> positional;
    const char* library_override = nullptr;
    const char* threads_override = nullptr;
    const char* out_override = nullptr;
    const char* trace_file = nullptr;
    const char* steady_override = nullptr;
    const char* listen_override = nullptr;
    const char* interval_arg = nullptr;
    const char* top_arg = nullptr;
    const char* baseline_arg = nullptr;
    std::vector<std::string> filters;
    bool want_trace = false;
    bool want_json = false;
    bool want_once = false;
    bool want_quick = false;
    bool want_fleet = false;
    for (int i = 2; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strcmp(arg, "--quiet") == 0) {
            setLogLevel(LogLevel::Quiet);
        } else if (std::strcmp(arg, "--verbose") == 0) {
            setLogLevel(LogLevel::Debug);
        } else if (std::strcmp(arg, "--library") == 0) {
            if (i + 1 >= argc)
                fatal("--library requires a value");
            library_override = argv[++i];
        } else if (std::strcmp(arg, "--threads") == 0) {
            if (i + 1 >= argc)
                fatal("--threads requires a value");
            threads_override = argv[++i];
        } else if (std::strcmp(arg, "--out") == 0) {
            if (i + 1 >= argc)
                fatal("--out requires a value");
            out_override = argv[++i];
        } else if (std::strcmp(arg, "--trace") == 0) {
            want_trace = true;
            if (i + 1 < argc && endsWith(argv[i + 1], ".json"))
                trace_file = argv[++i];
        } else if (std::strcmp(arg, "--steady-state") == 0) {
            if (i + 1 >= argc)
                fatal("--steady-state requires 'on' or 'off'");
            steady_override = argv[++i];
        } else if (std::strcmp(arg, "--listen") == 0) {
            if (i + 1 >= argc)
                fatal("--listen requires host:port (e.g. 127.0.0.1:0)");
            listen_override = argv[++i];
        } else if (std::strcmp(arg, "--interval") == 0) {
            if (i + 1 >= argc)
                fatal("--interval requires a value in seconds");
            interval_arg = argv[++i];
        } else if (std::strcmp(arg, "--top") == 0) {
            if (i + 1 >= argc)
                fatal("--top requires a value");
            top_arg = argv[++i];
        } else if (std::strcmp(arg, "--filter") == 0) {
            if (i + 1 >= argc)
                fatal("--filter requires key=value");
            filters.emplace_back(argv[++i]);
        } else if (std::strcmp(arg, "--baseline") == 0) {
            if (i + 1 >= argc)
                fatal("--baseline requires a run name or path");
            baseline_arg = argv[++i];
        } else if (std::strcmp(arg, "--fleet") == 0) {
            want_fleet = true;
        } else if (std::strcmp(arg, "--once") == 0) {
            want_once = true;
        } else if (std::strcmp(arg, "--json") == 0) {
            want_json = true;
        } else if (std::strcmp(arg, "--quick") == 0) {
            want_quick = true;
        } else if (startsWith(arg, "--")) {
            fatal("unknown option '", arg, "'");
        } else {
            positional.emplace_back(arg);
        }
    }

    if (command == "run" && positional.size() == 1)
        return cmdRun(positional[0], threads_override, want_trace,
                      trace_file, steady_override, listen_override);
    if (command == "top" && positional.size() == 1) {
        double interval_s =
            interval_arg ? parseDouble(interval_arg, "--interval") : 1.0;
        if (interval_s < 0.1)
            interval_s = 0.1;
        if (want_fleet)
            return cmdTopFleet(positional[0], interval_s, want_once);
        return cmdTop(positional[0], interval_s, want_once);
    }
    if (command == "runs" && positional.size() == 1)
        return cmdRuns(positional[0], filters, want_json, baseline_arg);
    if (command == "probe" && positional.size() == 2)
        return cmdProbe(positional[0], positional[1], out_override);
    if (command == "attribute" && positional.size() == 2)
        return cmdAttribute(positional[0], positional[1], out_override,
                            top_arg);
    if (command == "report" && positional.size() == 1)
        return cmdReport(positional[0], want_json);
    if (command == "explain" && positional.size() == 1)
        return cmdExplain(positional[0]);
    if (command == "verify" && positional.size() == 1)
        return cmdVerify(positional[0], want_quick);
    if (command == "compare" && positional.size() >= 2)
        return cmdCompare(positional, want_json);
    if (command == "stats" && positional.size() == 1)
        return cmdStats(positional[0], library_override);
    if (command == "fittest" && positional.size() == 1)
        return cmdFittest(positional[0], library_override, out_override);
    if (command == "platforms")
        return cmdPlatforms();
    if (command == "classes")
        return cmdClasses();
    return usage();
} catch (const gest::FatalError& err) {
    std::fprintf(stderr, "fatal: %s\n", err.what());
    return 1;
}
