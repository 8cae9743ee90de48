/**
 * @file
 * Traced phase and layer replay of the end-to-end benchmark.
 *
 * Usage: gest_bench <config.xml> <trace.json> <replay_samples>
 *
 * 1. Traced run. config::runFromConfig runs the configuration once with
 *    timing decorators registered in MeasurementRegistry and
 *    FitnessRegistry around the configured classes. Each thread records
 *    its spans (name, start, end, worker id) into its own in-memory
 *    buffer; the buffers are written as one Chrome trace when the run
 *    has ended. Run-level timings come from the spans: every measure()
 *    of generation g starts after every measure() of generation g-1 has
 *    ended (the engine barriers between generations), so the measure
 *    spans sorted by start split into generations by the per-generation
 *    measurement counts in RunResult::history.
 * 2. Replay. Up to <replay_samples> evenly spaced bodies that the traced
 *    run measured go through Platform::evaluateInto and then through the
 *    layer functions evaluateInto calls, one at a time on this thread.
 *    Each layered evaluation must equal evaluateInto bit for bit on
 *    every scalar, and evaluateInto's chip power must equal what
 *    measure() returned for the body during the run.
 *
 * Prints one JSON object of per-layer metrics on stdout.
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "arch/microop.hh"
#include "arch/simulator.hh"
#include "config/config.hh"
#include "fitness/fitness.hh"
#include "measure/measurement.hh"
#include "measure/sim_measurements.hh"
#include "pdn/pdn_model.hh"
#include "platform/platform.hh"
#include "power/power_model.hh"
#include "util/logging.hh"
#include "util/strutil.hh"
#include "util/thread_pool.hh"

namespace {

using namespace gest;

/** Prefix of the decorator class names registered next to each class. */
const std::string tracedPrefix = "BenchTraced";

/** Name of the value every simulated measurement reports chip power in. */
const std::string chipPowerValue = "avg_chip_power_w";

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    const char* name;
    std::int64_t startNs;
    std::int64_t endNs;
    int worker; ///< ThreadPool worker id; -1 on the coordinator
};

/** A body measure() saw during the traced run, for the replay. */
struct Measured
{
    std::int64_t startNs;
    std::vector<isa::InstructionInstance> code;
    double chipWatts;
};

struct ThreadLog
{
    std::vector<Span> spans;
    std::vector<Measured> measured;
};

/**
 * Owner of every thread's log. Threads append only to their own log;
 * the logs are read after runFromConfig returns, when the engine's
 * worker threads have been joined.
 */
std::mutex logsMutex;
std::vector<std::unique_ptr<ThreadLog>> logs;

ThreadLog&
threadLog()
{
    thread_local ThreadLog* log = nullptr;
    if (!log) {
        std::lock_guard<std::mutex> lock(logsMutex);
        logs.push_back(std::make_unique<ThreadLog>());
        log = logs.back().get();
    }
    return *log;
}

void
recordSpan(const char* name, std::int64_t start)
{
    threadLog().spans.push_back(
        {name, start, nowNs(), util::ThreadPool::currentWorkerId()});
}

class TracedMeasurement : public measure::Measurement
{
  public:
    explicit TracedMeasurement(std::unique_ptr<measure::Measurement> inner)
        : _inner(std::move(inner))
    {
        const std::vector<std::string> names = _inner->valueNames();
        const auto it =
            std::find(names.begin(), names.end(), chipPowerValue);
        if (it == names.end())
            fatal("gest_bench replays simulated measurements only; '",
                  _inner->name(), "' reports no ", chipPowerValue);
        _chipIndex = static_cast<std::size_t>(it - names.begin());
    }

    void init(const xml::Element* config) override { _inner->init(config); }

    measure::MeasurementResult
    measure(const std::vector<isa::InstructionInstance>& code) override
    {
        const std::int64_t start = nowNs();
        measure::MeasurementResult result = _inner->measure(code);
        recordSpan("measure", start);
        threadLog().measured.push_back(
            {start, code, result.values.at(_chipIndex)});
        return result;
    }

    measure::MeasurementResult
    measureWithProbe(const std::vector<isa::InstructionInstance>& code,
                     signal::SignalProbe* probe) override
    {
        const std::int64_t start = nowNs();
        measure::MeasurementResult result =
            _inner->measureWithProbe(code, probe);
        recordSpan("measure_with_probe", start);
        return result;
    }

    void
    setSteadyState(bool enabled) override
    {
        const std::int64_t start = nowNs();
        _inner->setSteadyState(enabled);
        recordSpan("set_steady_state", start);
    }

    std::vector<std::string>
    valueNames() const override
    {
        return _inner->valueNames();
    }

    std::string name() const override { return _inner->name(); }

    std::unique_ptr<measure::Measurement>
    clone() const override
    {
        const std::int64_t start = nowNs();
        std::unique_ptr<measure::Measurement> inner = _inner->clone();
        std::unique_ptr<measure::Measurement> result;
        if (inner)
            result = std::make_unique<TracedMeasurement>(std::move(inner));
        recordSpan("clone", start);
        return result;
    }

  private:
    std::unique_ptr<measure::Measurement> _inner;
    std::size_t _chipIndex = 0;
};

class TracedFitness : public fitness::Fitness
{
  public:
    explicit TracedFitness(std::unique_ptr<fitness::Fitness> inner)
        : _inner(std::move(inner))
    {}

    void init(const xml::Element* config) override { _inner->init(config); }

    double
    getFitness(const core::Individual& ind,
               const isa::InstructionLibrary& lib) const override
    {
        const std::int64_t start = nowNs();
        const double value = _inner->getFitness(ind, lib);
        recordSpan("fitness", start);
        return value;
    }

    std::string name() const override { return _inner->name(); }

  private:
    std::unique_ptr<fitness::Fitness> _inner;
};

void
registerTracedClasses()
{
    config::registerBuiltins();
    measure::MeasurementRegistry& measurements =
        measure::MeasurementRegistry::instance();
    for (const std::string& name : measurements.names())
        measurements.registerFactory(
            tracedPrefix + name, [name](const isa::InstructionLibrary& lib) {
                return std::make_unique<TracedMeasurement>(
                    measure::MeasurementRegistry::instance().create(name,
                                                                    lib));
            });
    fitness::FitnessRegistry& fitnesses = fitness::FitnessRegistry::instance();
    for (const std::string& name : fitnesses.names())
        fitnesses.registerFactory(tracedPrefix + name, [name] {
            return std::make_unique<TracedFitness>(
                fitness::FitnessRegistry::instance().create(name));
        });
}

/** Linear-interpolated quantile of @p values (0 when empty). */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) *
                            (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/** Ordered name/value pairs printed as one JSON object. */
struct Metrics
{
    std::vector<std::pair<std::string, double>> values;

    void add(const std::string& name, double value)
    {
        values.emplace_back(name, value);
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (const auto& [name, value] : values) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.17g", value);
            out += (out.size() > 1 ? ", \"" : "\"") + name + "\": " + buf;
        }
        return out + "}";
    }
};

void
writeChromeTrace(const std::string& path, const std::vector<Span>& spans,
                 std::int64_t origin, const std::string& run_id)
{
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (!file)
        fatal("cannot write ", path);
    std::fprintf(file, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(file,
                     "%s\n{\"name\": \"%s\", \"cat\": \"bench\", \"ph\": "
                     "\"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                     "\"tid\": %d, \"args\": {\"run\": \"%s\"}}",
                     i ? "," : "",
                     s.name, static_cast<double>(s.startNs - origin) / 1e3,
                     static_cast<double>(s.endNs - s.startNs) / 1e3,
                     s.worker + 1, run_id.c_str());
    }
    std::fprintf(file, "\n]}\n");
    if (std::fclose(file) != 0)
        fatal("cannot write ", path);
}

/**
 * Run-level timings from the traced run's spans: generation windows,
 * coordinator time around them, worker busy time and fitness calls.
 */
void
addRunMetrics(Metrics& m, const std::vector<Span>& spans,
              const config::RunResult& result,
              std::uint64_t generation_measures, int threads,
              std::int64_t run_start, std::int64_t run_end)
{
    std::vector<const Span*> measures;
    double fitness_ns = 0.0;
    std::uint64_t fitness_calls = 0, reprobes = 0;
    for (const Span& s : spans) {
        const std::string_view name = s.name;
        if (name == "measure") {
            measures.push_back(&s);
        } else if (name == "measure_with_probe") {
            ++reprobes;
        } else if (name == "fitness") {
            ++fitness_calls;
            fitness_ns += static_cast<double>(s.endNs - s.startNs);
        }
    }

    if (measures.size() < generation_measures)
        fatal("traced run recorded ", measures.size(),
              " measure spans but its history counts ",
              generation_measures);
    reprobes += measures.size() - generation_measures;

    // One window [first start, last end] per generation that measured.
    struct Window
    {
        std::int64_t start, end;
        double busyNs;
    };
    std::vector<Window> windows;
    std::vector<double> eval_us;
    std::size_t next = 0;
    for (const core::GenerationRecord& rec : result.history) {
        if (rec.cacheMisses == 0)
            continue;
        Window w{measures[next]->startNs, measures[next]->endNs, 0.0};
        for (std::uint64_t k = 0; k < rec.cacheMisses; ++k, ++next) {
            const Span& s = *measures[next];
            w.start = std::min(w.start, s.startNs);
            w.end = std::max(w.end, s.endNs);
            w.busyNs += static_cast<double>(s.endNs - s.startNs);
            eval_us.push_back(static_cast<double>(s.endNs - s.startNs) /
                              1e3);
        }
        windows.push_back(w);
    }
    if (windows.empty())
        fatal("traced run measured nothing");

    double between_ns = 0.0, cluster_ns = 0.0, busy_ns = 0.0,
           imbalance_ns = 0.0;
    std::vector<double> generation_ms;
    for (std::size_t g = 0; g < windows.size(); ++g) {
        const Window& w = windows[g];
        const double wall = static_cast<double>(w.end - w.start);
        cluster_ns += wall;
        busy_ns += w.busyNs;
        imbalance_ns += wall - w.busyNs / threads;
        if (g + 1 < windows.size()) {
            between_ns +=
                static_cast<double>(windows[g + 1].start - w.end);
            generation_ms.push_back(
                static_cast<double>(windows[g + 1].start - w.start) / 1e6);
        }
    }
    if (generation_ms.empty())
        generation_ms.push_back(cluster_ns / 1e6);
    const double run_ns = static_cast<double>(run_end - run_start);

    m.add("config.run_start_s",
          static_cast<double>(windows.front().start - run_start) / 1e9);
    m.add("config.seal_s",
          static_cast<double>(run_end - windows.back().end) / 1e9);
    m.add("core.between_generations_s", between_ns / 1e9);
    m.add("core.between_generations_share", ratio(between_ns, run_ns));
    m.add("core.generation_ms.p50", quantile(generation_ms, 0.5));
    m.add("core.generations", static_cast<double>(result.history.size()));
    m.add("core.fitness_cache.hit_ratio",
          ratio(static_cast<double>(result.cacheHits),
                static_cast<double>(result.cacheHits + result.cacheMisses)));
    m.add("measure.calls", static_cast<double>(measures.size()));
    m.add("measure.reprobe_calls", static_cast<double>(reprobes));
    m.add("measure.eval_us.p50", quantile(eval_us, 0.5));
    m.add("measure.eval_us.p90", quantile(eval_us, 0.9));
    m.add("measure.busy_s", busy_ns / 1e9);
    m.add("measure.worker_util", ratio(busy_ns, threads * cluster_ns));
    m.add("measure.imbalance_s", imbalance_ns / 1e9);
    m.add("fitness.calls", static_cast<double>(fitness_calls));
    m.add("fitness.busy_ms", fitness_ns / 1e6);
}

/**
 * Replay @p bodies through evaluateInto and layer by layer. The
 * layered path repeats evaluateInto's own sequence of calls (a null
 * probe, so the tiled PDN kernel), with its constants: the 2,000,000
 * instruction cap of the timing simulation and 256 PDN warm-up cycles.
 */
void
addReplayMetrics(Metrics& m, const config::RunConfig& cfg,
                 const std::string& measurement_class,
                 const std::vector<const Measured*>& bodies)
{
    std::unique_ptr<measure::Measurement> measurement =
        measure::MeasurementRegistry::instance().create(measurement_class,
                                                        cfg.library);
    measurement->init(cfg.measurementConfig);
    if (cfg.steadyStateOverride)
        measurement->setSteadyState(*cfg.steadyStateOverride);
    const auto* sim_measurement =
        dynamic_cast<const measure::SimMeasurementBase*>(measurement.get());
    if (!sim_measurement)
        fatal("gest_bench replays simulated measurements only");
    if (!cfg.measurementConfig ||
        !cfg.measurementConfig->hasAttr("min_cycles"))
        fatal("the workload configuration must set min_cycles");
    const std::uint64_t min_cycles = static_cast<std::uint64_t>(parseInt(
        cfg.measurementConfig->attr("min_cycles"), "min_cycles"));
    const platform::Platform& plat = sim_measurement->platform();
    const bool steady = sim_measurement->steadyState();
    const bool want_voltage =
        measurement_class == "SimVoltageNoiseMeasurement";
    const pdn::PdnModel* pdn = plat.pdnModel();
    const double vdd = plat.chip().vdd;
    const double freq = plat.cpu().freqGHz;
    const power::EnergyModel& em = plat.energy();

    platform::EvalScratch scratch;
    scratch.steadyState = steady;
    platform::Evaluation ref;
    std::vector<arch::MicroOp> body;
    arch::SimScratch sim_scratch;
    arch::SimResult sim;
    power::PowerTrace power_trace;
    std::vector<double> amps;

    // Nanoseconds per layer, summed over the samples.
    double evaluate_ns = 0, decode_ns = 0, sim_ns = 0, average_ns = 0,
           temp_ns = 0, trace_ns = 0, current_ns = 0, pdn_ns = 0;
    std::vector<double> evaluate_us, sim_us;
    double stepped = 0, virtual_cycles = 0;
    std::uint64_t hits = 0, mismatches = 0;

    for (std::size_t k = 0; k < bodies.size(); ++k) {
        const Measured& sample = *bodies[k];
        const std::vector<isa::InstructionInstance>& code = sample.code;
        const auto reference = [&] {
            const std::int64_t start = nowNs();
            plat.evaluateInto(code, cfg.library, want_voltage, min_cycles,
                              nullptr, scratch, ref);
            const double ns = static_cast<double>(nowNs() - start);
            evaluate_ns += ns;
            evaluate_us.push_back(ns / 1e3);
        };
        // Alternate which path runs first, so that neither always finds
        // the body's working set in the host caches.
        if (k % 2 == 0)
            reference();

        std::int64_t t0 = nowNs();
        arch::decodeBodyInto(cfg.library, code, body);
        std::int64_t t1 = nowNs();
        decode_ns += static_cast<double>(t1 - t0);

        t0 = nowNs();
        {
            arch::LoopSimulator loop(plat.cpu(), plat.initState());
            arch::RunOptions options;
            options.steadyState = steady;
            loop.runForCyclesInto(body, min_cycles, 2'000'000, options,
                                  sim_scratch, sim);
        }
        t1 = nowNs();
        sim_ns += static_cast<double>(t1 - t0);
        sim_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        stepped += static_cast<double>(sim.simulatedCycles);
        virtual_cycles += static_cast<double>(sim.cycles);
        hits += sim.steadyHit() ? 1 : 0;

        t0 = nowNs();
        const power::PowerModel power_model(em, freq);
        const double core_dynamic =
            power_model.averageWatts(sim, vdd, em.leakageRefTempC) -
            em.leakageWatts(em.leakageRefTempC, vdd);
        t1 = nowNs();
        average_ns += static_cast<double>(t1 - t0);

        t0 = nowNs();
        double chip_watts = 0.0;
        const double die_temp = plat.chipTempC(core_dynamic, &chip_watts);
        const double core_watts =
            core_dynamic + em.leakageWatts(die_temp, vdd);
        t1 = nowNs();
        temp_ns += static_cast<double>(t1 - t0);

        double v_min = 0.0, v_max = 0.0;
        if (want_voltage) {
            t0 = nowNs();
            power_model.traceInto(sim, vdd, die_temp, nullptr, power_trace);
            t1 = nowNs();
            trace_ns += static_cast<double>(t1 - t0);

            t0 = nowNs();
            plat.chipCurrentInto(power_trace, amps);
            t1 = nowNs();
            current_ns += static_cast<double>(t1 - t0);

            t0 = nowNs();
            const pdn::VoltageTrace volts = pdn->simulateTiled(
                amps.data(), sim.tiling,
                static_cast<std::size_t>(
                    sim.tiling.clippedVirtualCycles(arch::maxTraceCycles)),
                freq, 256);
            t1 = nowNs();
            pdn_ns += static_cast<double>(t1 - t0);
            v_min = volts.vMin;
            v_max = volts.vMax;
        }
        if (k % 2 == 1)
            reference();

        const bool same =
            sameBits(ref.chipPowerWatts, sample.chipWatts) &&
            sameBits(ref.ipc, sim.ipc) &&
            sameBits(ref.corePowerWatts, core_watts) &&
            sameBits(ref.chipPowerWatts, chip_watts) &&
            sameBits(ref.dieTempC, die_temp) &&
            sameBits(ref.vMin, v_min) && sameBits(ref.vMax, v_max) &&
            sameBits(ref.peakToPeakV, v_max - v_min) &&
            ref.sim.cycles == sim.cycles &&
            ref.sim.instructions == sim.instructions &&
            ref.sim.simulatedCycles == sim.simulatedCycles &&
            ref.sim.totalToggleBits == sim.totalToggleBits;
        mismatches += same ? 0 : 1;
    }

    const double layers_ns = decode_ns + sim_ns + average_ns + temp_ns +
                             trace_ns + current_ns + pdn_ns;
    m.add("platform.evaluate_us.p50", quantile(evaluate_us, 0.5));
    m.add("platform.evaluate_us.p90", quantile(evaluate_us, 0.9));
    m.add("arch.sim.share", ratio(sim_ns, evaluate_ns));
    m.add("arch.sim.us.p50", quantile(sim_us, 0.5));
    m.add("arch.sim.ns_per_stepped_cycle", ratio(sim_ns, stepped));
    m.add("arch.sim.steady_hit_ratio",
          ratio(static_cast<double>(hits),
                static_cast<double>(bodies.size())));
    m.add("arch.sim.tiled_frac", 1.0 - ratio(stepped, virtual_cycles));
    m.add("arch.decode.share", ratio(decode_ns, evaluate_ns));
    m.add("power.average.share", ratio(average_ns, evaluate_ns));
    m.add("thermal.chip_temp.share", ratio(temp_ns, evaluate_ns));
    m.add("power.trace.share", ratio(trace_ns, evaluate_ns));
    m.add("platform.chip_current.share", ratio(current_ns, evaluate_ns));
    m.add("pdn.simulate.share", ratio(pdn_ns, evaluate_ns));
    m.add("replay.samples", static_cast<double>(bodies.size()));
    m.add("replay.mismatches", static_cast<double>(mismatches));
    m.add("replay.coverage", ratio(layers_ns, evaluate_ns));
}

int
run(const std::string& config_path, const std::string& trace_path,
    std::size_t replay_samples)
{
    const std::int64_t load_start = nowNs();
    config::RunConfig cfg = config::loadConfig(config_path);
    const std::int64_t load_end = nowNs();

    registerTracedClasses();
    const std::string measurement_class = cfg.measurementClass;
    cfg.measurementClass = tracedPrefix + cfg.measurementClass;
    cfg.fitnessClass = tracedPrefix + cfg.fitnessClass;

    const std::int64_t run_start = nowNs();
    const config::RunResult result = config::runFromConfig(cfg);
    const std::int64_t run_end = nowNs();

    // The engine's workers have been joined: every log is final.
    std::vector<Span> spans;
    std::vector<const Measured*> measured;
    for (const std::unique_ptr<ThreadLog>& log : logs) {
        spans.insert(spans.end(), log->spans.begin(), log->spans.end());
        for (const Measured& entry : log->measured)
            measured.push_back(&entry);
    }
    spans.push_back({"runFromConfig", run_start, run_end, -1});
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) {
                  return a.startNs < b.startNs;
              });
    std::sort(measured.begin(), measured.end(),
              [](const Measured* a, const Measured* b) {
                  return a->startNs < b->startNs;
              });
    writeChromeTrace(trace_path, spans, load_start,
                     "seed-" + std::to_string(cfg.ga.seed));

    std::uint64_t generation_measures = 0;
    for (const core::GenerationRecord& rec : result.history)
        generation_measures += rec.cacheMisses;
    Metrics metrics;
    metrics.add("config.load_ms",
                static_cast<double>(load_end - load_start) / 1e6);
    addRunMetrics(metrics, spans, result, generation_measures,
                  std::max(cfg.ga.threads, 1), run_start, run_end);

    // Bodies measured by the generations, evenly spaced over the run.
    const std::size_t n =
        std::min<std::size_t>(replay_samples, generation_measures);
    std::vector<const Measured*> bodies;
    for (std::size_t k = 0; k < n; ++k)
        bodies.push_back(measured[k * generation_measures / n]);
    addReplayMetrics(metrics, cfg, measurement_class, bodies);

    metrics.add("run_wall_s", static_cast<double>(run_end - run_start) / 1e9);
    std::printf("%s\n", metrics.json().c_str());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc != 4) {
        std::fprintf(stderr, "usage: gest_bench <config.xml> <trace.json> "
                             "<replay_samples>\n");
        return 2;
    }
    try {
        const std::int64_t samples =
            gest::parseInt(argv[3], "replay_samples");
        if (samples < 1)
            gest::fatal("replay_samples must be at least 1");
        return run(argv[1], argv[2], static_cast<std::size_t>(samples));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "gest_bench: %s\n", e.what());
        return 1;
    }
}
