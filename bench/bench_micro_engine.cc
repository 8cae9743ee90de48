/**
 * @file
 * Micro-benchmarks (google-benchmark) of the framework's hot paths:
 * instruction rendering, micro-op decoding, the timing simulator, the
 * power/PDN models, GA operators and full individual evaluation.
 * These bound the per-measurement cost that replaces the paper's
 * 5-second hardware measurement.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "arch/simulator.hh"
#include "attribution/coverage.hh"
#include "core/operators.hh"
#include "isa/standard_libs.hh"
#include "measure/sim_measurements.hh"
#include "pdn/pdn_model.hh"
#include "platform/platform.hh"
#include "power/power_model.hh"
#include "stats/stats.hh"
#include "xml/xml.hh"

using namespace gest;

namespace {

std::vector<isa::InstructionInstance>
randomBody(const isa::InstructionLibrary& lib, int size,
           std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<isa::InstructionInstance> code;
    for (int i = 0; i < size; ++i)
        code.push_back(lib.randomInstance(rng));
    return code;
}

void
BM_RenderInstruction(benchmark::State& state)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto code = randomBody(lib, 64, 1);
    std::size_t index = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            lib.render(code[index++ % code.size()]));
    }
}
BENCHMARK(BM_RenderInstruction);

void
BM_DecodeBody50(benchmark::State& state)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto code = randomBody(lib, 50, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(arch::decodeBody(lib, code));
}
BENCHMARK(BM_DecodeBody50);

void
BM_SimulateLoop(benchmark::State& state)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto body =
        arch::decodeBody(lib, randomBody(lib, 50, 3));
    arch::LoopSimulator sim(arch::cortexA15Config(), arch::InitState{});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sim.run(body, static_cast<std::uint64_t>(state.range(0)),
                    2));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) * 51);
}
BENCHMARK(BM_SimulateLoop)->Arg(16)->Arg(64)->Arg(256);

void
BM_PowerTrace(benchmark::State& state)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    const auto body = arch::decodeBody(lib, randomBody(lib, 50, 4));
    arch::LoopSimulator sim(arch::cortexA15Config(), arch::InitState{});
    const arch::SimResult result = sim.runForCycles(body, 4096);
    const power::PowerModel model(power::cortexA15Energy(), 1.2);
    for (auto _ : state)
        benchmark::DoNotOptimize(model.trace(result, 1.05, 55.0));
}
BENCHMARK(BM_PowerTrace);

void
BM_PdnSimulate(benchmark::State& state)
{
    const pdn::PdnModel model(pdn::athlonPdn());
    std::vector<double> amps(8192);
    for (std::size_t i = 0; i < amps.size(); ++i)
        amps[i] = 20.0 + 15.0 * ((i / 15) % 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(model.simulate(amps, 3.1));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(amps.size()));
}
BENCHMARK(BM_PdnSimulate);

void
BM_FullPowerMeasurement(benchmark::State& state)
{
    const auto plat = platform::cortexA15Platform();
    const auto& lib = plat->library();
    measure::SimPowerMeasurement meas(lib, plat);
    const auto code = randomBody(lib, 50, 5);
    for (auto _ : state)
        benchmark::DoNotOptimize(meas.measure(code));
}
BENCHMARK(BM_FullPowerMeasurement);

void
BM_FullPowerMeasurementNoSteady(benchmark::State& state)
{
    const auto plat = platform::cortexA15Platform();
    const auto& lib = plat->library();
    measure::SimPowerMeasurement meas(lib, plat);
    meas.setSteadyState(false);
    const auto code = randomBody(lib, 50, 5);
    for (auto _ : state)
        benchmark::DoNotOptimize(meas.measure(code));
}
BENCHMARK(BM_FullPowerMeasurementNoSteady);

void
BM_FullVoltageNoiseMeasurement(benchmark::State& state)
{
    const auto plat = platform::athlonX4Platform();
    const auto& lib = plat->library();
    measure::SimVoltageNoiseMeasurement meas(lib, plat);
    const auto code = randomBody(lib, 47, 6);
    for (auto _ : state)
        benchmark::DoNotOptimize(meas.measure(code));
}
BENCHMARK(BM_FullVoltageNoiseMeasurement);

void
BM_CrossoverAndMutate(benchmark::State& state)
{
    const isa::InstructionLibrary lib = isa::armLikeLibrary();
    core::Individual p1;
    core::Individual p2;
    p1.code = randomBody(lib, 50, 7);
    p2.code = randomBody(lib, 50, 8);
    core::GaParams params;
    Rng rng(9);
    for (auto _ : state) {
        auto [c1, c2] = core::onePointCrossover(p1, p2, rng);
        core::mutate(c1, lib, params, rng);
        core::mutate(c2, lib, params, rng);
        benchmark::DoNotOptimize(c1);
        benchmark::DoNotOptimize(c2);
    }
}
BENCHMARK(BM_CrossoverAndMutate);

void
BM_XmlParseConfig(benchmark::State& state)
{
    const std::string text = R"(
<gest_configuration>
  <ga population_size="50" individual_size="50" mutation_rate="0.02"
      crossover_operator="one_point" tournament_size="5"
      elitism="true" generations="100" seed="1"/>
  <operands>
    <operand id="mem_result" values="x2 x3 x4" type="register"/>
    <operand id="imm" min="0" max="256" stride="8" type="immediate"/>
  </operands>
</gest_configuration>
)";
    for (auto _ : state)
        benchmark::DoNotOptimize(xml::parse(text));
}
BENCHMARK(BM_XmlParseConfig);

// The observability contract: instrumentation costs one relaxed load
// per site when stats are off. These pin the per-bump and per-timer
// cost in both states so a regression is visible next to the hot-path
// numbers above.
void
BM_StatsCounterDisabled(benchmark::State& state)
{
    stats::setEnabled(false);
    stats::Counter& ctr = stats::StatsRegistry::instance().counter(
        "bench.counter", "benchmark counter");
    for (auto _ : state)
        ctr.inc();
}
BENCHMARK(BM_StatsCounterDisabled);

void
BM_StatsCounterEnabled(benchmark::State& state)
{
    stats::setEnabled(true);
    stats::Counter& ctr = stats::StatsRegistry::instance().counter(
        "bench.counter", "benchmark counter");
    for (auto _ : state)
        ctr.inc();
    stats::setEnabled(false);
}
BENCHMARK(BM_StatsCounterEnabled);

void
BM_StatsHistogramEnabled(benchmark::State& state)
{
    stats::setEnabled(true);
    stats::Histogram& hist = stats::StatsRegistry::instance().histogram(
        "bench.hist", "benchmark histogram", 0.0, 1000.0, 40);
    double v = 0.0;
    for (auto _ : state) {
        hist.sample(v);
        v += 1.0;
        if (v >= 1200.0)
            v = 0.0;
    }
    stats::setEnabled(false);
}
BENCHMARK(BM_StatsHistogramEnabled);

void
BM_ScopedTimerDisabled(benchmark::State& state)
{
    stats::setEnabled(false);
    stats::Histogram& hist = stats::StatsRegistry::instance().histogram(
        "bench.timer", "benchmark timer", 0.0, 1000.0, 40);
    for (auto _ : state) {
        stats::ScopedTimer timer(&hist);
        benchmark::DoNotOptimize(&timer);
    }
}
BENCHMARK(BM_ScopedTimerDisabled);

void
BM_ScopedTimerEnabled(benchmark::State& state)
{
    stats::setEnabled(true);
    stats::Histogram& hist = stats::StatsRegistry::instance().histogram(
        "bench.timer", "benchmark timer", 0.0, 1000.0, 40);
    for (auto _ : state) {
        stats::ScopedTimer timer(&hist);
        benchmark::DoNotOptimize(&timer);
    }
    stats::setEnabled(false);
}
BENCHMARK(BM_ScopedTimerEnabled);

/**
 * CI perf smoke (`--smoke_json=<path>`): time full evaluations with
 * the steady-state fast path on and off across every shipped platform
 * and write one machine-readable BENCH_engine.json. Each platform is
 * measured at the cycle horizon its shipped config uses, over two
 * body sets: a fixed random set (dominated by aperiodic bodies, so
 * this mostly measures detector overhead) and a steady set of bodies
 * the detector actually tiles (this measures the fast-path payoff).
 * The fitness equality flags are the gating part (fast must equal
 * full bitwise); the throughput numbers are informational — CI
 * machines are too noisy to gate on absolute rates.
 */
int
runSteadySmoke(const std::string& path)
{
    using clock = std::chrono::steady_clock;
    constexpr int numBodies = 16;
    constexpr int numSteadyBodies = 8;
    constexpr int maxSteadyProbes = 400;
    constexpr double minSeconds = 0.25;

    std::ostringstream os;
    os << "{\n  \"version\": 1,\n"
       << "  \"benchmark\": \"engine_steady_smoke\",\n"
       << "  \"platforms\": [";

    bool first = true;
    bool all_identical = true;
    for (const std::string& name : platform::Platform::presetNames()) {
        const auto plat = platform::Platform::byName(name);
        const auto& lib = plat->library();
        const bool want_voltage = plat->pdnModel() != nullptr;
        // The cycle horizon each platform's shipped config measures
        // over (athlon_didt's voltage-noise measurement uses 8192,
        // xgene2_llc_stress's cache measurement 16384).
        const std::uint64_t horizon = name == "athlon-x4" ? 8192
                                      : name == "xgene2-llc"
                                          ? 16384
                                          : 4096;

        std::vector<std::vector<isa::InstructionInstance>> bodies;
        for (int i = 0; i < numBodies; ++i)
            bodies.push_back(randomBody(
                lib, 16 + (i * 13) % 45,
                static_cast<std::uint64_t>(1000 + i)));

        platform::EvalScratch fast_scratch, full_scratch;
        fast_scratch.steadyState = true;
        full_scratch.steadyState = false;
        platform::Evaluation fast, full;

        auto bitIdentical = [&]() {
            auto same = [](const double& a, const double& b) {
                return std::memcmp(&a, &b, sizeof(double)) == 0;
            };
            return same(fast.chipPowerWatts, full.chipPowerWatts) &&
                   same(fast.corePowerWatts, full.corePowerWatts) &&
                   same(fast.ipc, full.ipc) &&
                   same(fast.peakToPeakV, full.peakToPeakV) &&
                   same(fast.vMin, full.vMin) &&
                   same(fast.vMax, full.vMax) &&
                   same(fast.dieTempC, full.dieTempC) &&
                   fast.sim.cycles == full.sim.cycles &&
                   fast.sim.instructions == full.sim.instructions;
        };

        // Correctness sweep (untimed): fast must match full bitwise.
        std::uint64_t hits = 0;
        bool identical = true;
        for (const auto& code : bodies) {
            plat->evaluateInto(code, lib, want_voltage, horizon,
                               nullptr, fast_scratch, fast);
            plat->evaluateInto(code, lib, want_voltage, horizon,
                               nullptr, full_scratch, full);
            identical = identical && bitIdentical();
            if (fast.sim.steadyHit())
                ++hits;
        }

        // Steady set: probe random bodies until enough of them tile
        // at least 75% of their cycles (parity-checked as we go).
        std::vector<std::vector<isa::InstructionInstance>> steady;
        for (int i = 0; i < maxSteadyProbes &&
                        steady.size() <
                            static_cast<std::size_t>(numSteadyBodies);
             ++i) {
            auto code = randomBody(
                lib, 16 + (i * 13) % 45,
                static_cast<std::uint64_t>(77000 + i));
            plat->evaluateInto(code, lib, want_voltage, horizon,
                               nullptr, fast_scratch, fast);
            if (!fast.sim.steadyHit() ||
                fast.sim.simulatedCycles * 4 > fast.sim.cycles)
                continue;
            plat->evaluateInto(code, lib, want_voltage, horizon,
                               nullptr, full_scratch, full);
            identical = identical && bitIdentical();
            steady.push_back(std::move(code));
        }
        all_identical = all_identical && identical;

        // Throughput: evaluate a body set round-robin until the
        // clock budget is spent (buffers stay warm, like a GA
        // worker).
        auto rate =
            [&](const std::vector<std::vector<
                    isa::InstructionInstance>>& set,
                platform::EvalScratch& scratch) {
                const auto t0 = clock::now();
                int evals = 0;
                double seconds = 0.0;
                do {
                    for (const auto& code : set) {
                        plat->evaluateInto(code, lib, want_voltage,
                                           horizon, nullptr, scratch,
                                           fast);
                        ++evals;
                    }
                    seconds = std::chrono::duration<double>(
                                  clock::now() - t0)
                                  .count();
                } while (seconds < minSeconds);
                return evals / seconds;
            };
        const double fast_eps = rate(bodies, fast_scratch);
        const double full_eps = rate(bodies, full_scratch);

        // Coverage-on datapoint: the same fast-path evaluation with
        // the coverage ledger observing every body, i.e. the per-
        // evaluation cost a run with <output coverage="true"/> pays.
        attribution::CoverageLedger ledger(lib);
        double fast_cov_eps;
        {
            const auto t0 = clock::now();
            int evals = 0;
            double seconds = 0.0;
            do {
                for (const auto& code : bodies) {
                    plat->evaluateInto(code, lib, want_voltage,
                                       horizon, nullptr, fast_scratch,
                                       fast);
                    ledger.observe(code);
                    ++evals;
                }
                seconds = std::chrono::duration<double>(clock::now() -
                                                        t0)
                              .count();
            } while (seconds < minSeconds);
            fast_cov_eps = evals / seconds;
        }
        const double coverage_overhead =
            fast_cov_eps > 0.0 ? fast_eps / fast_cov_eps : 0.0;
        double steady_fast_eps = 0.0, steady_full_eps = 0.0;
        if (!steady.empty()) {
            steady_fast_eps = rate(steady, fast_scratch);
            steady_full_eps = rate(steady, full_scratch);
        }
        const double steady_speedup =
            steady_full_eps > 0.0 ? steady_fast_eps / steady_full_eps
                                  : 0.0;

        char buf[1024];
        std::snprintf(
            buf, sizeof(buf),
            "%s\n    {\"platform\": \"%s\", \"min_cycles\": %llu, "
            "\"bodies\": %d, "
            "\"steady_hits\": %llu, \"fitness_identical\": %s, "
            "\"evals_per_sec_fast\": %.17g, "
            "\"evals_per_sec_full\": %.17g, \"speedup\": %.17g, "
            "\"steady_bodies\": %zu, "
            "\"evals_per_sec_fast_steady\": %.17g, "
            "\"evals_per_sec_full_steady\": %.17g, "
            "\"speedup_steady\": %.17g, "
            "\"coverage_cells\": %llu, "
            "\"evals_per_sec_fast_cov\": %.17g, "
            "\"coverage_overhead\": %.3f}",
            first ? "" : ",", name.c_str(),
            static_cast<unsigned long long>(horizon), numBodies,
            static_cast<unsigned long long>(hits),
            identical ? "true" : "false", fast_eps, full_eps,
            full_eps > 0.0 ? fast_eps / full_eps : 0.0, steady.size(),
            steady_fast_eps, steady_full_eps, steady_speedup,
            static_cast<unsigned long long>(ledger.cellsTotal()),
            fast_cov_eps, coverage_overhead);
        os << buf;
        first = false;
        std::fprintf(stderr,
                     "%-12s hits %llu/%d  random %.2fx  steady(%zu) "
                     "%.2fx%s\n",
                     name.c_str(),
                     static_cast<unsigned long long>(hits), numBodies,
                     full_eps > 0.0 ? fast_eps / full_eps : 0.0,
                     steady.size(), steady_speedup,
                     identical ? "" : "  FITNESS MISMATCH");
    }
    os << "\n  ]\n}\n";

    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    out << os.str();
    return all_identical ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::string prefix = "--smoke_json=";
        if (arg.rfind(prefix, 0) == 0)
            return runSteadySmoke(arg.substr(prefix.size()));
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
