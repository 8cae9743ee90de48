/**
 * @file
 * Micro-benchmarks (google-benchmark) of the framework's hot paths:
 * instruction rendering, micro-op decoding, the timing simulator, the
 * power/PDN models, GA operators and full individual evaluation.
 * These bound the per-measurement cost that replaces the paper's
 * 5-second hardware measurement.
 */

#include <benchmark/benchmark.h>

#include <string>

#include "arch/simulator.hh"
#include "core/operators.hh"
#include "isa/standard_libs.hh"
#include "measure/sim_measurements.hh"
#include "output/trace_writer.hh"
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
BM_ScopedSpanDisabled(benchmark::State& state)
{
    stats::setEnabled(false);
    stats::Histogram& hist = stats::StatsRegistry::instance().histogram(
        "bench.span", "benchmark span", 0.0, 1000.0, 40);
    for (auto _ : state) {
        output::ScopedSpan span(hist, nullptr, "bench.span", "bench");
        benchmark::DoNotOptimize(&span);
    }
}
BENCHMARK(BM_ScopedSpanDisabled);

void
BM_ScopedSpanEnabled(benchmark::State& state)
{
    stats::setEnabled(true);
    stats::Histogram& hist = stats::StatsRegistry::instance().histogram(
        "bench.span", "benchmark span", 0.0, 1000.0, 40);
    for (auto _ : state) {
        output::ScopedSpan span(hist, nullptr, "bench.span", "bench");
        benchmark::DoNotOptimize(&span);
    }
    stats::setEnabled(false);
}
BENCHMARK(BM_ScopedSpanEnabled);

} // namespace

BENCHMARK_MAIN();
