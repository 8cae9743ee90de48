/**
 * @file
 * Parallel-evaluation scaling and fitness-cache effectiveness on the
 * a15_power configuration (the Figure 5 search).
 *
 * Reports:
 *  1. population-evaluation wall-clock for 1/2/4/8 evaluation threads
 *     (skipping counts above the host's hardware threads) with
 *     identical seeds, plus the speedup over serial;
 *  2. a determinism check: the serial and the widest parallel run must
 *     produce bit-identical generation histories and best genomes;
 *  3. fitness-cache hit rates, both for the organic GA stream (elite
 *     survivors and duplicate crossover children) and for a
 *     duplicate-heavy seed population (the converged-population case).
 *
 * Speedup is bounded by the physical core count; the bench prints the
 * host's hardware_concurrency so the numbers can be read in context.
 */

#include <chrono>
#include <cstdio>

#include "common.hh"
#include "fitness/fitness.hh"
#include "util/thread_pool.hh"

using namespace gest;
using namespace gest::bench;

namespace {

struct RunOutcome
{
    double seconds = 0.0;
    std::vector<core::GenerationRecord> history;
    core::Individual best;
    std::uint64_t evaluations = 0;  ///< measurements actually run
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
};

RunOutcome
runSearch(const std::shared_ptr<const platform::Platform>& plat,
          const core::GaParams& params)
{
    const isa::InstructionLibrary& lib = plat->library();
    measure::SimPowerMeasurement meas(lib, plat);
    fitness::DefaultFitness fit;
    core::Engine engine(params, lib, meas, fit);

    const auto start = std::chrono::steady_clock::now();
    engine.run();
    const auto stop = std::chrono::steady_clock::now();

    RunOutcome out;
    out.seconds =
        std::chrono::duration<double>(stop - start).count();
    out.history = engine.history();
    out.best = engine.bestEver();
    out.evaluations = engine.evaluations();
    out.cacheHits = engine.cacheHits();
    out.cacheMisses = engine.cacheMisses();
    return out;
}

bool
sameHistory(const std::vector<core::GenerationRecord>& a,
            const std::vector<core::GenerationRecord>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].bestFitness != b[i].bestFitness ||
            a[i].averageFitness != b[i].averageFitness ||
            a[i].bestId != b[i].bestId ||
            a[i].diversity != b[i].diversity)
            return false;
    }
    return true;
}

} // namespace

int
main()
{
    const Scale scale = scaleFromEnv({50, 12});
    printHeader("parallel scaling",
                "population evaluation throughput, a15_power search",
                scale);
    std::printf("host hardware threads: %d\n",
                util::ThreadPool::hardwareThreads());

    const auto plat = platform::cortexA15Platform();

    // --- thread scaling, cache off, identical seeds -------------------
    RunOutcome serial;
    RunOutcome widest;
    int widest_threads = 1;
    double serial_seconds = 0.0;
    for (int threads : {1, 2, 4, 8}) {
        if (threads > util::ThreadPool::hardwareThreads()) {
            std::printf("threads=%d  skipped (above hardware threads)\n",
                        threads);
            continue;
        }
        core::GaParams params = virusParams(50, scale, 1);
        params.threads = threads;
        const RunOutcome out = runSearch(plat, params);
        if (threads == 1) {
            serial = out;
            serial_seconds = out.seconds;
        }
        widest = out;
        widest_threads = threads;
        // Elitism carries evaluated individuals forward, so the engine
        // measures fewer than population x generations bodies.
        const double evals_per_s =
            static_cast<double>(out.evaluations) / out.seconds;
        std::printf("threads=%d  %7.3f s  %8.1f evals/s  speedup "
                    "%.2fx\n",
                    threads, out.seconds, evals_per_s,
                    serial_seconds / out.seconds);
    }

    const bool deterministic =
        sameHistory(serial.history, widest.history) &&
        serial.best.code == widest.best.code;
    printNote("determinism (serial vs " + std::to_string(widest_threads) +
              " threads, same seed): " +
              (deterministic ? "IDENTICAL — PASS" : "DIVERGED — FAIL"));

    // --- fitness cache on the organic GA stream -----------------------
    {
        core::GaParams params = virusParams(50, scale, 1);
        params.fitnessCacheSize = 4096;
        const RunOutcome out = runSearch(plat, params);
        const double total =
            static_cast<double>(out.cacheHits + out.cacheMisses);
        std::printf("cache, GA stream:        %llu hits / %llu misses "
                    "(%.1f%% hit rate), %.3f s (%.2fx vs uncached "
                    "serial)\n",
                    static_cast<unsigned long long>(out.cacheHits),
                    static_cast<unsigned long long>(out.cacheMisses),
                    total > 0.0 ? 100.0 * out.cacheHits / total : 0.0,
                    out.seconds, serial_seconds / out.seconds);
        if (!sameHistory(out.history, serial.history))
            printNote("cache determinism: DIVERGED — FAIL");
        else
            printNote("cache determinism (cached vs uncached serial): "
                      "IDENTICAL — PASS");
    }

    // --- fitness cache on a converged (duplicate-heavy) population ----
    {
        const isa::InstructionLibrary& lib = plat->library();
        core::GaParams params = virusParams(50, scale, 1);
        params.fitnessCacheSize = 4096;
        core::Population seed;
        Rng rng(99);
        std::vector<isa::InstructionInstance> clone_code;
        for (int i = 0; i < params.individualSize; ++i)
            clone_code.push_back(lib.randomInstance(rng));
        for (int i = 0; i < params.populationSize; ++i) {
            core::Individual ind;
            // Four distinct genomes replicated across the population.
            Rng genome_rng(static_cast<std::uint64_t>(i % 4));
            for (int g = 0; g < params.individualSize; ++g)
                ind.code.push_back(lib.randomInstance(genome_rng));
            ind.id = static_cast<std::uint64_t>(i + 1);
            seed.individuals.push_back(std::move(ind));
        }

        measure::SimPowerMeasurement meas(lib, plat);
        fitness::DefaultFitness fit;
        core::Engine engine(params, lib, meas, fit);
        engine.setSeedPopulation(std::move(seed));
        engine.initialize();
        const core::GenerationRecord& gen0 = engine.history().front();
        const double total =
            static_cast<double>(gen0.cacheHits + gen0.cacheMisses);
        std::printf("cache, converged seed:   %llu hits / %llu misses "
                    "in generation 0 (%.1f%% hit rate)\n",
                    static_cast<unsigned long long>(gen0.cacheHits),
                    static_cast<unsigned long long>(gen0.cacheMisses),
                    total > 0.0 ? 100.0 * gen0.cacheHits / total : 0.0);
    }

    printNote("shape checks: evaluation dominates runtime, so speedup "
              "should track min(threads, physical cores); duplicate "
              "genomes must never reach the simulator twice.");
    return 0;
}
