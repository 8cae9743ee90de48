/**
 * @file
 * The GA engine: coordinates seeding, measurement, fitness evaluation
 * and breeding (§III.A, Figure 2).
 */

#ifndef GEST_CORE_ENGINE_HH
#define GEST_CORE_ENGINE_HH

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/fitness_cache.hh"
#include "core/ga_params.hh"
#include "core/operators.hh"
#include "core/population.hh"
#include "fitness/fitness.hh"
#include "measure/measurement.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

namespace gest {

namespace output {
class TraceWriter;
} // namespace output

namespace analysis {
class Recorder;
} // namespace analysis

namespace stats {
class Counter;
} // namespace stats

namespace core {

/** Per-generation summary appended to the engine's history. */
struct GenerationRecord
{
    int generation = 0;
    double bestFitness = 0.0;
    double averageFitness = 0.0;
    std::uint64_t bestId = 0;
    std::size_t bestUniqueInstructions = 0;
    std::array<int, isa::numInstrClasses> bestBreakdown{};

    /** Population genotype diversity (Population::genotypeDiversity). */
    double diversity = 0.0;

    /**
     * Evaluations satisfied without running the measurement this
     * generation: fitness-cache hits plus in-generation duplicate
     * genomes folded onto one measurement.
     */
    std::uint64_t cacheHits = 0;

    /** Measurements actually performed this generation. */
    std::uint64_t cacheMisses = 0;

    /**
     * Per-phase wall-clock milliseconds for this generation. All zero
     * unless stats recording (stats::setEnabled) or a trace writer is
     * active when the generation runs — timing the phases costs clock
     * reads the untimed hot path must not pay.
     */
    double selectionMs = 0.0;   ///< parent selection inside breed()
    double crossoverMs = 0.0;   ///< crossover inside breed()
    double mutationMs = 0.0;    ///< mutation inside breed()
    double evaluationMs = 0.0;  ///< cache resolution + measurements
};

/**
 * Drives one GA search. The engine owns the population and the RNG; the
 * caller owns the library, measurement and fitness objects, which must
 * outlive the engine.
 */
class Engine
{
  public:
    /** Observer invoked after each generation is evaluated. */
    using GenerationCallback =
        std::function<void(const Population&, const GenerationRecord&)>;

    /**
     * One item of a forEachOnWorkers() loop: the item index, the id of
     * the worker running it (0 on the serial path) and the measurement
     * that worker owns.
     */
    using WorkerTask = std::function<void(
        std::size_t index, int worker, measure::Measurement& measurement)>;

    Engine(GaParams params, const isa::InstructionLibrary& lib,
           measure::Measurement& measurement, fitness::Fitness& fitness);

    /**
     * Install a seed population used as generation 0 instead of random
     * individuals (§III.D: saved populations can seed a new search).
     * Must be called before initialize()/run().
     */
    void setSeedPopulation(Population seed);

    /**
     * Install a per-generation observer (the run pipeline, progress
     * logs, replay verification). Any number can stack; they run on
     * the coordinator thread in installation order and must not mutate
     * the GA (they receive const views and the engine never hands them
     * the RNG).
     */
    void addGenerationObserver(GenerationCallback observer);

    /**
     * Attach a Chrome-trace writer (may be null to detach). The engine
     * emits one complete event per generation phase on tid 0 and one
     * per measurement on the worker's tid (worker id + 1); attaching a
     * writer also turns on per-phase timing even when stats are
     * globally disabled. The writer must outlive the engine.
     */
    void setTraceWriter(output::TraceWriter* trace);

    /**
     * Attach an evolution-analytics recorder (may be null to detach;
     * must outlive the engine). The engine then reports every birth —
     * seeds, crossover/mutation children with their mutated gene
     * indices, elite copies — to it; sealing each evaluated generation
     * is the run pipeline's step. Recording never touches the GA RNG:
     * results are bit-identical with the recorder attached or not.
     */
    void setAnalytics(analysis::Recorder* recorder);

    /** Create and evaluate generation 0. */
    void initialize();

    /**
     * Breed and evaluate the next generation.
     * @return false once params.generations have been evaluated.
     */
    bool step();

    /** initialize() + step() until done; @return the final population. */
    const Population& run();

    /**
     * Run task(i, ...) for every i in [0, count) on the evaluation
     * pool, each item on its worker's private measurement clone; with
     * threads=1 (or a single item) serially on the main measurement.
     * Blocks until every item is done and rethrows the first error.
     * Generation evaluation runs through here; the run driver reuses
     * the pool for its post-run seal. Call from the coordinator only,
     * one loop at a time.
     */
    void forEachOnWorkers(std::size_t count, const WorkerTask& task);

    /** The current population. */
    const Population& population() const { return _population; }

    /** The fittest individual seen across all generations. */
    const Individual& bestEver() const;

    /** Per-generation records. */
    const std::vector<GenerationRecord>& history() const
    {
        return _history;
    }

    /** Total measure() invocations so far. */
    std::uint64_t evaluations() const { return _evaluations; }

    /** Lifetime evaluations satisfied by the fitness cache. */
    std::uint64_t cacheHits() const { return _cacheHits; }

    /** Lifetime evaluations that had to run the measurement. */
    std::uint64_t cacheMisses() const { return _cacheMisses; }

    /** The engine's parameters. */
    const GaParams& params() const { return _params; }

    /** Mutable RNG access (tests). */
    Rng& rng() { return _rng; }

  private:
    /** Generate one random individual of the configured size. */
    Individual randomIndividual();

    /** @return true once the stagnation early-stop triggers. */
    bool stagnated() const;

    /** Measure and score one individual with @p measurement. */
    void measureOne(Individual& ind,
                    measure::Measurement& measurement) const;

    /**
     * @return true when the engine should read clocks: stats recording
     * is on or a trace writer is attached.
     */
    bool timed() const;

    /** measureOne plus timing/trace bookkeeping for worker @p worker. */
    void measureOneTimed(Individual& ind,
                         measure::Measurement& measurement, int worker);

    /**
     * Measure the individuals at @p indices through forEachOnWorkers.
     * Results are written back by index, so the outcome is independent
     * of scheduling order for measurements that are pure functions of
     * the code.
     */
    void measureBatch(const std::vector<std::size_t>& indices);

    /** Lazily start the worker pool and per-worker measurement clones. */
    void ensureWorkers();

    /** Evaluate every individual and append the generation record. */
    void evaluatePopulation();

    /** Build the next generation from the current one. */
    Population breed();

    GaParams _params;
    const isa::InstructionLibrary& _lib;
    measure::Measurement& _measurement;
    fitness::Fitness& _fitness;
    Rng _rng;

    Population _population;
    std::optional<Population> _seed;
    std::optional<Individual> _bestEver;
    std::vector<GenerationRecord> _history;
    std::vector<GenerationCallback> _observers;
    std::uint64_t _nextId = 1;
    std::uint64_t _evaluations = 0;
    bool _initialized = false;

    /** Worker pool, started on the first parallel evaluation. */
    std::unique_ptr<util::ThreadPool> _pool;

    /** One private measurement clone per worker. */
    std::vector<std::unique_ptr<measure::Measurement>> _workerMeasurements;

    /** Genome-keyed fitness cache (null when disabled). */
    std::unique_ptr<FitnessCache> _cache;
    std::uint64_t _cacheHits = 0;
    std::uint64_t _cacheMisses = 0;

    /** Chrome-trace sink (null when tracing is off). */
    output::TraceWriter* _trace = nullptr;

    /** Evolution-analytics sink (null when analytics are off). */
    analysis::Recorder* _analytics = nullptr;

    /** Phase timings accumulated by breed(), consumed by the record. */
    struct BreedTiming
    {
        double selectionUs = 0.0;
        double crossoverUs = 0.0;
        double mutationUs = 0.0;
    };
    BreedTiming _breedTiming;

    /**
     * Per-worker busy microseconds within the current generation. Each
     * slot is written only by the worker owning that id (disjoint
     * writes, no atomics needed); the coordinator reads after the
     * parallelFor barrier.
     */
    std::vector<double> _workerBusyUs;

    /**
     * engine.worker.N.busy_us, one per slot of _workerBusyUs, looked up
     * once on the first timed batch.
     */
    std::vector<stats::Counter*> _workerBusyCounters;
};

} // namespace core
} // namespace gest

#endif // GEST_CORE_ENGINE_HH
