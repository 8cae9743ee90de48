#include "core/engine.hh"

#include <algorithm>
#include <unordered_map>

#include "analysis/recorder.hh"
#include "output/trace_writer.hh"
#include "stats/stats.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace core {

namespace {

/**
 * Engine-wide stat handles, resolved once: hot paths hold references
 * instead of re-hashing names in the registry per sample.
 */
struct EngineStats
{
    stats::Counter& generations;
    stats::Counter& evaluations;
    stats::Counter& cacheHits;
    stats::Counter& cacheMisses;
    stats::Histogram& evalUs;
    stats::Histogram& cacheHitUs;
    stats::Histogram& cacheMissUs;
    stats::Histogram& selectionUs;
    stats::Histogram& crossoverUs;
    stats::Histogram& mutationUs;
    stats::Histogram& generationEvalUs;
};

EngineStats&
engineStats()
{
    static EngineStats s{
        stats::StatsRegistry::instance().counter(
            "engine.generations", "generations evaluated"),
        stats::StatsRegistry::instance().counter(
            "engine.evaluations", "measurements performed"),
        stats::StatsRegistry::instance().counter(
            "engine.cache.hits", "evaluations satisfied by the cache"),
        stats::StatsRegistry::instance().counter(
            "engine.cache.misses", "evaluations that ran the measurement"),
        stats::StatsRegistry::instance().histogram(
            "engine.eval_us", "one measurement + fitness scoring (us)",
            0.0, 20000.0, 40),
        stats::StatsRegistry::instance().histogram(
            "engine.cache.hit_us", "fitness-cache hit latency (us)", 0.0,
            50.0, 25),
        stats::StatsRegistry::instance().histogram(
            "engine.cache.miss_us", "fitness-cache miss latency (us)",
            0.0, 50.0, 25),
        stats::StatsRegistry::instance().histogram(
            "engine.selection_us", "parent selection per generation (us)",
            0.0, 20000.0, 40),
        stats::StatsRegistry::instance().histogram(
            "engine.crossover_us", "crossover per generation (us)", 0.0,
            20000.0, 40),
        stats::StatsRegistry::instance().histogram(
            "engine.mutation_us", "mutation per generation (us)", 0.0,
            20000.0, 40),
        stats::StatsRegistry::instance().histogram(
            "engine.generation_eval_us",
            "whole-population evaluation per generation (us)", 0.0,
            2000000.0, 40),
    };
    return s;
}

} // namespace

Engine::Engine(GaParams params, const isa::InstructionLibrary& lib,
               measure::Measurement& measurement,
               fitness::Fitness& fitness)
    : _params(params), _lib(lib), _measurement(measurement),
      _fitness(fitness), _rng(params.seed)
{
    _params.validate();
    if (lib.numInstructions() == 0)
        fatal("the GA needs a non-empty instruction library");
    if (_params.fitnessCacheSize > 0)
        _cache = std::make_unique<FitnessCache>(
            static_cast<std::size_t>(_params.fitnessCacheSize));
}

void
Engine::setSeedPopulation(Population seed)
{
    if (_initialized)
        fatal("seed population must be installed before initialize()");
    if (seed.individuals.empty())
        fatal("seed population is empty");
    for (const Individual& ind : seed.individuals) {
        if (static_cast<int>(ind.code.size()) != _params.individualSize)
            fatal("seed individual ", ind.id, " has ", ind.code.size(),
                  " instructions but the configuration asks for ",
                  _params.individualSize);
        for (const isa::InstructionInstance& inst : ind.code) {
            if (!_lib.valid(inst))
                fatal("seed individual ", ind.id,
                      " contains an instruction encoding that is invalid "
                      "for the current library");
        }
    }
    _seed = std::move(seed);
}

void
Engine::addGenerationObserver(GenerationCallback observer)
{
    if (observer)
        _observers.push_back(std::move(observer));
}

void
Engine::setTraceWriter(output::TraceWriter* trace)
{
    _trace = trace;
    if (_trace)
        _trace->setThreadName(0, util::ThreadPool::workerName(-1));
}

void
Engine::setAnalytics(analysis::Recorder* recorder)
{
    _analytics = recorder;
}

bool
Engine::timed() const
{
    return stats::enabled() || _trace != nullptr;
}

Individual
Engine::randomIndividual()
{
    Individual ind;
    ind.id = _nextId++;
    ind.code.reserve(static_cast<std::size_t>(_params.individualSize));
    for (int i = 0; i < _params.individualSize; ++i)
        ind.code.push_back(_lib.randomInstance(_rng));
    return ind;
}

void
Engine::measureOne(Individual& ind,
                   measure::Measurement& measurement) const
{
    // Never touches the GA RNG or any engine state, so workers can run
    // it concurrently against their private measurement clones.
    ind.measurements = measurement.measure(ind.code).values;
    ind.fitness = _fitness.getFitness(ind, _lib);
    ind.evaluated = true;
}

void
Engine::measureOneTimed(Individual& ind,
                        measure::Measurement& measurement, int worker)
{
    const double start = stats::nowUs();
    measureOne(ind, measurement);
    const double elapsed = stats::nowUs() - start;
    engineStats().evalUs.sample(elapsed);
    // Disjoint per-worker slots: each is touched only by the thread
    // owning that worker id (slot 0 doubles as the serial path's).
    _workerBusyUs[static_cast<std::size_t>(std::max(worker, 0))] +=
        elapsed;
    if (_trace) {
        // Serial measurements run on the coordinator (tid 0); pool
        // workers occupy tids 1..N.
        const int tid = util::ThreadPool::currentWorkerId() + 1;
        _trace->completeEvent("evaluate", "eval", tid, start, elapsed,
                              {{"individual",
                                static_cast<double>(ind.id)}});
    }
}

void
Engine::ensureWorkers()
{
    if (_pool)
        return;
    const int workers = _params.threads;
    _workerMeasurements.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
        std::unique_ptr<measure::Measurement> clone =
            _measurement.clone();
        if (!clone)
            fatal("measurement '", _measurement.name(),
                  "' does not implement clone() and cannot be shared "
                  "across evaluation workers; set threads=1");
        _workerMeasurements.push_back(std::move(clone));
    }
    _pool = std::make_unique<util::ThreadPool>(workers);
    debug("evaluation pool started with ", workers, " workers");
    if (_trace) {
        for (int w = 0; w < workers; ++w)
            _trace->setThreadName(w + 1, util::ThreadPool::workerName(w));
    }
}

void
Engine::forEachOnWorkers(std::size_t count, const WorkerTask& task)
{
    if (count == 0)
        return;
    if (_params.threads <= 1 || count == 1) {
        for (std::size_t i = 0; i < count; ++i)
            task(i, 0, _measurement);
        return;
    }
    ensureWorkers();
    _pool->parallelFor(count, [&](std::size_t i, int worker) {
        task(i, worker,
             *_workerMeasurements[static_cast<std::size_t>(worker)]);
    });
}

void
Engine::measureBatch(const std::vector<std::size_t>& indices)
{
    if (indices.empty())
        return;
    const bool record = timed();
    if (record)
        _workerBusyUs.assign(
            static_cast<std::size_t>(std::max(_params.threads, 1)), 0.0);
    std::vector<Individual>& inds = _population.individuals;
    forEachOnWorkers(
        indices.size(),
        [&](std::size_t k, int worker, measure::Measurement& measurement) {
            if (record)
                measureOneTimed(inds[indices[k]], measurement, worker);
            else
                measureOne(inds[indices[k]], measurement);
        });
    _evaluations += indices.size();
    engineStats().evaluations.inc(indices.size());
    if (record) {
        // Publish per-worker busy time so pool utilization/imbalance is
        // visible in metrics.json.
        for (std::size_t w = _workerBusyCounters.size();
             w < _workerBusyUs.size(); ++w)
            _workerBusyCounters.push_back(
                &stats::StatsRegistry::instance().counter(
                    "engine.worker." + std::to_string(w) + ".busy_us",
                    "evaluation busy time of this worker (us)"));
        for (std::size_t w = 0; w < _workerBusyUs.size(); ++w)
            _workerBusyCounters[w]->inc(
                static_cast<std::uint64_t>(_workerBusyUs[w]));
    }
}

void
Engine::evaluatePopulation()
{
    std::vector<Individual>& inds = _population.individuals;
    const bool record = timed();
    const double evalStart = record ? stats::nowUs() : 0.0;

    // Resolve cache hits and fold in-generation duplicate genomes onto
    // one representative each, so nothing redundant reaches the
    // simulator. Duplicate groups only form when the cache is enabled:
    // with it off, the engine measures exactly what the serial seed
    // code measured.
    std::uint64_t hits = 0;
    std::vector<std::size_t> toMeasure;
    std::vector<std::vector<std::size_t>> duplicates;
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < inds.size(); ++i) {
        Individual& ind = inds[i];
        if (ind.evaluated)
            continue;
        if (!_cache) {
            toMeasure.push_back(i);
            continue;
        }
        const FitnessCache::Entry* entry;
        if (record) {
            const double lookupStart = stats::nowUs();
            entry = _cache->lookup(ind.code);
            const double lookupUs = stats::nowUs() - lookupStart;
            (entry ? engineStats().cacheHitUs
                   : engineStats().cacheMissUs)
                .sample(lookupUs);
        } else {
            entry = _cache->lookup(ind.code);
        }
        if (entry) {
            ind.measurements = entry->measurements;
            ind.fitness = entry->fitness;
            ind.evaluated = true;
            ++hits;
            continue;
        }
        std::vector<std::size_t>& slots = groups[genomeHash(ind.code)];
        bool merged = false;
        for (std::size_t slot : slots) {
            if (inds[toMeasure[slot]].code == ind.code) {
                duplicates[slot].push_back(i);
                merged = true;
                ++hits;
                break;
            }
        }
        if (merged)
            continue;
        slots.push_back(toMeasure.size());
        toMeasure.push_back(i);
        duplicates.emplace_back();
    }

    measureBatch(toMeasure);

    // Back on the coordinating thread: publish representatives to the
    // cache and copy them onto their duplicates, in index order so the
    // outcome never depends on worker scheduling.
    if (_cache) {
        for (std::size_t slot = 0; slot < toMeasure.size(); ++slot) {
            const Individual& rep = inds[toMeasure[slot]];
            _cache->insert(rep.code,
                           {rep.measurements, rep.fitness});
            for (std::size_t i : duplicates[slot]) {
                inds[i].measurements = rep.measurements;
                inds[i].fitness = rep.fitness;
                inds[i].evaluated = true;
            }
        }
    }
    _cacheHits += hits;
    _cacheMisses += toMeasure.size();
    engineStats().cacheHits.inc(hits);
    engineStats().cacheMisses.inc(toMeasure.size());
    engineStats().generations.inc();

    const Individual& best = _population.best();
    // Copy into _bestEver only on strict improvement: with elitism the
    // champion reappears every generation and the copy would be a
    // full-genome allocation per generation.
    if (!_bestEver || best.fitness > _bestEver->fitness)
        _bestEver = best;

    GenerationRecord generationRecord =
        summarizeGeneration(_lib, _population);
    generationRecord.cacheHits = hits;
    generationRecord.cacheMisses = toMeasure.size();
    if (record) {
        const double evalUs = stats::nowUs() - evalStart;
        engineStats().generationEvalUs.sample(evalUs);
        engineStats().selectionUs.sample(_breedTiming.selectionUs);
        engineStats().crossoverUs.sample(_breedTiming.crossoverUs);
        engineStats().mutationUs.sample(_breedTiming.mutationUs);
        generationRecord.selectionMs = _breedTiming.selectionUs / 1000.0;
        generationRecord.crossoverMs = _breedTiming.crossoverUs / 1000.0;
        generationRecord.mutationMs = _breedTiming.mutationUs / 1000.0;
        generationRecord.evaluationMs = evalUs / 1000.0;
        _breedTiming = {};
        if (_trace) {
            _trace->completeEvent(
                "evaluate population", "phase", 0, evalStart, evalUs,
                {{"generation",
                  static_cast<double>(_population.generation)},
                 {"measured", static_cast<double>(toMeasure.size())},
                 {"cache_hits", static_cast<double>(hits)}});
        }
        debug("generation ", _population.generation, ": best ",
              best.fitness, ", ", toMeasure.size(), " measured, ", hits,
              " cache hits, evaluation ",
              formatFixed(generationRecord.evaluationMs, 2), " ms");
    }
    _history.push_back(generationRecord);

    for (const GenerationCallback& observer : _observers)
        observer(_population, generationRecord);
}

void
Engine::initialize()
{
    if (_initialized)
        fatal("engine initialized twice");
    _initialized = true;

    _population = Population{};
    _population.generation = 0;
    if (_seed) {
        _population.individuals = _seed->individuals;
        // Re-number so new children continue above the seeds.
        for (Individual& ind : _population.individuals) {
            if (ind.id >= _nextId)
                _nextId = ind.id + 1;
        }
        // Top up or trim to the configured population size.
        while (static_cast<int>(_population.individuals.size()) <
               _params.populationSize)
            _population.individuals.push_back(randomIndividual());
        if (static_cast<int>(_population.individuals.size()) >
            _params.populationSize)
            _population.individuals.resize(
                static_cast<std::size_t>(_params.populationSize));
    } else {
        _population.individuals.reserve(
            static_cast<std::size_t>(_params.populationSize));
        for (int i = 0; i < _params.populationSize; ++i)
            _population.individuals.push_back(randomIndividual());
    }
    if (_analytics) {
        // Individuals carried over from a seed file keep their original
        // ids and parents, which may predate this run's ledger — they
        // are recorded as "resumed"; random top-ups past the seed-file
        // count are ordinary seeds.
        const std::size_t carried =
            _seed ? std::min(_seed->individuals.size(),
                             _population.individuals.size())
                  : 0;
        for (std::size_t i = 0; i < _population.individuals.size(); ++i)
            _analytics->recordSeed(0, _population.individuals[i],
                                   i < carried);
    }
    evaluatePopulation();
}

Population
Engine::breed()
{
    const bool record = timed();
    const double breedStart = record ? stats::nowUs() : 0.0;
    _breedTiming = {};

    Population next;
    next.generation = _population.generation + 1;
    next.individuals.reserve(
        static_cast<std::size_t>(_params.populationSize));

    if (_params.elitism) {
        // The elite keeps its id, measurements and fitness: it is the
        // same individual, not a copy to re-measure.
        next.individuals.push_back(_population.best());
        if (_analytics)
            _analytics->recordEliteCopy(next.generation,
                                        next.individuals.back());
    }

    std::vector<std::uint32_t> mutated1, mutated2;
    while (static_cast<int>(next.individuals.size()) <
           _params.populationSize) {
        const double mark0 = record ? stats::nowUs() : 0.0;
        const Individual& p1 =
            _population.individuals[selectParent(_population, _params,
                                                 _rng)];
        const Individual& p2 =
            _population.individuals[selectParent(_population, _params,
                                                 _rng)];
        const double mark1 = record ? stats::nowUs() : 0.0;
        auto [c1, c2] = crossover(p1, p2, _params, _rng);
        const double mark2 = record ? stats::nowUs() : 0.0;
        if (_analytics) {
            mutated1.clear();
            mutated2.clear();
        }
        mutate(c1, _lib, _params, _rng,
               _analytics ? &mutated1 : nullptr);
        mutate(c2, _lib, _params, _rng,
               _analytics ? &mutated2 : nullptr);
        if (record) {
            const double mark3 = stats::nowUs();
            _breedTiming.selectionUs += mark1 - mark0;
            _breedTiming.crossoverUs += mark2 - mark1;
            _breedTiming.mutationUs += mark3 - mark2;
        }
        c1.id = _nextId++;
        c2.id = _nextId++;
        if (_analytics)
            _analytics->recordChild(next.generation, c1, mutated1);
        next.individuals.push_back(std::move(c1));
        if (static_cast<int>(next.individuals.size()) <
            _params.populationSize) {
            if (_analytics)
                _analytics->recordChild(next.generation, c2, mutated2);
            next.individuals.push_back(std::move(c2));
        }
    }
    if (_trace) {
        _trace->completeEvent(
            "breed", "phase", 0, breedStart,
            stats::nowUs() - breedStart,
            {{"generation", static_cast<double>(next.generation)}});
    }
    return next;
}

bool
Engine::step()
{
    if (!_initialized)
        fatal("step() before initialize()");
    if (_population.generation + 1 >= _params.generations)
        return false;
    if (stagnated())
        return false;
    _population = breed();
    evaluatePopulation();
    if (_population.generation + 1 >= _params.generations)
        return false;
    return !stagnated();
}

bool
Engine::stagnated() const
{
    const int limit = _params.stagnationLimit;
    if (limit <= 0 ||
        static_cast<int>(_history.size()) <= limit)
        return false;
    const double now = _history.back().bestFitness;
    const double then =
        _history[_history.size() - 1 - static_cast<std::size_t>(limit)]
            .bestFitness;
    return now <= then;
}

const Population&
Engine::run()
{
    if (!_initialized)
        initialize();
    while (step()) {
        // Work happens in step().
    }
    return _population;
}

const Individual&
Engine::bestEver() const
{
    if (!_bestEver)
        panic("bestEver() before any evaluation");
    return *_bestEver;
}

} // namespace core
} // namespace gest
