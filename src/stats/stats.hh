/**
 * @file
 * Run-wide statistics in the gem5 idiom: a process-wide registry of
 * named counters, gauges and fixed-bucket histograms, plus a scoped
 * timer that feeds histograms.
 *
 * Design constraints, in order:
 *
 *  1. **Zero cost when disabled.** Everything funnels through one
 *     relaxed atomic `enabled` flag; a disabled counter bump is a load
 *     and a predicted branch, and ScopedTimer never reads the clock.
 *     The engine's hot paths stay benchmark-neutral with stats off.
 *  2. **Lock-free when enabled.** Counters and histogram buckets are
 *     relaxed atomics, so evaluation workers record samples
 *     concurrently without serializing on a mutex (the registry mutex
 *     guards only name lookup, which callers do once and cache).
 *  3. **Stable references.** counter()/gauge()/histogram() return
 *     references that live as long as the process, so hot paths hold
 *     the pointer instead of re-hashing the name.
 *
 * End-of-run, the registry renders itself as `metrics.json`
 * (jsonDump), which `gest report` and tools consume; the live
 * `/metrics` endpoint renders the same registry in the Prometheus
 * text format.
 */

#ifndef GEST_STATS_STATS_HH
#define GEST_STATS_STATS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gest {
namespace stats {

namespace detail {
/** The one global switch; read inline on every hot-path bump. */
extern std::atomic<bool> enabledFlag;
} // namespace detail

/** Globally enable or disable all recording (default: disabled). */
void setEnabled(bool on);

/** @return whether stats recording is currently on. */
inline bool
enabled()
{
    return detail::enabledFlag.load(std::memory_order_relaxed);
}

/** Monotonic microseconds since an arbitrary process-wide epoch. */
double nowUs();

/**
 * Refresh the process self-observation gauges:
 * `process.uptime_seconds` (time since the stats clock's epoch, i.e.
 * effectively process start) and `process.rss_bytes` (resident set
 * size from /proc/self/statm; 0 where that file does not exist).
 * Called at scrape time by the /metrics endpoint and before the
 * end-of-run stats dump — the values are sampled, not maintained, so
 * nothing ticks on the hot path.
 */
void updateProcessGauges();

/** A monotonically increasing event count. */
class Counter
{
  public:
    /** Add @p n when stats are enabled. */
    void
    inc(std::uint64_t n = 1)
    {
        if (enabled())
            _value.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    const std::string& name() const { return _name; }
    const std::string& desc() const { return _desc; }

  private:
    friend class StatsRegistry;
    Counter(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {}
    void reset() { _value.store(0, std::memory_order_relaxed); }

    std::string _name;
    std::string _desc;
    std::atomic<std::uint64_t> _value{0};
};

/** A point-in-time value (last write wins). */
class Gauge
{
  public:
    void
    set(double v)
    {
        if (enabled())
            _value.store(v, std::memory_order_relaxed);
    }

    void
    add(double v)
    {
        if (enabled())
            _value.fetch_add(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    const std::string& name() const { return _name; }
    const std::string& desc() const { return _desc; }

  private:
    friend class StatsRegistry;
    Gauge(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {}
    void reset() { _value.store(0.0, std::memory_order_relaxed); }

    std::string _name;
    std::string _desc;
    std::atomic<double> _value{0.0};
};

/**
 * A fixed-bucket linear histogram over [lo, hi) with underflow and
 * overflow buckets, tracking count, sum, min and max. All updates are
 * relaxed atomics; sample() is safe from any thread.
 */
class Histogram
{
  public:
    /** Record @p v when stats are enabled. */
    void sample(double v);

    std::uint64_t
    count() const
    {
        return _count.load(std::memory_order_relaxed);
    }

    double sum() const { return _sum.load(std::memory_order_relaxed); }

    /** Arithmetic mean of the samples, 0 when empty. */
    double mean() const;

    /** Smallest sample seen; 0 when empty. */
    double minSeen() const;

    /** Largest sample seen; 0 when empty. */
    double maxSeen() const;

    /**
     * Quantile @p q in [0, 1] estimated from the bucket counts by
     * linear interpolation within the covering bucket, clamped to the
     * observed [minSeen, maxSeen] range (mass in the underflow or
     * overflow bucket resolves to those extremes); 0 when empty. This
     * is the one implementation behind the `p50/p95/p99` keys in
     * metrics.json and the quantile series of the /metrics Prometheus
     * endpoint.
     */
    double quantile(double q) const;

    double lo() const { return _lo; }
    double hi() const { return _hi; }

    /** Number of regular buckets (underflow/overflow not included). */
    std::size_t numBuckets() const { return _buckets.size(); }

    /** Count in regular bucket @p i. */
    std::uint64_t
    bucketCount(std::size_t i) const
    {
        return _buckets[i].load(std::memory_order_relaxed);
    }

    /** Inclusive lower edge of bucket @p i. */
    double bucketLo(std::size_t i) const { return _lo + _width * i; }

    std::uint64_t
    underflow() const
    {
        return _underflow.load(std::memory_order_relaxed);
    }

    std::uint64_t
    overflow() const
    {
        return _overflow.load(std::memory_order_relaxed);
    }

    const std::string& name() const { return _name; }
    const std::string& desc() const { return _desc; }

  private:
    friend class StatsRegistry;
    Histogram(std::string name, std::string desc, double lo, double hi,
              std::size_t buckets);
    void reset();

    std::string _name;
    std::string _desc;
    double _lo;
    double _hi;
    double _width;
    std::vector<std::atomic<std::uint64_t>> _buckets;
    std::atomic<std::uint64_t> _underflow{0};
    std::atomic<std::uint64_t> _overflow{0};
    std::atomic<std::uint64_t> _count{0};
    std::atomic<double> _sum{0.0};
    std::atomic<double> _min{0.0};
    std::atomic<double> _max{0.0};
};

/**
 * The process-wide registry. Lookup by name creates on first use and
 * returns the same object thereafter; objects are never destroyed, so
 * references stay valid for the process lifetime.
 */
class StatsRegistry
{
  public:
    static StatsRegistry& instance();

    /** Find or create a counter. The description of the creator wins. */
    Counter& counter(const std::string& name,
                     const std::string& desc = "");

    /** Find or create a gauge. */
    Gauge& gauge(const std::string& name, const std::string& desc = "");

    /**
     * Find or create a histogram; the bucket layout of the first
     * creation wins (a later caller with different bounds gets the
     * existing histogram).
     */
    Histogram& histogram(const std::string& name,
                         const std::string& desc, double lo, double hi,
                         std::size_t buckets);

    /** Zero every value; names and layouts survive. */
    void resetValues();

    /** Machine-readable dump (the `metrics.json` artifact). */
    std::string jsonDump() const;

    /** Sorted names of all registered stats (tests, report). */
    std::vector<std::string> names() const;

    /**
     * Pointers to every registered stat of one kind, in registration
     * order. The objects live for the process, so the pointers never
     * dangle; values read off them are as fresh as their relaxed
     * atomics. Used by renderers that need typed access (the /metrics
     * Prometheus endpoint).
     */
    std::vector<const Counter*> counterList() const;
    std::vector<const Gauge*> gaugeList() const;
    std::vector<const Histogram*> histogramList() const;

  private:
    StatsRegistry() = default;

    mutable std::mutex _mutex;
    std::vector<std::unique_ptr<Counter>> _counters;
    std::vector<std::unique_ptr<Gauge>> _gauges;
    std::vector<std::unique_ptr<Histogram>> _histograms;
};

/**
 * Times a scope and feeds the elapsed microseconds into a histogram on
 * destruction. Does not read the clock when stats are disabled (or
 * when constructed with a null histogram).
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram* hist) : _hist(hist)
    {
        if (_hist && enabled()) {
            _running = true;
            _start = nowUs();
        }
    }

    ~ScopedTimer() { stop(); }

    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

    /**
     * Record now instead of at scope exit; @return the elapsed
     * microseconds (0 if the timer never started).
     */
    double
    stop()
    {
        if (!_running)
            return 0.0;
        _running = false;
        const double elapsed = nowUs() - _start;
        _hist->sample(elapsed);
        return elapsed;
    }

  private:
    Histogram* _hist;
    double _start = 0.0;
    bool _running = false;
};

} // namespace stats
} // namespace gest

#endif // GEST_STATS_STATS_HH
