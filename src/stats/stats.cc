#include "stats/stats.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <sstream>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "util/strutil.hh"

namespace gest {
namespace stats {

namespace detail {
std::atomic<bool> enabledFlag{false};
} // namespace detail

void
setEnabled(bool on)
{
    detail::enabledFlag.store(on, std::memory_order_relaxed);
}

double
nowUs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
        .count();
}

void
updateProcessGauges()
{
    // Resolved once; the registry guarantees stable references.
    static Gauge& uptime = StatsRegistry::instance().gauge(
        "process.uptime_seconds", "seconds since process start");
    static Gauge& rss = StatsRegistry::instance().gauge(
        "process.rss_bytes", "resident set size in bytes");
    uptime.set(nowUs() / 1e6);

    std::uint64_t rss_bytes = 0;
#if defined(__linux__)
    if (std::FILE* statm = std::fopen("/proc/self/statm", "r")) {
        unsigned long long total_pages = 0, resident_pages = 0;
        if (std::fscanf(statm, "%llu %llu", &total_pages,
                        &resident_pages) == 2)
            rss_bytes = resident_pages *
                        static_cast<std::uint64_t>(
                            sysconf(_SC_PAGESIZE));
        std::fclose(statm);
    }
#endif
    rss.set(static_cast<double>(rss_bytes));
}

namespace {

/** Relaxed CAS update keeping the extremum of @p current and @p v. */
template <typename Cmp>
void
updateExtremum(std::atomic<double>& current, double v, Cmp better)
{
    double seen = current.load(std::memory_order_relaxed);
    while (better(v, seen) &&
           !current.compare_exchange_weak(seen, v,
                                          std::memory_order_relaxed)) {
        // seen reloaded by compare_exchange_weak.
    }
}

std::string
formatValue(double v)
{
    // Integral values print without a decimal tail so metrics.json
    // stays scannable; everything else keeps six significant digits.
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        v > -1e15 && v < 1e15) {
        return std::to_string(static_cast<long long>(v));
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace

Histogram::Histogram(std::string name, std::string desc, double lo,
                     double hi, std::size_t buckets)
    : _name(std::move(name)), _desc(std::move(desc)), _lo(lo), _hi(hi),
      _width((hi - lo) / static_cast<double>(buckets == 0 ? 1 : buckets)),
      _buckets(buckets == 0 ? 1 : buckets)
{
    // Infinity sentinels make the extremum CAS loops initialization
    // free; minSeen()/maxSeen() report 0 while the count is 0.
    _min.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    _max.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

void
Histogram::sample(double v)
{
    if (!enabled())
        return;
    if (v < _lo) {
        _underflow.fetch_add(1, std::memory_order_relaxed);
    } else if (v >= _hi) {
        _overflow.fetch_add(1, std::memory_order_relaxed);
    } else {
        const auto index = static_cast<std::size_t>((v - _lo) / _width);
        _buckets[std::min(index, _buckets.size() - 1)].fetch_add(
            1, std::memory_order_relaxed);
    }
    _count.fetch_add(1, std::memory_order_relaxed);
    _sum.fetch_add(v, std::memory_order_relaxed);
    updateExtremum(_min, v, std::less<double>());
    updateExtremum(_max, v, std::greater<double>());
}

double
Histogram::mean() const
{
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double
Histogram::minSeen() const
{
    return count() == 0 ? 0.0 : _min.load(std::memory_order_relaxed);
}

double
Histogram::maxSeen() const
{
    return count() == 0 ? 0.0 : _max.load(std::memory_order_relaxed);
}

double
Histogram::quantile(double q) const
{
    const std::uint64_t n = count();
    if (n == 0)
        return 0.0;
    q = std::min(std::max(q, 0.0), 1.0);
    const double rank = q * static_cast<double>(n);
    double cumulative =
        static_cast<double>(_underflow.load(std::memory_order_relaxed));
    double result;
    if (rank <= cumulative) {
        // The requested mass sits below the tracked range.
        result = minSeen();
    } else {
        result = maxSeen();  // falls through when mass is in overflow
        for (std::size_t i = 0; i < _buckets.size(); ++i) {
            const double in_bucket = static_cast<double>(
                _buckets[i].load(std::memory_order_relaxed));
            if (in_bucket > 0.0 && rank <= cumulative + in_bucket) {
                result = bucketLo(i) +
                         _width * (rank - cumulative) / in_bucket;
                break;
            }
            cumulative += in_bucket;
        }
    }
    // Concurrent sampling can leave count/buckets momentarily out of
    // step; the observed extremes are always a sane envelope.
    return std::min(std::max(result, minSeen()), maxSeen());
}

void
Histogram::reset()
{
    for (std::atomic<std::uint64_t>& bucket : _buckets)
        bucket.store(0, std::memory_order_relaxed);
    _underflow.store(0, std::memory_order_relaxed);
    _overflow.store(0, std::memory_order_relaxed);
    _count.store(0, std::memory_order_relaxed);
    _sum.store(0.0, std::memory_order_relaxed);
    _min.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    _max.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

StatsRegistry&
StatsRegistry::instance()
{
    static StatsRegistry registry;
    return registry;
}

Counter&
StatsRegistry::counter(const std::string& name, const std::string& desc)
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::unique_ptr<Counter>& slot = _counters[name];
    if (!slot)
        slot.reset(new Counter(name, desc));
    return *slot;
}

Gauge&
StatsRegistry::gauge(const std::string& name, const std::string& desc)
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::unique_ptr<Gauge>& slot = _gauges[name];
    if (!slot)
        slot.reset(new Gauge(name, desc));
    return *slot;
}

Histogram&
StatsRegistry::histogram(const std::string& name, const std::string& desc,
                         double lo, double hi, std::size_t buckets)
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::unique_ptr<Histogram>& slot = _histograms[name];
    if (!slot)
        slot.reset(new Histogram(name, desc, lo, hi, buckets));
    return *slot;
}

void
StatsRegistry::resetValues()
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (const auto& [name, c] : _counters)
        c->reset();
    for (const auto& [name, g] : _gauges)
        g->reset();
    for (const auto& [name, h] : _histograms)
        h->reset();
}

std::vector<std::string>
StatsRegistry::names() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<std::string> out;
    out.reserve(_counters.size() + _gauges.size() + _histograms.size());
    for (const auto& [name, c] : _counters)
        out.push_back(name);
    for (const auto& [name, g] : _gauges)
        out.push_back(name);
    for (const auto& [name, h] : _histograms)
        out.push_back(name);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<const Counter*>
StatsRegistry::counterList() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<const Counter*> out;
    out.reserve(_counters.size());
    for (const auto& [name, c] : _counters)
        out.push_back(c.get());
    return out;
}

std::vector<const Gauge*>
StatsRegistry::gaugeList() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<const Gauge*> out;
    out.reserve(_gauges.size());
    for (const auto& [name, g] : _gauges)
        out.push_back(g.get());
    return out;
}

std::vector<const Histogram*>
StatsRegistry::histogramList() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<const Histogram*> out;
    out.reserve(_histograms.size());
    for (const auto& [name, h] : _histograms)
        out.push_back(h.get());
    return out;
}

std::string
StatsRegistry::jsonDump() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::ostringstream os;
    os << "{\n  \"version\": 1,\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, c] : _counters) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << c->value();
        first = false;
    }
    os << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
    first = true;
    for (const auto& [name, g] : _gauges) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << formatValue(g->value());
        first = false;
    }
    os << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : _histograms) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {\"count\": " << h->count()
           << ", \"sum\": " << formatValue(h->sum())
           << ", \"mean\": " << formatValue(h->mean())
           << ", \"min\": " << formatValue(h->minSeen())
           << ", \"max\": " << formatValue(h->maxSeen())
           << ", \"p50\": " << formatValue(h->quantile(0.50))
           << ", \"p95\": " << formatValue(h->quantile(0.95))
           << ", \"p99\": " << formatValue(h->quantile(0.99))
           << ", \"lo\": " << formatValue(h->lo())
           << ", \"hi\": " << formatValue(h->hi())
           << ", \"underflow\": " << h->underflow()
           << ", \"overflow\": " << h->overflow() << ", \"buckets\": [";
        for (std::size_t i = 0; i < h->numBuckets(); ++i)
            os << (i == 0 ? "" : ", ") << h->bucketCount(i);
        os << "]}";
        first = false;
    }
    os << (first ? "}" : "\n  }") << "\n}\n";
    return os.str();
}

} // namespace stats
} // namespace gest
