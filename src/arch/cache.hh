/**
 * @file
 * A small set-associative L1 data cache with LRU replacement.
 *
 * The generated viruses are expected to be L1-resident (the paper observes
 * "extremely high L1 hit rates" for power viruses), but the cache is
 * modelled fully so stride-heavy operand definitions can be used to build
 * cache-miss stressors (the LLC/DRAM extension §VII sketches).
 */

#ifndef GEST_ARCH_CACHE_HH
#define GEST_ARCH_CACHE_HH

#include <cstdint>
#include <vector>

#include "arch/cpu_config.hh"

namespace gest {
namespace arch {

/** Set-associative data cache with true-LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheConfig& cfg);

    /**
     * Access the line containing @p address.
     * @return true on hit; on miss the line is filled.
     */
    bool access(std::uint64_t address);

    /**
     * Check whether @p address would hit, without touching cache state
     * or counters (used for MSHR admission before committing an
     * access).
     */
    bool probe(std::uint64_t address) const;

    /** The set that holds the line containing @p address. */
    int setOf(std::uint64_t address) const
    {
        return static_cast<int>(address >> _offsetBits) & _indexMask;
    }

    /**
     * Lines filled into @p set so far: its misses. A line absent from
     * the cache stays absent while this count does not change.
     */
    std::uint32_t fills(int set) const
    {
        return _fills[static_cast<std::size_t>(set)];
    }

    /**
     * Return to the exact as-constructed state: all lines invalid,
     * counters, fill counts and the internal LRU clock zeroed. Lets a
     * scratch arena reuse one Cache across evaluations with behavior
     * identical to a freshly constructed instance.
     */
    void reset();

    /**
     * Append a canonical description of the replacement-relevant state
     * to @p out: per set, the number of invalid ways followed by the
     * valid tags in least-recently-used-first order. Two caches with
     * equal canonical state behave identically on every future access
     * sequence (which way holds which tag and the absolute LRU clock
     * values do not matter, only the per-set recency ordering).
     */
    void appendCanonicalState(std::vector<std::uint64_t>& out) const;

    /** Accesses observed so far. */
    std::uint64_t accesses() const { return _accesses; }

    /** Misses observed so far. */
    std::uint64_t misses() const { return _misses; }

    /** Hit ratio over all accesses (1.0 when no accesses yet). */
    double hitRate() const;

    /** Geometry this cache was built with. */
    const CacheConfig& config() const { return _cfg; }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    CacheConfig _cfg;
    std::vector<Line> _lines;      ///< sets * ways, row-major by set
    std::vector<std::uint32_t> _fills; ///< misses per set
    std::uint64_t _accesses = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _useCounter = 0;
    int _offsetBits = 0;
    int _indexMask = 0;
    int _tagShift = 0;             ///< offset plus index bits
};

} // namespace arch
} // namespace gest

#endif // GEST_ARCH_CACHE_HH
