#include "arch/cache.hh"

#include <algorithm>
#include <array>

#include "util/logging.hh"

namespace gest {
namespace arch {

namespace {

int
log2i(int value)
{
    int bits = 0;
    while ((1 << bits) < value)
        ++bits;
    return bits;
}

} // namespace

Cache::Cache(const CacheConfig& cfg) : _cfg(cfg)
{
    if ((cfg.sets & (cfg.sets - 1)) != 0)
        fatal("cache sets must be a power of two, got ", cfg.sets);
    if ((cfg.lineBytes & (cfg.lineBytes - 1)) != 0)
        fatal("cache line size must be a power of two, got ",
              cfg.lineBytes);
    if (cfg.ways > 64)
        fatal("cache associativity above 64 is not supported, got ",
              cfg.ways);
    _lines.resize(static_cast<std::size_t>(cfg.sets) * cfg.ways);
    _fills.resize(static_cast<std::size_t>(cfg.sets));
    _offsetBits = log2i(cfg.lineBytes);
    _indexMask = cfg.sets - 1;
    _tagShift = _offsetBits + log2i(cfg.sets);
}

bool
Cache::access(std::uint64_t address)
{
    ++_accesses;
    ++_useCounter;

    const int set = setOf(address);
    const std::uint64_t tag = address >> _tagShift;

    Line* base = &_lines[static_cast<std::size_t>(set) * _cfg.ways];
    Line* victim = base;
    for (int way = 0; way < _cfg.ways; ++way) {
        Line& line = base[way];
        if (line.valid && line.tag == tag) {
            line.lastUse = _useCounter;
            return true;
        }
        if (!line.valid) {
            victim = &line;
        } else if (victim->valid && line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }

    ++_misses;
    ++_fills[static_cast<std::size_t>(set)];
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = _useCounter;
    return false;
}

bool
Cache::probe(std::uint64_t address) const
{
    const int set = setOf(address);
    const std::uint64_t tag = address >> _tagShift;
    const Line* base = &_lines[static_cast<std::size_t>(set) * _cfg.ways];
    for (int way = 0; way < _cfg.ways; ++way) {
        if (base[way].valid && base[way].tag == tag)
            return true;
    }
    return false;
}

void
Cache::reset()
{
    for (Line& line : _lines)
        line = Line{};
    std::fill(_fills.begin(), _fills.end(), 0);
    _accesses = 0;
    _misses = 0;
    _useCounter = 0;
}

void
Cache::appendCanonicalState(std::vector<std::uint64_t>& out) const
{
    // Valid lines always carry distinct lastUse values (every access
    // stamps exactly one line with a fresh clock tick), so sorting by
    // lastUse gives a unique recency order per set.
    std::array<const Line*, 64> order;
    for (int set = 0; set < _cfg.sets; ++set) {
        const Line* base =
            &_lines[static_cast<std::size_t>(set) * _cfg.ways];
        int valid = 0;
        for (int way = 0; way < _cfg.ways; ++way) {
            if (base[way].valid)
                order[static_cast<std::size_t>(valid++)] = &base[way];
        }
        std::sort(order.begin(), order.begin() + valid,
                  [](const Line* a, const Line* b) {
                      return a->lastUse < b->lastUse;
                  });
        out.push_back(static_cast<std::uint64_t>(_cfg.ways - valid));
        for (int i = 0; i < valid; ++i)
            out.push_back(order[static_cast<std::size_t>(i)]->tag);
    }
}

double
Cache::hitRate() const
{
    if (_accesses == 0)
        return 1.0;
    return 1.0 - static_cast<double>(_misses) /
                     static_cast<double>(_accesses);
}

} // namespace arch
} // namespace gest
