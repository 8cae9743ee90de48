/**
 * @file
 * Per-cycle activity records produced by the simulator.
 *
 * The power model consumes this trace; the PDN model consumes the current
 * trace the power model derives from it. Keeping the record compact
 * matters: a GA run evaluates thousands of individuals, each over
 * thousands of cycles.
 */

#ifndef GEST_ARCH_TRACE_HH
#define GEST_ARCH_TRACE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/instr_class.hh"
#include "util/tiling.hh"

namespace gest {
namespace arch {

/**
 * Per-cycle trace rows stored per run are capped at this many cycles;
 * beyond it the simulator keeps counting into the aggregate counters
 * but stops recording rows. Tiled-trace consumers clip the virtual
 * trace to the same bound so the fast path sees exactly what a full
 * simulation would have stored.
 */
constexpr std::size_t maxTraceCycles = 1u << 20;

/**
 * Activity observed in a single cycle. The widest field comes first so
 * that the byte fields pack behind it without padding.
 */
struct CycleStats
{
    /** Result-bit toggles (Hamming distance) of all ops issued. */
    std::uint32_t toggleBits = 0;

    /** Micro-ops issued this cycle, by instruction class. */
    std::array<std::uint8_t, isa::numInstrClasses> issued{};

    /** Scheduler-window occupancy at the start of the cycle. */
    std::uint8_t windowOccupancy = 0;

    /** Instructions fetched/decoded this cycle. */
    std::uint8_t fetched = 0;

    /** L1 data-cache misses initiated this cycle. */
    std::uint8_t cacheMisses = 0;

    /** L2 misses (DRAM accesses) initiated this cycle. */
    std::uint8_t l2Misses = 0;

    /** 1 if a branch mispredict was charged this cycle. */
    std::uint8_t mispredicts = 0;

    /** Total micro-ops issued this cycle. */
    int
    totalIssued() const
    {
        int total = 0;
        for (std::uint8_t count : issued)
            total += count;
        return total;
    }
};

/** Result of simulating a loop body for some number of iterations. */
struct SimResult
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t iterations = 0;

    /** Committed-instruction IPC over the measured (post-warmup) region. */
    double ipc = 0.0;

    /**
     * Per-cycle activity, warmup excluded, one row per measured cycle
     * (clipped at maxTraceCycles), whether or not the steady-state
     * fast path skipped the cycle. When the fast path found the data
     * recurring along with the timing, every row repeats, and this
     * stores only the layout described by `tiling`
     * ([prefix | period | tail]); `cycles` and the aggregate counters
     * always describe the full virtual run.
     */
    std::vector<CycleStats> trace;

    /** Mapping from `trace` rows onto the virtual per-cycle trace. */
    util::TraceTiling tiling;

    /**
     * Measured cycles the timing simulator accounted for one by one,
     * whether it stepped them or skipped them as idle. Equal to
     * `cycles` when no period was found; on a steady hit, smaller by
     * the skipped periods, whose counters were tiled from the verified
     * period and whose toggles came from it too or, when the data did
     * not recur, from a functional-only pass.
     */
    std::uint64_t simulatedCycles = 0;

    /**
     * The part of `simulatedCycles` that was skipped rather than
     * stepped: idle cycles (nothing fetched, nothing issued) jumped
     * over to the next cycle at which anything can change.
     */
    std::uint64_t skippedCycles = 0;

    /** True when the steady-state detector cut the run short. */
    bool steadyHit() const { return simulatedCycles < cycles; }

    /** Issue counts per class over the measured region. */
    std::array<std::uint64_t, isa::numInstrClasses> classCounts{};

    std::uint64_t cacheAccesses = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t mispredicts = 0;

    /** Sum of toggle bits over the measured region. */
    std::uint64_t totalToggleBits = 0;

    /** Average scheduler occupancy per cycle. */
    double avgWindowOccupancy = 0.0;

    /** L1 hit rate over the measured region. */
    double
    l1HitRate() const
    {
        if (cacheAccesses == 0)
            return 1.0;
        return 1.0 - static_cast<double>(cacheMisses) /
                         static_cast<double>(cacheAccesses);
    }

    /** L2 hit rate over the measured region (1.0 with no L2 traffic). */
    double
    l2HitRate() const
    {
        if (l2Accesses == 0)
            return 1.0;
        return 1.0 - static_cast<double>(l2Misses) /
                         static_cast<double>(l2Accesses);
    }

    /** DRAM accesses (L2 misses) per thousand instructions. */
    double
    dramPerKiloInstr() const
    {
        if (instructions == 0)
            return 0.0;
        return 1000.0 * static_cast<double>(l2Misses) /
               static_cast<double>(instructions);
    }
};

} // namespace arch
} // namespace gest

#endif // GEST_ARCH_TRACE_HH
