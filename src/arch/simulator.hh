/**
 * @file
 * The loop simulator: a generic superscalar timing model with functional
 * execution for switching-activity estimation.
 *
 * This is the substitute for the paper's real silicon. One model covers
 * both in-order (Cortex-A7) and out-of-order (Cortex-A15, X-Gene2,
 * Athlon II) cores through the CpuConfig parameters:
 *
 *  - Fetch: up to fetchWidth micro-ops per cycle enter a scheduler window,
 *    stalling on taken-branch redirects.
 *  - Issue: up to issueWidth ready micro-ops per cycle, oldest first,
 *    in one loop for both kinds of core. An in-order core stops at the
 *    first micro-op that cannot issue; an out-of-order core skips it.
 *    A 64-bit mask of the registers whose results are still in flight,
 *    refreshed only when the earliest of them becomes ready, lets the
 *    loop skip a micro-op with a pending source with one AND against
 *    the source mask the slot carries from fetch. A micro-op whose
 *    unit type, or whose miss's MSHRs, were all found busy fails with
 *    one compare against a busy-until cycle, and a slot remembers that
 *    its line was in neither cache level until a fill into the line's
 *    L2 set could have changed that.
 *  - Functional units: pipelined units accept one op per cycle per unit;
 *    unpipelined units (dividers) stay busy for the full latency.
 *  - Memory: addresses are computed from register values; an L1 cache
 *    model decides hit/miss latency.
 *  - Functional execution: register and memory values are computed so the
 *    power model can see data-dependent bit switching (the reason the
 *    paper initializes registers with checkerboard patterns).
 *
 * Functional execution happens in program order at fetch time, so
 * register values, memory contents and access addresses are always
 * sequentially consistent regardless of the issue schedule; timing
 * happens at issue.
 *
 * Known simplifications (documented in docs/models.md):
 * conditional-branch mispredictions are charged as fetch-stall penalties
 * without squashing, there is no store-to-load forwarding latency model
 * or prefetcher, and FP values are executed with integer-proxy semantics
 * (sufficient for toggle estimation, not for numerics).
 */

#ifndef GEST_ARCH_SIMULATOR_HH
#define GEST_ARCH_SIMULATOR_HH

#include <array>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "arch/cache.hh"
#include "arch/cpu_config.hh"
#include "arch/fu.hh"
#include "arch/microop.hh"
#include "arch/trace.hh"

namespace gest {

namespace signal {
class SignalProbe;
} // namespace signal

namespace arch {

/** Initial state of the architectural registers and memory. */
struct InitState
{
    /** Value loaded into every integer compute register. */
    std::uint64_t intPattern = 0xaaaaaaaaaaaaaaaaULL;

    /** Value loaded into every vector register lane. */
    std::uint64_t vecPattern = 0xaaaaaaaaaaaaaaaaULL;

    /** Byte pattern the data buffer is filled with. */
    std::uint8_t memPattern = 0x5a;

    /** Size of the data buffer the base register points into. */
    std::uint32_t bufferBytes = 4096;

    /** Integer register holding the buffer base address. */
    int baseRegister = 10;
};

/**
 * One scheduler-window entry: a fetched micro-op with its architectural
 * effects (address, datapath toggles) precomputed in program order, its
 * position in the fetched stream, and its source registers as a mask
 * over the unified register space.
 */
struct WindowSlot
{
    const MicroOp* mo;
    std::uint64_t address;
    /** The micro-op's index in the fetched stream (fetch_seq). */
    std::uint64_t seq;
    std::uint32_t toggles;
    /**
     * The L2 fill count of the address's set plus one when its line
     * was last seen in neither cache level (0 before that). While it
     * still matches, the line is still absent and needs no probe.
     */
    std::uint32_t absentStamp;
    std::uint64_t srcMask;
};
static_assert(sizeof(WindowSlot) == 40);

/** Per-run options for the simulator. */
struct RunOptions
{
    /**
     * Try to detect exact recurrence of the timing state (window,
     * ready and free-at times, caches, branch phase and the address
     * registers' values) at loop-iteration boundaries. On a hit, tile
     * the timing counters over the skipped periods and resume timing
     * for the tail. When the data recurred too, the toggles tile like
     * the rest and the trace keeps the tiled layout of SimResult::
     * tiling; otherwise the skipped micro-ops execute functionally for
     * their toggles and every row is stored. Every result field but
     * simulatedCycles, skippedCycles and the tiling, every expanded
     * trace row included, is bit-identical to the full simulation.
     * Bodies whose address registers can take a data value are always
     * simulated in full.
     */
    bool steadyState = true;
};

/**
 * Reusable storage for one simulation worker. Holding one SimScratch
 * per evaluation thread makes the GA hot loop allocation-free after
 * warm-up: memory image, cache models, scheduler window and the
 * steady-state detector's boundary records all keep their capacity
 * across runs. Contents are unspecified between runs.
 */
struct SimScratch
{
    /**
     * An allocator that default-initializes, so that growing the data
     * buffer writes none of it.
     */
    template <typename T>
    struct UninitializedAllocator : std::allocator<T>
    {
        UninitializedAllocator() = default;
        template <typename U>
        UninitializedAllocator(const UninitializedAllocator<U>&) noexcept
        {}
        template <typename U>
        struct rebind
        {
            using other = UninitializedAllocator<U>;
        };
        template <typename U, typename... Args>
        void
        construct(U* at, Args&&... args)
        {
            if constexpr (sizeof...(Args) == 0)
                ::new (static_cast<void*>(at)) U;
            else
                ::new (static_cast<void*>(at))
                    U(std::forward<Args>(args)...);
        }
    };

    /**
     * The data buffer, filled with the memory pattern one chunk at a
     * time, at a run's first access to the chunk: chunkRun holds the
     * run that last filled each chunk, memoryRun the current run. A
     * run therefore writes, and a new worker faults in, only the
     * memory its body reaches.
     */
    std::vector<std::uint8_t, UninitializedAllocator<std::uint8_t>> memory;
    std::vector<std::uint32_t> chunkRun;
    std::uint32_t memoryRun = 0;

    std::optional<Cache> l1;
    std::optional<Cache> l2;
    std::vector<std::uint64_t> mshrFreeAt;
    std::array<std::vector<std::uint64_t>, numFuTypes> fuFreeAt;
    std::vector<WindowSlot> window;

    /**
     * One sampled loop-iteration boundary of the steady detector:
     * just the stage-1 trigger digest and the iteration index.
     */
    struct Sample
    {
        std::uint64_t digest = 0;
        std::uint64_t iter = 0;
    };
    std::vector<Sample> samples;

    /**
     * Counter snapshot at the detector's armed anchor boundary, for
     * exact per-period delta extraction once the recurrence is
     * verified.
     */
    struct Boundary
    {
        std::uint64_t cycle = 0;
        std::uint64_t fetchSeq = 0;
        std::uint64_t digest = 0;
        std::uint64_t measuredIssued = 0;
        std::uint64_t windowOccSum = 0;
        std::uint64_t toggleBits = 0;
        std::uint64_t mispredicts = 0;
        std::uint64_t cacheAccesses = 0;
        std::uint64_t cacheMisses = 0;
        std::uint64_t l2Accesses = 0;
        std::uint64_t l2Misses = 0;
        std::array<std::uint64_t, isa::numInstrClasses> classCounts{};
    };

    /**
     * Exact timing state (relative timestamps, scheduler window,
     * address registers, cache recency orders) captured when the
     * detector arms an anchor, plus the buffer each boundary's state
     * is serialized into. The caches, the expensive part, are
     * serialized only at the budgeted arm and verify events, never
     * per boundary.
     */
    std::vector<std::uint64_t> anchorState;
    std::vector<std::uint64_t> stateTmp;

    /** The window slots' toggles at the armed anchor. */
    std::vector<std::uint32_t> anchorToggles;

    /**
     * One micro-op issued since the armed anchor: its issue cycle and
     * its fetch_seq, both relative to the anchor's.
     */
    struct Issue
    {
        std::uint64_t cycle = 0;
        std::int64_t seq = 0;
    };
    /** The issues of the anchor's period, logged while it is armed. */
    std::vector<Issue> issueLog;

    /**
     * On a hit, the anchor-relative issue cycle of each fetch_seq
     * residue modulo the period, and the toggles handed to the window
     * slots when the timing loop resumes.
     */
    std::vector<std::int64_t> issueAt;
    std::vector<std::uint32_t> residentToggles;
};

/**
 * Simulates a loop body on one core configuration.
 */
class LoopSimulator
{
  public:
    LoopSimulator(const CpuConfig& cfg, const InitState& init);

    /**
     * Simulate @p body executed for @p iterations iterations (plus the
     * loop-closing backward branch each iteration, which the template
     * provides on real hardware). Always a full simulation: the trace
     * stores every measured cycle.
     *
     * @param body decoded loop body; must not be empty
     * @param iterations loop iterations to run
     * @param warmup_iterations iterations excluded from the trace/stats
     */
    SimResult run(const std::vector<MicroOp>& body,
                  std::uint64_t iterations,
                  std::uint64_t warmup_iterations = 2);

    /**
     * Simulate enough iterations that the measured region covers at least
     * @p min_cycles cycles (bounded by @p max_instructions). Always a
     * full simulation; the steady-state fast path is reached through
     * runForCyclesInto().
     */
    SimResult runForCycles(const std::vector<MicroOp>& body,
                           std::uint64_t min_cycles,
                           std::uint64_t max_instructions = 2'000'000);

    /**
     * runForCycles() into caller-owned storage: @p out is reset but
     * keeps its trace capacity, and all working state lives in
     * @p scratch, so repeated evaluations allocate nothing after
     * warm-up. With options.steadyState the periodic-recurrence
     * detector may skip whole periods of the timing simulation; the
     * result is bit-identical to the full run except for
     * out.simulatedCycles and out.skippedCycles, and except that
     * out.trace stores only the tiled layout described by out.tiling
     * when the data recurred along with the timing.
     */
    void runForCyclesInto(const std::vector<MicroOp>& body,
                          std::uint64_t min_cycles,
                          std::uint64_t max_instructions,
                          const RunOptions& options, SimScratch& scratch,
                          SimResult& out);

    /** The configuration in use. */
    const CpuConfig& config() const { return _cfg; }

  private:
    CpuConfig _cfg;
    InitState _init;
};

/**
 * Expand a tiled trace in place to the full per-cycle trace (clipped at
 * maxTraceCycles, exactly like a full simulation would have stored it).
 * No-op on untiled results. Used before attaching a SignalProbe so
 * capture sees the same rows as a full simulation.
 */
void materializeTrace(SimResult& sim);

/**
 * Record the timing-simulator signals of a finished run into @p probe:
 * the `interval_ipc` waveform (instructions fetched per cycle,
 * averaged over probe.config().ipcIntervalCycles-cycle intervals —
 * what `perf stat -I` shows on real hardware) and one event mark per
 * cycle with L1-miss, L2-miss or mispredict activity, on the core
 * clock time base at @p freq_ghz.
 */
void captureActivitySignals(const SimResult& sim, double freq_ghz,
                            signal::SignalProbe& probe);

} // namespace arch
} // namespace gest

#endif // GEST_ARCH_SIMULATOR_HH
