#include "arch/simulator.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>

#include "signal/signal_probe.hh"
#include "util/logging.hh"

namespace gest {
namespace arch {

using isa::InstrClass;
using isa::Opcode;

namespace {

/** The implicit loop-closing backward branch the template provides. */
MicroOp
loopBranchOp()
{
    MicroOp mo;
    mo.op = Opcode::BranchCond;
    mo.cls = InstrClass::Branch;
    mo.isBranch = true;
    return mo;
}

/** Hamming distance between old and new values. */
inline std::uint32_t
toggles(std::uint64_t before, std::uint64_t after)
{
    return static_cast<std::uint32_t>(std::popcount(before ^ after));
}

/** Finalizing 64-bit mixer (splitmix64). */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Fold @p words into a 64-bit digest. Four independent lanes keep the
 * loop throughput-bound instead of serialized on multiply latency.
 */
std::uint64_t
digestOf(const std::vector<std::uint64_t>& words)
{
    std::uint64_t lanes[4] = {0x6a09e667f3bcc909ULL, 0xbb67ae8584caa73bULL,
                              0x3c6ef372fe94f82bULL, 0xa54ff53a5f1d36f1ULL};
    static constexpr std::uint64_t mul[4] = {
        0x9ddfea08eb382d69ULL, 0xff51afd7ed558ccdULL,
        0xc4ceb9fe1a85ec53ULL, 0x2545f4914f6cdd1dULL};
    for (std::size_t i = 0; i < words.size(); ++i)
        lanes[i & 3] = (lanes[i & 3] ^ words[i]) * mul[i & 3];
    return mix64(mix64(lanes[0] ^ lanes[1]) ^ mix64(lanes[2] ^ lanes[3]));
}

/** Floor division by a positive divisor. */
inline std::int64_t
floorDiv(std::int64_t a, std::int64_t b)
{
    return a >= 0 ? a / b : -((b - 1 - a) / b);
}

/**
 * The registers load and store addresses are read from, as a mask over
 * the unified register space, or nullopt when a data value can reach
 * one of them: a load writes one, or an op writes one from a register
 * outside the mask. Otherwise their values evolve from their own
 * values and immediates alone, so timing never depends on data.
 */
std::optional<std::uint64_t>
addressRegisters(const std::vector<MicroOp>& body)
{
    std::uint64_t mask = 0;
    for (const MicroOp& mo : body)
        if (mo.isLoad || mo.isStore)
            mask |= std::uint64_t{1} << mo.src[mo.numSrc - 1];
    for (const MicroOp& mo : body) {
        for (int d = 0; d < mo.numDst; ++d) {
            if (!(mask >> mo.dst[d] & 1))
                continue;
            if (mo.isLoad)
                return std::nullopt;
            for (int i = 0; i < mo.numSrc; ++i)
                if (!(mask >> mo.src[i] & 1))
                    return std::nullopt;
        }
    }
    return mask;
}

/** Cache geometry equality, for scratch reuse across evaluations. */
bool
sameGeometry(const CacheConfig& a, const CacheConfig& b)
{
    return a.sets == b.sets && a.ways == b.ways &&
           a.lineBytes == b.lineBytes && a.hitLatency == b.hitLatency &&
           a.missLatency == b.missLatency;
}

} // namespace

/**
 * All mutable execution state for one run. The heavy storage (memory
 * image, caches, scheduler window, detector records) lives in the
 * caller's SimScratch so repeated runs are allocation-free; RunState
 * itself only holds the register files and bookkeeping.
 */
class RunState
{
  public:
    RunState(const CpuConfig& cfg, const InitState& init,
             SimScratch& scratch)
        : _cfg(cfg), _init(init), _scratch(scratch)
    {
        _chunkShift = std::countr_zero(
            std::min<std::uint32_t>(init.bufferBytes, 4096));
        if (scratch.memory.size() != init.bufferBytes) {
            scratch.memory.resize(init.bufferBytes);
            scratch.chunkRun.assign(init.bufferBytes >> _chunkShift, 0);
            scratch.memoryRun = 0;
        }
        if (++scratch.memoryRun == 0) {
            // Wrapped: make every chunk stale again.
            std::fill(scratch.chunkRun.begin(), scratch.chunkRun.end(), 0);
            scratch.memoryRun = 1;
        }
        if (!scratch.l1 || !sameGeometry(scratch.l1->config(), cfg.l1d))
            scratch.l1.emplace(cfg.l1d);
        else
            scratch.l1->reset();
        _cache = &*scratch.l1;
        if (cfg.hasL2) {
            if (!scratch.l2 ||
                !sameGeometry(scratch.l2->config(), cfg.l2))
                scratch.l2.emplace(cfg.l2);
            else
                scratch.l2->reset();
            _l2 = &*scratch.l2;
            // lineAbsent() needs every L1 line inside one L2 line.
            if (cfg.l2.lineBytes < cfg.l1d.lineBytes)
                fatal("cpu '", cfg.name,
                      "': L2 lines must not be smaller than L1 lines");
            scratch.mshrFreeAt.assign(
                static_cast<std::size_t>(std::max(1, cfg.mshrs)), 0);
        } else {
            _l2 = nullptr;
            scratch.mshrFreeAt.clear();
        }
        for (int reg = 0; reg < numUnifiedRegs; ++reg)
            _regs[static_cast<std::size_t>(reg)] =
                isVecReg(reg)
                    ? std::array{init.vecPattern, init.vecPattern}
                    : std::array{init.intPattern, std::uint64_t{0}};
        // The base register holds a virtual buffer address. Any aligned
        // value works; what matters is that address arithmetic lands in
        // the modelled buffer.
        _regs[static_cast<std::size_t>(init.baseRegister)][0] = bufferBase;
        for (std::uint64_t& ready : _regReadyAt)
            ready = 0;
        for (int fu = 0; fu < numFuTypes; ++fu)
            scratch.fuFreeAt[static_cast<std::size_t>(fu)].assign(
                std::max(0, cfg.fuCount[static_cast<std::size_t>(fu)]),
                0);
    }

    void
    run(const std::vector<MicroOp>& body, std::uint64_t iterations,
        std::uint64_t warmup_iterations, const RunOptions& options,
        SimResult& result)
    {
        if (body.empty())
            fatal("cannot simulate an empty loop body");
        if (warmup_iterations >= iterations)
            warmup_iterations = iterations > 1 ? iterations - 1 : 0;

        const MicroOp loop_branch = loopBranchOp();
        const std::size_t ops_per_iter = body.size() + 1;
        std::uint64_t total_ops = ops_per_iter * iterations;
        const std::uint64_t warmup_ops = ops_per_iter * warmup_iterations;

        // Reset the result but keep the trace's capacity (scratch use).
        {
            std::vector<CycleStats> trace = std::move(result.trace);
            trace.clear();
            result = SimResult{};
            result.trace = std::move(trace);
        }
        result.iterations = iterations;
        result.trace.reserve(4096);

        std::uint64_t fetch_seq = 0;
        // fetch_seq's position in the body and its iteration, kept by
        // wrapping counters rather than a division per micro-op.
        std::size_t fetch_pos = 0;
        std::uint64_t fetch_iter = 0;
        std::uint64_t issued_total = 0;
        std::uint64_t cycle = 0;
        std::uint64_t fetch_resume_at = 0;
        std::uint64_t measure_start_cycle = 0;
        std::uint64_t window_occ_sum = 0;
        std::uint64_t measured_issued = 0;
        bool measuring = warmup_ops == 0;
        int cond_branch_count = 0;

        std::vector<WindowSlot>& window = _scratch.window;
        window.clear();
        window.reserve(static_cast<std::size_t>(_cfg.windowSize));

        // Steady-state periodicity detection: sample the timing state
        // once per loop iteration; a recurrence means the timing of
        // the rest of the run is an exact repetition. It is keyed on
        // the address registers' values, so only bodies whose
        // addresses never depend on data take part.
        const std::optional<std::uint64_t> address_regs =
            addressRegisters(body);
        _addressRegs = address_regs.value_or(0);
        bool sampling = options.steadyState && address_regs &&
                        iterations > warmup_iterations + 1;
        std::uint64_t last_sampled_iter = 0;
        // Samples carry only a 16-byte trigger digest, so the pool
        // can afford to cover long warm-ups and periods.
        static constexpr std::size_t maxSamples = 512;
        _scratch.samples.clear();

        // The verified period's first and last boundary, how many
        // times it repeats unstepped, and whether its rows repeat too.
        SimScratch::Boundary period_start, period_end;
        std::uint64_t tile_extra = 0;
        bool rows_tiled = false;

        // Forward-progress bound: DRAM-bound loops with a single MSHR
        // can legitimately take ~missLatency cycles per memory op.
        const std::uint64_t cycle_limit = total_ops * 1024 + 8192;

        while (issued_total < total_ops) {
            if (cycle > cycle_limit)
                panic("simulator made no forward progress (cpu '",
                      _cfg.name, "')");

            // Measurement starts at the first cycle boundary after all
            // warmup iterations have issued.
            if (!measuring && issued_total >= warmup_ops) {
                measuring = true;
                measure_start_cycle = cycle;
            }

            if (sampling && measuring && fetch_iter > last_sampled_iter) {
                last_sampled_iter = fetch_iter;
                const SimScratch::Boundary* match = recordBoundary(
                    window, cycle, fetch_seq, fetch_pos,
                    fetch_resume_at, cond_branch_count, measured_issued,
                    window_occ_sum, result, fetch_iter, maxSamples);
                const bool data_recurred = match && dataRecurred(window);
                if (match && !data_recurred && !_timingVerified &&
                    total_ops - fetch_seq >=
                        3 * (fetch_seq - match->fetchSeq)) {
                    // Data that alternate between values recur over a
                    // multiple of the timing period: keep the anchor
                    // armed and look once more, one period on, while a
                    // double period still fits the horizon.
                    _timingVerified = true;
                } else if (match) {
                    const std::uint64_t df = fetch_seq - match->fetchSeq;
                    const std::uint64_t n_extra =
                        (total_ops - fetch_seq) / df;
                    // When the data recurred along with the timing, every
                    // row repeats: keep the stored rows as the tiled
                    // layout, unless the trace cap clipped them.
                    // Otherwise every micro-op of the verified period
                    // issued in it exactly once, one per fetch_seq
                    // residue, and skipPeriods() derives the rows.
                    rows_tiled = n_extra >= 1 && data_recurred &&
                                 result.trace.size() ==
                                     cycle - measure_start_cycle;
                    if (rows_tiled ||
                        (n_extra >= 1 && _scratch.issueLog.size() == df)) {
                        period_start = *match;
                        period_end = counters(cycle, fetch_seq,
                                              measured_issued,
                                              window_occ_sum, result);
                        tile_extra = n_extra;
                        if (rows_tiled) {
                            result.tiling.prefix =
                                match->cycle - measure_start_cycle;
                            result.tiling.period = cycle - match->cycle;
                            result.tiling.repeats = n_extra + 1;
                        } else {
                            skipPeriods(body, loop_branch, window,
                                        period_start, cycle, fetch_seq,
                                        fetch_pos, n_extra,
                                        measure_start_cycle, result);
                        }
                        // Drop the skipped iterations; the loop
                        // continues from the recurring timing state,
                        // whose data the functional pass has advanced,
                        // and simulates the final partial period plus
                        // the window drain exactly as the full run's
                        // tail.
                        total_ops -= n_extra * df;
                        // The horizon can land exactly on this
                        // boundary with the window already drained;
                        // the full run's loop exits before stepping
                        // that cycle, so exit before recording it.
                        if (issued_total >= total_ops)
                            break;
                    }
                    sampling = false;
                }
                if (_samplingExhausted)
                    sampling = false;
                if (!sampling)
                    _anchorArmed = false;
            }

            CycleStats stats;
            stats.windowOccupancy =
                static_cast<std::uint8_t>(std::min<std::size_t>(
                    window.size(), 255));
            if (measuring)
                window_occ_sum += window.size();

            // ---- Fetch ----
            if (cycle >= fetch_resume_at) {
                int fetched = 0;
                while (fetched < _cfg.fetchWidth &&
                       window.size() <
                           static_cast<std::size_t>(_cfg.windowSize) &&
                       fetch_seq < total_ops) {
                    const bool is_loop_branch = fetch_pos == body.size();
                    const MicroOp* mo =
                        is_loop_branch ? &loop_branch : &body[fetch_pos];
                    // Functional execution happens here, in program
                    // order, so register values, memory contents and
                    // therefore addresses are sequentially consistent
                    // regardless of the out-of-order issue schedule.
                    window.push_back(executeAtFetch(*mo, fetch_seq));
                    ++fetch_seq;
                    if (++fetch_pos == ops_per_iter) {
                        fetch_pos = 0;
                        ++fetch_iter;
                    }
                    ++fetched;
                    if (mo->isBranch) {
                        // Taken branches redirect fetch. The loop branch
                        // and unconditional forward branches are
                        // predicted; conditional branches may
                        // deterministically mispredict.
                        std::uint64_t bubble =
                            static_cast<std::uint64_t>(
                                _cfg.takenBranchBubble);
                        if (!is_loop_branch &&
                            mo->op == Opcode::BranchCond &&
                            _cfg.mispredictEveryN > 0) {
                            if (++cond_branch_count >=
                                _cfg.mispredictEveryN) {
                                cond_branch_count = 0;
                                bubble = static_cast<std::uint64_t>(
                                    _cfg.mispredictPenalty);
                                ++stats.mispredicts;
                            }
                        }
                        // bubble == 0 models branch folding: the BTAC
                        // redirects fetch within the same cycle and the
                        // fetch group continues (Cortex-A7 style).
                        if (bubble > 0) {
                            fetch_resume_at = cycle + 1 + bubble;
                            break;
                        }
                    }
                }
                stats.fetched = static_cast<std::uint8_t>(fetched);
            }

            // ---- Issue ----
            // Oldest first, one loop for both kinds of core. A slot
            // with a source in _notReady is passed over with one AND;
            // the others ask tryIssue. An in-order core stops at the
            // first slot that does not issue. Each failed tryIssue
            // lowers wake_at to the first cycle at which that slot
            // could try again; the cap keeps the forward-progress panic
            // at the same cycle.
            if (cycle >= _notReadyUntil)
                refreshNotReady(cycle);
            std::uint64_t wake_at = cycle_limit + 1;
            int issued_this_cycle = 0;
            std::size_t kept = 0;
            std::size_t next = 0;
            while (next < window.size() &&
                   issued_this_cycle < _cfg.issueWidth) {
                WindowSlot& slot = window[next++];
                if (!(slot.srcMask & _notReady)) {
                    const std::uint64_t retry_at =
                        tryIssue(slot, cycle, stats);
                    if (retry_at == 0) {
                        ++issued_this_cycle;
                        ++issued_total;
                        if (_anchorArmed)
                            _scratch.issueLog.push_back(
                                {cycle - _anchor.cycle,
                                 static_cast<std::int64_t>(
                                     slot.seq - _anchor.fetchSeq)});
                        continue;
                    }
                    wake_at = std::min(wake_at, retry_at);
                }
                window[kept++] = slot;
                if (!_cfg.outOfOrder)
                    break;
            }
            window.erase(
                window.begin() + static_cast<std::ptrdiff_t>(kept),
                window.begin() + static_cast<std::ptrdiff_t>(next));

            // ---- Record ----
            if (measuring) {
                if (result.trace.size() < maxTraceCycles)
                    result.trace.push_back(stats);
                for (int cls = 0; cls < isa::numInstrClasses; ++cls)
                    result.classCounts[static_cast<std::size_t>(cls)] +=
                        stats.issued[static_cast<std::size_t>(cls)];
                result.totalToggleBits += stats.toggleBits;
                result.mispredicts += stats.mispredicts;
                measured_issued +=
                    static_cast<std::uint64_t>(stats.totalIssued());
            }

            // ---- Skip idle cycles ----
            // A cycle that fetched and issued nothing changed no
            // timestamp and no cache state, so every cycle up to the
            // first one at which a blocked slot or fetch can proceed
            // repeats it exactly: same occupancy, all counts zero.
            // Jump there, recording those cycles as they would have
            // been stepped. Measurement start and steady-state sampling
            // only move on a fetch or an issue, so they are unaffected.
            // The slots the issue loop passed over for a source wake at
            // that source's ready cycle; they are only read here, on an
            // idle cycle, where the loop saw every slot of an
            // out-of-order window and only the head of an in-order one.
            ++cycle;
            if (stats.fetched == 0 && issued_this_cycle == 0) {
                const std::size_t seen =
                    _cfg.outOfOrder ? window.size()
                                    : std::min<std::size_t>(1,
                                                            window.size());
                for (std::size_t i = 0; i < seen; ++i)
                    if (window[i].srcMask & _notReady)
                        wake_at =
                            std::min(wake_at, blockedUntil(window[i]));
                if (fetch_resume_at >= cycle)
                    wake_at = std::min(wake_at, fetch_resume_at);
                if (wake_at > cycle && measuring) {
                    const std::uint64_t idle = wake_at - cycle;
                    const std::size_t room =
                        maxTraceCycles -
                        std::min(result.trace.size(), maxTraceCycles);
                    result.trace.insert(
                        result.trace.end(),
                        static_cast<std::size_t>(
                            std::min<std::uint64_t>(idle, room)),
                        stats);
                    window_occ_sum += idle * window.size();
                    result.skippedCycles += idle;
                }
                cycle = std::max(cycle, wake_at);
            }
        }

        const std::uint64_t simulated_cycles =
            cycle - measure_start_cycle;
        result.simulatedCycles =
            simulated_cycles > 0 ? simulated_cycles : 1;

        // Tile the timing counters out to the full horizon: every
        // skipped period contributes precisely the verified period's
        // delta. Unless the rows are tiled, skipPeriods() already added
        // the skipped toggles.
        using Boundary = SimScratch::Boundary;
        auto tiled = [&](std::uint64_t Boundary::*counter) {
            return tile_extra *
                   (period_end.*counter - period_start.*counter);
        };
        const std::uint64_t virtual_cycles =
            simulated_cycles + tiled(&Boundary::cycle);
        measured_issued += tiled(&Boundary::measuredIssued);
        window_occ_sum += tiled(&Boundary::windowOccSum);
        result.mispredicts += tiled(&Boundary::mispredicts);
        for (std::size_t cls = 0; cls < result.classCounts.size(); ++cls)
            result.classCounts[cls] +=
                tile_extra * (period_end.classCounts[cls] -
                              period_start.classCounts[cls]);
        if (rows_tiled) {
            result.totalToggleBits += tiled(&Boundary::toggleBits);
            result.tiling.tail =
                result.trace.size() -
                (result.tiling.prefix + result.tiling.period);
        } else {
            result.tiling = util::TraceTiling::untiled(result.trace.size());
        }

        result.cycles = virtual_cycles > 0 ? virtual_cycles : 1;
        // Exactly what the measured cycles issued: trace, class counts
        // and instruction count always agree.
        result.instructions = measured_issued;
        result.ipc = static_cast<double>(result.instructions) /
                     static_cast<double>(result.cycles);
        // Cache counters cover the whole run including warmup, like a
        // real hardware event counter read around the binary execution.
        result.cacheAccesses =
            _cache->accesses() + tiled(&Boundary::cacheAccesses);
        result.cacheMisses = _cache->misses() + tiled(&Boundary::cacheMisses);
        result.l2Accesses =
            (_l2 ? _l2->accesses() : 0) + tiled(&Boundary::l2Accesses);
        result.l2Misses =
            (_l2 ? _l2->misses() : 0) + tiled(&Boundary::l2Misses);
        result.avgWindowOccupancy =
            static_cast<double>(window_occ_sum) /
            static_cast<double>(result.cycles);
    }

  private:
    static constexpr std::uint64_t bufferBase = 0x10000;

    const CpuConfig& _cfg;
    const InitState& _init;
    SimScratch& _scratch;
    Cache* _cache = nullptr;
    Cache* _l2 = nullptr;
    /** The address registers keying the steady detector. */
    std::uint64_t _addressRegs = 0;
    /**
     * The data at the armed anchor: the registers, and whether a store
     * has changed memory since.
     */
    std::array<std::array<std::uint64_t, 2>, numUnifiedRegs> _anchorRegs{};
    bool _memoryChanged = false;
    /** The timing recurred once over the armed anchor, the data not. */
    bool _timingVerified = false;
    /** log2 of the data buffer's chunk size. */
    int _chunkShift = 0;

    // Armed-anchor state of the steady detector's stage-2 verifier.
    bool _anchorArmed = false;
    std::uint64_t _anchorIter = 0;
    std::uint64_t _anchorDeadlineIter = 0;
    SimScratch::Boundary _anchor;
    std::uint32_t _anchorFails = 0;
    std::uint64_t _anchorSkip = 0;
    /**
     * Per-run budget of full cache-state serializations. Capturing
     * the caches is the expensive part of the detector (every set
     * reduced to recency order); a clean detection needs exactly two
     * captures (arm + verify), so a small budget caps the cost on
     * hostile bodies whose cheap state keeps recurring while their
     * caches never settle, or whose anchors keep expiring.
     */
    std::uint32_t _cacheCaptureBudget = 10;
    bool _samplingExhausted = false;

    /**
     * The unified register file: both lanes of each vector register,
     * and in lane 0 the value of each integer register.
     */
    std::array<std::array<std::uint64_t, 2>, numUnifiedRegs> _regs{};
    std::array<std::uint64_t, numUnifiedRegs> _regReadyAt{};

    /**
     * The unified registers whose _regReadyAt is after the current
     * cycle, one bit each, and a lower bound on the earliest of those
     * ready cycles. Exact once refreshNotReady() has run at a cycle
     * before _notReadyUntil; tryIssue() keeps it so as it sets ready
     * cycles.
     */
    std::uint64_t _notReady = 0;
    std::uint64_t _notReadyUntil = ~std::uint64_t{0};
    static_assert(numUnifiedRegs <= 64);

    /**
     * Busy-until gates: when a search found every unit of a type, or
     * every MSHR, busy at some cycle, the earliest of their free
     * cycles; 0 until then. A free-at time changes only when an op
     * takes a unit or MSHR free at the current cycle, so none does
     * before the gate, and until then every op that asks fails with
     * the same earliest free cycle.
     */
    std::array<std::uint64_t, numFuTypes> _fuBusyUntil{};
    std::uint64_t _mshrBusyUntil = 0;

    /** Drop the registers ready by @p cycle from _notReady. */
    void
    refreshNotReady(std::uint64_t cycle)
    {
        std::uint64_t until = ~std::uint64_t{0};
        for (std::uint64_t bits = _notReady; bits != 0;
             bits &= bits - 1) {
            const int reg = std::countr_zero(bits);
            const std::uint64_t ready =
                _regReadyAt[static_cast<std::size_t>(reg)];
            if (ready <= cycle)
                _notReady &= ~(std::uint64_t{1} << reg);
            else
                until = std::min(until, ready);
        }
        _notReadyUntil = until;
    }

    /**
     * The ready cycle of @p slot's first source in _notReady, before
     * which @p slot cannot issue whatever else happens.
     */
    std::uint64_t
    blockedUntil(const WindowSlot& slot) const
    {
        const MicroOp& mo = *slot.mo;
        for (int i = 0; i < mo.numSrc; ++i)
            if (_notReady >> mo.src[i] & 1)
                return _regReadyAt[static_cast<std::size_t>(mo.src[i])];
        return ~std::uint64_t{0};
    }

    /**
     * Serialize the timing state: the body phase, timestamps relative
     * to the current cycle (only the differences drive future
     * behavior), the branch-mispredict phase, the values of the
     * address registers and the scheduler window. Each window slot
     * gives its address and its distance behind fetch_seq, which with
     * the phase fixes its micro-op. Register values other than the
     * address registers, memory contents and toggles are left out:
     * they never reach timing (see addressRegisters()).
     */
    void
    appendTimingState(const std::vector<WindowSlot>& window,
                      std::uint64_t cycle, std::uint64_t fetch_seq,
                      std::size_t fetch_pos, std::uint64_t fetch_resume_at,
                      int cond_branch_count,
                      std::vector<std::uint64_t>& out) const
    {
        auto rel = [cycle](std::uint64_t at) {
            return at > cycle ? at - cycle : 0;
        };
        out.push_back(fetch_pos);
        out.push_back(rel(fetch_resume_at));
        out.push_back(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(cond_branch_count)));
        for (std::uint64_t regs = _addressRegs; regs != 0;
             regs &= regs - 1)
            out.push_back(readLane(std::countr_zero(regs), 0));
        for (std::uint64_t at : _regReadyAt)
            out.push_back(rel(at));
        for (const auto& units : _scratch.fuFreeAt)
            for (std::uint64_t at : units)
                out.push_back(rel(at));
        for (std::uint64_t at : _scratch.mshrFreeAt)
            out.push_back(rel(at));
        out.push_back(window.size());
        for (const WindowSlot& slot : window) {
            out.push_back(fetch_seq - slot.seq);
            out.push_back(slot.address);
        }
    }

    /** Append both caches' state reduced to per-set recency order. */
    void
    appendCacheState(std::vector<std::uint64_t>& out) const
    {
        _cache->appendCanonicalState(out);
        if (_l2)
            _l2->appendCanonicalState(out);
    }

    /**
     * Whether the data recurred along with the timing state since the
     * armed anchor: the registers are as they were, no store changed
     * memory, and the window's slots carry the anchor's toggles. The
     * rest of the run then repeats its toggles period by period too.
     */
    bool
    dataRecurred(const std::vector<WindowSlot>& window) const
    {
        if (_memoryChanged || _regs != _anchorRegs ||
            window.size() != _scratch.anchorToggles.size())
            return false;
        for (std::size_t j = 0; j < window.size(); ++j)
            if (window[j].toggles != _scratch.anchorToggles[j])
                return false;
        return true;
    }

    /** The run counters at a boundary, its digest left at 0. */
    SimScratch::Boundary
    counters(std::uint64_t cycle, std::uint64_t fetch_seq,
             std::uint64_t measured_issued, std::uint64_t window_occ_sum,
             const SimResult& result) const
    {
        SimScratch::Boundary b;
        b.cycle = cycle;
        b.fetchSeq = fetch_seq;
        b.measuredIssued = measured_issued;
        b.windowOccSum = window_occ_sum;
        b.toggleBits = result.totalToggleBits;
        b.mispredicts = result.mispredicts;
        b.cacheAccesses = _cache->accesses();
        b.cacheMisses = _cache->misses();
        b.l2Accesses = _l2 ? _l2->accesses() : 0;
        b.l2Misses = _l2 ? _l2->misses() : 0;
        b.classCounts = result.classCounts;
        return b;
    }

    /**
     * Sample one loop-iteration boundary for the steady-state
     * detector.
     *
     * Stage 1 serializes the timing state without the caches
     * (appendTimingState) and digests it into a trigger. Nothing is
     * stored or compared word-for-word per boundary; the digest only
     * decides when the expensive exact comparison is worth attempting.
     *
     * Stage 2 runs only when a digest repeats. The first repetition
     * arms an anchor: the exact state, the cache state included, is
     * captured at that boundary together with a snapshot of the run
     * counters, and every issue from then on is logged. When the same
     * digest comes around again the candidate's exact state is
     * captured and compared against the anchor's; equality proves the
     * timing state recurred over [anchor, here], and the anchor's
     * counter snapshots give the exact per-period deltas. A failed
     * comparison (digest collision, or caches still settling under a
     * long-period strided walk) re-arms the anchor at the candidate
     * with exponential backoff; a per-run capture budget bounds the
     * total cost, and an anchor that never fires expires after twice
     * its arming gap so sampling can continue.
     *
     * @return the anchored boundary whose timing state the current one
     *         is proven to repeat, or nullptr.
     */
    const SimScratch::Boundary*
    recordBoundary(const std::vector<WindowSlot>& window,
                   std::uint64_t cycle, std::uint64_t fetch_seq,
                   std::size_t fetch_pos, std::uint64_t fetch_resume_at,
                   int cond_branch_count, std::uint64_t measured_issued,
                   std::uint64_t window_occ_sum, const SimResult& result,
                   std::uint64_t iter, std::size_t max_samples)
    {
        std::vector<std::uint64_t>& state = _scratch.stateTmp;
        state.clear();
        appendTimingState(window, cycle, fetch_seq, fetch_pos,
                          fetch_resume_at, cond_branch_count, state);
        const std::uint64_t digest = digestOf(state);

        // Snapshot the counters, capture the exact state and start
        // logging issues at an anchor armed here.
        auto arm = [&] {
            _anchor = counters(cycle, fetch_seq, measured_issued,
                               window_occ_sum, result);
            _anchor.digest = digest;
            _anchorIter = iter;
            _anchorArmed = true;
            _scratch.anchorState.swap(state);
            _scratch.issueLog.clear();
            _anchorRegs = _regs;
            _memoryChanged = false;
            _scratch.anchorToggles.clear();
            for (const WindowSlot& slot : window)
                _scratch.anchorToggles.push_back(slot.toggles);
        };

        if (_anchorArmed && iter > _anchorDeadlineIter)
            _anchorArmed = false;

        if (_anchorArmed && digest == _anchor.digest) {
            if (_anchorSkip > 0) {
                // Backing off after failed verifications; let this
                // recurrence pass without serializing anything.
                --_anchorSkip;
                return nullptr;
            }
            if (_cacheCaptureBudget == 0) {
                _anchorArmed = false;
                _samplingExhausted = true;
                return nullptr;
            }
            --_cacheCaptureBudget;
            // Stage 2: the trigger digest recurred at the anchor's
            // period; exact-state equality proves a timing recurrence
            // over [anchor, here].
            appendCacheState(state);
            if (state == _scratch.anchorState)
                return &_anchor;
            // Digest collision, or caches still settling under a
            // walk that can take the whole run to come back around:
            // re-anchor here and skip a doubling number of
            // recurrences before verifying again; the capture budget
            // bounds the total cost.
            ++_anchorFails;
            const std::uint64_t gap = iter - _anchorIter;
            arm();
            _anchorSkip = (std::uint64_t{1} << _anchorFails) - 1;
            _anchorDeadlineIter =
                iter + 2 * gap * (_anchorSkip + 1) + 8;
            return nullptr;
        }

        for (const SimScratch::Sample& s : _scratch.samples) {
            if (s.digest != digest)
                continue;
            if (_anchorArmed) // busy verifying another candidate
                return nullptr;
            if (_cacheCaptureBudget == 0) {
                _samplingExhausted = true;
                return nullptr;
            }
            --_cacheCaptureBudget;
            // First digest repetition: arm the anchor by capturing
            // the exact state at this boundary.
            appendCacheState(state);
            arm();
            _anchorFails = 0;
            _anchorSkip = 0;
            _anchorDeadlineIter = iter + 2 * (iter - s.iter) + 8;
            return nullptr;
        }

        if (_scratch.samples.size() < max_samples) {
            _scratch.samples.push_back({digest, iter});
        } else if (!_anchorArmed) {
            // With the sample pool full and no anchor in flight, a
            // new period can no longer be discovered.
            _samplingExhausted = true;
        }
        return nullptr;
    }

    /**
     * Account for @p periods repetitions of the verified period
     * [@p b1, now) without stepping them, so that the timing loop can
     * resume at the current state with the data of @p periods periods
     * later. The rows of the skipped cycles repeat the period's with
     * their toggles cleared. The skipped micro-ops, fetch_seq to
     * fetch_seq + periods * df, execute in program order without a
     * window; each adds its toggles to the total and to the row of the
     * cycle it issues in. The recurrence shifts a
     * micro-op's issue cycle by dc whenever its fetch_seq moves by df,
     * so that cycle comes from the period's issue log. The micro-ops
     * that issue after the skipped cycles are exactly the window's
     * slots shifted by whole periods; those slots take their toggles.
     */
    void
    skipPeriods(const std::vector<MicroOp>& body, const MicroOp& loop_branch,
                std::vector<WindowSlot>& window,
                const SimScratch::Boundary& b1, std::uint64_t cycle,
                std::uint64_t fetch_seq, std::size_t fetch_pos,
                std::uint64_t periods, std::uint64_t measure_start,
                SimResult& result)
    {
        const std::uint64_t dc = cycle - b1.cycle;
        const std::uint64_t df = fetch_seq - b1.fetchSeq;
        const std::uint64_t end = cycle + periods * dc;

        // Unless clipped, the rows run up to the current cycle and hold
        // the whole period.
        std::vector<CycleStats>& rows = result.trace;
        const std::size_t wanted = static_cast<std::size_t>(
            std::min<std::uint64_t>(end - measure_start, maxTraceCycles));
        rows.reserve(wanted);
        while (rows.size() < wanted) {
            CycleStats row = rows[rows.size() - dc];
            row.toggleBits = 0;
            rows.push_back(row);
        }
        std::uint64_t skipped_toggles = 0;
        auto issue = [&](std::uint64_t at, std::uint32_t toggles) {
            skipped_toggles += toggles;
            const std::uint64_t row = at - measure_start;
            if (row < rows.size())
                rows[static_cast<std::size_t>(row)].toggleBits += toggles;
        };

        // A micro-op whose fetch_seq is b1.fetchSeq + q + m * df, with
        // q in [0, df), issues at b1.cycle + issue_at[q] + m * dc.
        const auto sdf = static_cast<std::int64_t>(df);
        const auto sdc = static_cast<std::int64_t>(dc);
        std::vector<std::int64_t>& issue_at = _scratch.issueAt;
        issue_at.assign(df, 0);
        for (const SimScratch::Issue& logged : _scratch.issueLog) {
            const std::int64_t m = floorDiv(logged.seq, sdf);
            issue_at[static_cast<std::size_t>(logged.seq - m * sdf)] =
                static_cast<std::int64_t>(logged.cycle) - m * sdc;
        }

        // The window's micro-ops all issue at or after this cycle.
        std::vector<std::uint32_t>& resident = _scratch.residentToggles;
        resident.assign(window.size(), 0);
        std::size_t next_resident = window.size();
        for (std::size_t j = 0; j < window.size(); ++j) {
            const WindowSlot& slot = window[j];
            const auto d = static_cast<std::int64_t>(slot.seq - b1.fetchSeq);
            const std::int64_t m = floorDiv(d, sdf);
            const std::uint64_t at =
                b1.cycle + static_cast<std::uint64_t>(
                               issue_at[static_cast<std::size_t>(
                                   d - m * sdf)] +
                               m * sdc);
            if (at < end)
                issue(at, slot.toggles);
            const std::uint64_t shifted = slot.seq + periods * df;
            if (shifted < fetch_seq) {
                // Waits across all the skipped periods: its
                // counterpart is a younger slot of this window.
                std::size_t k = j + 1;
                while (window[k].seq != shifted)
                    ++k;
                resident[j] = window[k].toggles;
            } else if (next_resident == window.size()) {
                next_resident = j;
            }
        }

        const auto ops_per_iter = body.size() + 1;
        std::size_t pos = fetch_pos;
        std::size_t q = 0;
        std::uint64_t period_start = cycle;
        const std::uint64_t ops = periods * df;
        for (std::uint64_t k = 0; k < ops; ++k) {
            std::uint64_t address;
            const std::uint32_t toggles = executeData(
                pos < body.size() ? body[pos] : loop_branch, address);
            const std::uint64_t at =
                period_start + static_cast<std::uint64_t>(issue_at[q]);
            if (at < end)
                issue(at, toggles);
            else
                resident[next_resident++] = toggles;
            if (++pos == ops_per_iter)
                pos = 0;
            if (++q == df) {
                q = 0;
                period_start += dc;
            }
        }
        for (std::size_t j = 0; j < window.size(); ++j)
            window[j].toggles = resident[j];
        result.totalToggleBits += skipped_toggles;
    }

    /** Lane @p lane of a register; an integer register has one. */
    static std::size_t
    laneOf(int unified, int lane)
    {
        return isVecReg(unified) ? static_cast<std::size_t>(lane) : 0;
    }

    std::uint64_t
    readLane(int unified, int lane) const
    {
        return _regs[static_cast<std::size_t>(unified)][laneOf(unified, lane)];
    }

    std::uint32_t
    writeLane(int unified, int lane, std::uint64_t value)
    {
        std::uint64_t& slot =
            _regs[static_cast<std::size_t>(unified)][laneOf(unified, lane)];
        const std::uint32_t flips = toggles(slot, value);
        slot = value;
        return flips;
    }

    /** Map a virtual address into the modelled buffer. */
    std::size_t
    bufferOffset(std::uint64_t address, int bytes) const
    {
        std::uint64_t off =
            (address - bufferBase) % _scratch.memory.size();
        off &= ~static_cast<std::uint64_t>(bytes - 1);
        if (off + static_cast<std::uint64_t>(bytes) >
            _scratch.memory.size())
            off = 0;
        return static_cast<std::size_t>(off);
    }

    /**
     * The buffer's bytes at @p offset, within one chunk, which is
     * filled with the memory pattern at the run's first access to it.
     */
    std::uint8_t*
    bytesAt(std::size_t offset)
    {
        const std::size_t chunk = offset >> _chunkShift;
        if (_scratch.chunkRun[chunk] != _scratch.memoryRun) {
            _scratch.chunkRun[chunk] = _scratch.memoryRun;
            std::memset(&_scratch.memory[chunk << _chunkShift],
                        _init.memPattern, std::size_t{1} << _chunkShift);
        }
        return &_scratch.memory[offset];
    }

    std::uint64_t
    loadWord(std::size_t offset)
    {
        std::uint64_t v;
        std::memcpy(&v, bytesAt(offset), sizeof(v));
        return v;
    }

    std::uint32_t
    storeWord(std::size_t offset, std::uint64_t value)
    {
        std::uint8_t* bytes = bytesAt(offset);
        std::uint64_t before;
        std::memcpy(&before, bytes, sizeof(before));
        std::memcpy(bytes, &value, sizeof(value));
        _memoryChanged = _memoryChanged || before != value;
        return toggles(before, value);
    }

    /**
     * Execute one micro-op architecturally, in program order: update
     * registers and memory. Timing is not affected here.
     *
     * @return the micro-op's datapath toggles; a load or store also
     *         sets @p address to its access address.
     */
    std::uint32_t
    executeData(const MicroOp& mo, std::uint64_t& address)
    {
        if (!mo.isLoad && !mo.isStore)
            return execute(mo);
        const int base = mo.src[mo.numSrc - 1];
        address = readLane(base, 0) + static_cast<std::uint64_t>(mo.imm);
        const std::size_t size = _scratch.memory.size();
        const std::size_t offset = bufferOffset(address, mo.accessBytes);
        std::uint32_t toggles = 0;
        if (mo.isLoad) {
            for (int d = 0; d < mo.numDst; ++d) {
                const int dst = mo.dst[d];
                if (isVecReg(dst) && mo.accessBytes == 16) {
                    toggles += writeLane(dst, 0, loadWord(offset));
                    toggles += writeLane(dst, 1, loadWord(offset + 8));
                } else {
                    const std::size_t word_off =
                        offset + static_cast<std::size_t>(d) * 8;
                    toggles += writeLane(dst, 0, loadWord(word_off % size));
                }
            }
            return toggles;
        }
        // Stores: data sources precede the base register.
        for (int s = 0; s < mo.numSrc - 1; ++s) {
            const int data = mo.src[s];
            if (isVecReg(data) && mo.accessBytes == 16) {
                toggles += storeWord(offset, readLane(data, 0));
                toggles += storeWord(offset + 8, readLane(data, 1));
            } else {
                const std::size_t word_off =
                    (offset + static_cast<std::size_t>(s) * 8) % (size - 8);
                toggles += storeWord(word_off, readLane(data, 0));
            }
        }
        return toggles;
    }

    /**
     * executeData() at fetch time, for a micro-op entering the window
     * as fetch_seq @p seq.
     */
    WindowSlot
    executeAtFetch(const MicroOp& mo, std::uint64_t seq)
    {
        WindowSlot slot{&mo, 0, seq, 0, 0, 0};
        for (int i = 0; i < mo.numSrc; ++i)
            slot.srcMask |= std::uint64_t{1} << mo.src[i];
        slot.toggles = executeData(mo, slot.address);
        return slot;
    }

    /**
     * Whether the line of @p slot's address is in neither cache level.
     * Such a line can enter either level only through an L2 miss on
     * it (an L1 fill on an L2 hit needs the line in L2 already), which
     * moves its L2 set's fill count; so the answer, stamped on the
     * slot with that count, holds while the count stays put.
     */
    bool
    lineAbsent(WindowSlot& slot) const
    {
        const std::uint32_t stamp =
            _l2->fills(_l2->setOf(slot.address)) + 1;
        if (slot.absentStamp == stamp)
            return true;
        if (_cache->probe(slot.address) || _l2->probe(slot.address))
            return false;
        slot.absentStamp = stamp;
        return true;
    }

    /**
     * Try to issue one fetched micro-op whose sources are all ready at
     * @p cycle; on success charge its FU, the cache hierarchy and the
     * register readiness.
     *
     * @return 0 if the op issued; otherwise the timestamp that blocked
     *         it (the earliest free unit or MSHR), before which it
     *         cannot issue whatever else happens. Always greater than
     *         @p cycle.
     */
    std::uint64_t
    tryIssue(WindowSlot& slot, std::uint64_t cycle, CycleStats& stats)
    {
        const MicroOp& mo = *slot.mo;

        // Functional unit availability.
        const OpTiming& timing = _cfg.opTiming(mo.op);
        const auto fu = static_cast<std::size_t>(timing.fu);
        if (cycle < _fuBusyUntil[fu])
            return _fuBusyUntil[fu];
        auto& units = _scratch.fuFreeAt[fu];
        std::uint64_t* unit = nullptr;
        for (std::uint64_t& free_at : units) {
            if (free_at <= cycle) {
                unit = &free_at;
                break;
            }
        }
        if (!unit)
            return _fuBusyUntil[fu] = earliest(units);

        int latency = timing.latency;

        // Memory access: consult the cache hierarchy with the address
        // computed in program order at fetch.
        if (mo.isLoad || mo.isStore) {
            const std::uint64_t address = slot.address;

            // A request that will go to DRAM needs a free MSHR; without
            // one the op cannot issue this cycle (bounded memory-level
            // parallelism).
            std::uint64_t* mshr = nullptr;
            if (_l2 && lineAbsent(slot)) {
                if (cycle < _mshrBusyUntil)
                    return _mshrBusyUntil;
                for (std::uint64_t& free_at : _scratch.mshrFreeAt) {
                    if (free_at <= cycle) {
                        mshr = &free_at;
                        break;
                    }
                }
                if (!mshr)
                    return _mshrBusyUntil =
                               earliest(_scratch.mshrFreeAt);
            }

            const bool hit = _cache->access(address);
            if (!hit) {
                ++stats.cacheMisses;
                if (_l2) {
                    const bool l2_hit = _l2->access(address);
                    if (!l2_hit) {
                        ++stats.l2Misses;
                        if (mshr)
                            *mshr = cycle + static_cast<std::uint64_t>(
                                                _cfg.l2.missLatency);
                    }
                    latency = l2_hit ? _cfg.l2.hitLatency
                                     : _cfg.l2.missLatency;
                } else {
                    latency = _cfg.l1d.missLatency;
                }
            } else if (mo.isLoad) {
                latency = _cfg.l1d.hitLatency;
            }
        }

        // Charge the functional unit for its issue interval. Memory ops
        // that miss keep the LSU busy only for the issue slot; the line
        // fill proceeds in the background (non-blocking cache).
        *unit = cycle + static_cast<std::uint64_t>(timing.busyCycles);

        // Destination readiness. A younger writer can lower a ready
        // cycle, so _notReadyUntil takes the minimum either way.
        for (int d = 0; d < mo.numDst; ++d) {
            const std::uint64_t ready =
                cycle + static_cast<std::uint64_t>(latency);
            const std::uint64_t bit = std::uint64_t{1} << mo.dst[d];
            _regReadyAt[static_cast<std::size_t>(mo.dst[d])] = ready;
            if (ready > cycle) {
                _notReady |= bit;
                _notReadyUntil = std::min(_notReadyUntil, ready);
            } else {
                _notReady &= ~bit;
            }
        }

        ++stats.issued[static_cast<std::size_t>(mo.cls)];
        stats.toggleBits += slot.toggles;
        return 0;
    }

    /** The earliest of @p free_at, or ~0 when it is empty. */
    static std::uint64_t
    earliest(const std::vector<std::uint64_t>& free_at)
    {
        std::uint64_t soonest = ~std::uint64_t{0};
        for (std::uint64_t at : free_at)
            soonest = std::min(soonest, at);
        return soonest;
    }

    /** Execute a non-memory micro-op; @return result-bit toggles. */
    std::uint32_t
    execute(const MicroOp& mo)
    {
        if (mo.numDst == 0)
            return mo.op == Opcode::Cmp ? 4 : 0;

        const int dst = mo.dst[0];
        const int lanes = isVecReg(dst) ? 2 : 1;

        auto src_or_imm = [&](int index, int lane) -> std::uint64_t {
            if (index < mo.numSrc)
                return readLane(mo.src[index], lane);
            return static_cast<std::uint64_t>(mo.imm);
        };

        std::uint32_t flips = 0;
        for (int lane = 0; lane < lanes; ++lane) {
            const std::uint64_t a = src_or_imm(0, lane);
            const std::uint64_t b = src_or_imm(1, lane);
            const std::uint64_t c = src_or_imm(2, lane);
            std::uint64_t value = 0;
            switch (mo.op) {
              case Opcode::Add: value = a + b; break;
              case Opcode::AddWrap:
                // Pointer advance bounded to the data buffer (the real
                // template masks the pointer the same way).
                value = bufferBase +
                        ((a + b - bufferBase) &
                         (static_cast<std::uint64_t>(
                              _scratch.memory.size()) -
                          1));
                break;
              case Opcode::Sub: value = a - b; break;
              case Opcode::And: value = a & b; break;
              case Opcode::Orr: value = a | b; break;
              case Opcode::Eor: value = a ^ b; break;
              case Opcode::Lsl:
                value = a << (mo.hasImm ? (mo.imm & 63) : (b & 63));
                break;
              case Opcode::Lsr:
                value = a >> (mo.hasImm ? (mo.imm & 63) : (b & 63));
                break;
              case Opcode::Mov:
                value = mo.numSrc > 0 ? a
                                      : static_cast<std::uint64_t>(mo.imm);
                break;
              case Opcode::Mul: value = a * b; break;
              case Opcode::MAdd: value = a * b + c; break;
              case Opcode::SMull:
                value = static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(
                        static_cast<std::int32_t>(a)) *
                    static_cast<std::int64_t>(
                        static_cast<std::int32_t>(b)));
                break;
              case Opcode::UDiv: value = b ? a / b : 0; break;
              // FP executed with integer-proxy semantics: the goal is a
              // realistic amount of datapath bit switching, not numerics.
              case Opcode::FAdd:
              case Opcode::VAdd: value = a + b; break;
              case Opcode::FMul:
              case Opcode::VMul: value = a * b; break;
              case Opcode::FDiv: value = b ? a / (b | 1) : 0; break;
              case Opcode::FMAdd:
              case Opcode::VFma: value = a * b + c; break;
              case Opcode::FSqrt: value = a >> 32; break;
              case Opcode::VAnd: value = a & b; break;
              default:
                return 0;
            }
            flips += writeLane(dst, lane, value);
        }
        return flips;
    }
};

LoopSimulator::LoopSimulator(const CpuConfig& cfg, const InitState& init)
    : _cfg(cfg), _init(init)
{
    _cfg.validate();
    if (init.bufferBytes < 512 ||
        (init.bufferBytes & (init.bufferBytes - 1)) != 0)
        fatal("buffer size must be a power of two >= 512, got ",
              init.bufferBytes);
    if (init.baseRegister < 0 || init.baseRegister >= 32)
        fatal("base register index out of range: ", init.baseRegister);
}

SimResult
LoopSimulator::run(const std::vector<MicroOp>& body,
                   std::uint64_t iterations,
                   std::uint64_t warmup_iterations)
{
    SimScratch scratch;
    SimResult result;
    RunOptions options;
    options.steadyState = false;
    RunState state(_cfg, _init, scratch);
    state.run(body, iterations, warmup_iterations, options, result);
    return result;
}

SimResult
LoopSimulator::runForCycles(const std::vector<MicroOp>& body,
                            std::uint64_t min_cycles,
                            std::uint64_t max_instructions)
{
    SimScratch scratch;
    SimResult result;
    RunOptions options;
    options.steadyState = false;
    runForCyclesInto(body, min_cycles, max_instructions, options,
                     scratch, result);
    return result;
}

void
LoopSimulator::runForCyclesInto(const std::vector<MicroOp>& body,
                                std::uint64_t min_cycles,
                                std::uint64_t max_instructions,
                                const RunOptions& options,
                                SimScratch& scratch, SimResult& out)
{
    if (body.empty())
        fatal("cannot simulate an empty loop body");

    const std::uint64_t warmup = 2;
    const std::uint64_t probe_iters = warmup + 8;
    {
        RunOptions probe_options;
        probe_options.steadyState = false;
        RunState state(_cfg, _init, scratch);
        state.run(body, probe_iters, warmup, probe_options, out);
    }

    const double cycles_per_iter =
        static_cast<double>(out.cycles) /
        static_cast<double>(probe_iters - warmup);
    std::uint64_t need = warmup + 1 +
        static_cast<std::uint64_t>(
            static_cast<double>(min_cycles) / cycles_per_iter);

    const std::uint64_t iter_cap =
        std::max<std::uint64_t>(warmup + 1,
                                max_instructions / (body.size() + 1));
    need = std::min(need, iter_cap);

    // Reserve the actual cycle horizon (plus one iteration of slack for
    // the measurement-boundary overshoot) so long fallback runs never
    // reallocate mid-trace. The probe's rows are cleared first, so the
    // reserve copies none of them.
    out.trace.clear();
    out.trace.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
        min_cycles + static_cast<std::uint64_t>(cycles_per_iter) + 64,
        maxTraceCycles)));
    RunState state(_cfg, _init, scratch);
    state.run(body, need, warmup, options, out);
}

void
materializeTrace(SimResult& sim)
{
    if (!sim.tiling.tiled())
        return;
    const std::uint64_t n =
        sim.tiling.clippedVirtualCycles(maxTraceCycles);
    std::vector<CycleStats> full;
    full.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t v = 0; v < n; ++v)
        full.push_back(sim.trace[static_cast<std::size_t>(
            sim.tiling.storedIndex(v))]);
    sim.trace = std::move(full);
    sim.tiling = util::TraceTiling::untiled(sim.trace.size());
}

void
captureActivitySignals(const SimResult& sim, double freq_ghz,
                       signal::SignalProbe& probe)
{
    if (freq_ghz <= 0.0)
        fatal("captureActivitySignals needs a positive core frequency");
    const double clock_hz = freq_ghz * 1e9;
    const std::uint32_t interval = probe.config().ipcIntervalCycles;

    std::vector<double> interval_ipc;
    interval_ipc.reserve(sim.trace.size() / interval + 1);
    std::uint64_t fetched = 0;
    std::uint32_t in_interval = 0;
    for (std::size_t cycle = 0; cycle < sim.trace.size(); ++cycle) {
        const CycleStats& cs = sim.trace[cycle];
        fetched += cs.fetched;
        if (++in_interval == interval) {
            interval_ipc.push_back(static_cast<double>(fetched) /
                                   interval);
            fetched = 0;
            in_interval = 0;
        }
        const double time_s = static_cast<double>(cycle) / clock_hz;
        if (cs.cacheMisses > 0)
            probe.mark("l1_miss", cycle, time_s);
        if (cs.l2Misses > 0)
            probe.mark("l2_miss", cycle, time_s);
        if (cs.mispredicts > 0)
            probe.mark("mispredict", cycle, time_s);
    }
    // A trailing partial interval is still a valid average.
    if (in_interval > 0)
        interval_ipc.push_back(static_cast<double>(fetched) /
                               in_interval);
    if (!interval_ipc.empty())
        probe.recordWaveform("interval_ipc", "instr/cycle",
                             clock_hz / interval, interval_ipc);
}

} // namespace arch
} // namespace gest
