/**
 * @file
 * The search-space coverage ledger (docs/attribution.md, "Coverage").
 *
 * The GA's search space is the set of (instruction definition ×
 * operand value-bin) cells — one cell per register choice, one per
 * immediate bin (isa::operandBin), one for an operand-less definition.
 * The ledger is an atomic bitmap over that universe: every gene of
 * every evaluated generation touches its cells (one relaxed fetch_or
 * per new cell, a plain load otherwise), so by the end of a run it
 * answers "what did the GA never try?" exactly.
 *
 * The run pipeline (run/pipeline.hh) drives onGenerationEvaluated on
 * the coordinator thread — const views only, never the RNG, so run
 * artifacts are bit-identical with the ledger on or off. Atomics exist
 * for readers on other threads, which may render coverageJson()
 * concurrently. Each observed generation appends a row to the
 * `# gest-coverage v1` CSV (when a path is set), refreshes the
 * coverage.* gauges and returns its snapshot, which the pipeline hands
 * to the watchdog and the telemetry service.
 */

#ifndef GEST_ATTRIBUTION_COVERAGE_HH
#define GEST_ATTRIBUTION_COVERAGE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "isa/library.hh"
#include "output/ledger.hh"

namespace gest {
namespace attribution {

class CoverageLedger
{
  public:
    /** Per-class slice of the universe. */
    struct ClassCoverage
    {
        std::uint64_t seen = 0;
        std::uint64_t total = 0;
    };

    /** Cumulative state after one observed generation. */
    struct Snapshot
    {
        int generation = -1;
        std::uint64_t cellsSeen = 0;
        std::uint64_t cellsTotal = 0;
        std::uint64_t newCells = 0;  ///< first touched this generation
        std::uint64_t touches = 0;   ///< cell touches this generation
        double saturationPct = 0.0;  ///< 100 * seen / total
        double noveltyRate = 0.0;    ///< newCells / touches
        std::array<ClassCoverage, isa::numInstrClasses> classes{};
    };

    /** @param lib must outlive the ledger. */
    explicit CoverageLedger(const isa::InstructionLibrary& lib);

    std::uint64_t cellsTotal() const { return _cellsTotal; }

    std::uint64_t
    cellsSeen() const
    {
        return _cellsSeen.load(std::memory_order_relaxed);
    }

    /**
     * Touch every cell @p code references. @return cells first seen by
     * this call; @p touches (optional) accumulates the touch count.
     */
    std::uint64_t observe(
        const std::vector<isa::InstructionInstance>& code,
        std::uint64_t* touches = nullptr);

    /**
     * Ingest one evaluated generation: observe every individual,
     * update the coverage.* stats and append the CSV row. Coordinator
     * thread only. @return the state after this generation.
     */
    Snapshot onGenerationEvaluated(const core::Population& pop,
                                   const core::GenerationRecord& record);

    /** Append per-generation rows to the coverage ledger at @p path. */
    void setCsvPath(std::string path);

    /** The ledger's path; empty when no CSV is written. */
    std::string csvPath() const { return _csv ? _csv->path() : ""; }

    /**
     * Current cumulative state; safe from any thread (per-generation
     * fields describe the last generation sealed by the coordinator).
     */
    Snapshot snapshot() const;

    /** snapshot() rendered as the /coverage JSON payload. */
    std::string coverageJson() const;

  private:
    /** One operand slot's cell range. */
    struct SlotCells
    {
        std::uint32_t cellBase = 0;
        std::uint32_t operandIndex = 0;
    };

    /** One instruction definition's cell range. */
    struct DefCells
    {
        std::uint32_t base = 0;      ///< first cell
        std::uint32_t count = 0;     ///< cells owned by this def
        std::uint32_t firstSlot = 0; ///< index into _slots
        std::uint32_t numSlots = 0;
        isa::InstrClass cls = isa::InstrClass::Nop;
    };

    bool touch(std::uint64_t cell, isa::InstrClass cls);

    const isa::InstructionLibrary& _lib;
    std::vector<DefCells> _defs;
    std::vector<SlotCells> _slots;
    std::uint64_t _cellsTotal = 0;
    std::array<std::uint64_t, isa::numInstrClasses> _classTotal{};

    std::vector<std::atomic<std::uint64_t>> _bits;
    std::atomic<std::uint64_t> _cellsSeen{0};
    std::array<std::atomic<std::uint64_t>, isa::numInstrClasses>
        _classSeen{};

    // Last sealed generation (coordinator-written, reader-raced only
    // through snapshot()'s atomics-free copies — benign staleness).
    std::atomic<int> _lastGeneration{-1};
    std::atomic<std::uint64_t> _lastNewCells{0};
    std::atomic<std::uint64_t> _lastTouches{0};

    std::optional<ledger::Writer> _csv;
};

/**
 * The cells of @p snapshot's coverage.csv row, one per ledger::coverage
 * column. The telemetry history row's coverage_* values are these
 * cells too.
 */
std::vector<std::string> coverageCells(
    const CoverageLedger::Snapshot& snapshot);

/** Render @p snapshot as the /coverage JSON payload. */
std::string formatCoverageJson(const CoverageLedger::Snapshot& snapshot);

} // namespace attribution
} // namespace gest

#endif // GEST_ATTRIBUTION_COVERAGE_HH
