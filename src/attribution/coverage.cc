#include "attribution/coverage.hh"

#include <algorithm>
#include <cstdio>

#include "core/population.hh"
#include "stats/stats.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace attribution {

namespace {

struct CoverageStats
{
    stats::Gauge& cellsSeen;
    stats::Gauge& cellsTotal;
    stats::Gauge& saturationPct;
    stats::Counter& novelCells;
    stats::Counter& touches;
};

CoverageStats&
coverageStats()
{
    static CoverageStats s{
        stats::StatsRegistry::instance().gauge(
            "coverage.cells_seen",
            "search-space cells evaluated so far"),
        stats::StatsRegistry::instance().gauge(
            "coverage.cells_total",
            "size of the instruction x operand-bin universe"),
        stats::StatsRegistry::instance().gauge(
            "coverage.saturation_pct",
            "percentage of the search space evaluated"),
        stats::StatsRegistry::instance().counter(
            "coverage.novel_cells",
            "cells seen for the first time"),
        stats::StatsRegistry::instance().counter(
            "coverage.touches", "cell touches observed"),
    };
    return s;
}

} // namespace

CoverageLedger::CoverageLedger(const isa::InstructionLibrary& lib)
    : _lib(lib)
{
    // Lay the universe out def by def, slot by slot: an operand-less
    // definition owns a single cell, an operand slot owns one cell per
    // value bin.
    for (std::size_t d = 0; d < lib.numInstructions(); ++d) {
        const isa::InstructionDef& def = lib.instruction(d);
        DefCells dc;
        dc.base = static_cast<std::uint32_t>(_cellsTotal);
        dc.firstSlot = static_cast<std::uint32_t>(_slots.size());
        dc.numSlots =
            static_cast<std::uint32_t>(def.operandIndex.size());
        dc.cls = def.cls;
        if (def.operandIndex.empty()) {
            dc.count = 1;
        } else {
            for (std::uint32_t op_index : def.operandIndex) {
                SlotCells slot;
                slot.cellBase =
                    static_cast<std::uint32_t>(_cellsTotal) + dc.count;
                slot.operandIndex = op_index;
                _slots.push_back(slot);
                dc.count += static_cast<std::uint32_t>(
                    isa::operandBinCount(lib.operand(op_index)));
            }
        }
        _classTotal[static_cast<int>(def.cls)] += dc.count;
        _cellsTotal += dc.count;
        _defs.push_back(dc);
    }
    _bits = std::vector<std::atomic<std::uint64_t>>(
        (_cellsTotal + 63) / 64);
    for (std::atomic<std::uint64_t>& word : _bits)
        word.store(0, std::memory_order_relaxed);
}

bool
CoverageLedger::touch(std::uint64_t cell, isa::InstrClass cls)
{
    const std::uint64_t mask = std::uint64_t(1) << (cell & 63);
    std::atomic<std::uint64_t>& word = _bits[cell >> 6];
    // Fast path: a plain load avoids contending the cache line once
    // the cell is known (the common case after the first generations).
    if (word.load(std::memory_order_relaxed) & mask)
        return false;
    const std::uint64_t prior =
        word.fetch_or(mask, std::memory_order_relaxed);
    if (prior & mask)
        return false;
    _cellsSeen.fetch_add(1, std::memory_order_relaxed);
    _classSeen[static_cast<int>(cls)].fetch_add(
        1, std::memory_order_relaxed);
    return true;
}

std::uint64_t
CoverageLedger::observe(
    const std::vector<isa::InstructionInstance>& code,
    std::uint64_t* touches)
{
    std::uint64_t fresh = 0;
    std::uint64_t touched = 0;
    for (const isa::InstructionInstance& gene : code) {
        if (gene.defIndex >= _defs.size())
            continue;
        const DefCells& dc = _defs[gene.defIndex];
        if (dc.numSlots == 0) {
            ++touched;
            fresh += touch(dc.base, dc.cls) ? 1 : 0;
            continue;
        }
        const std::uint32_t slots =
            std::min<std::uint32_t>(dc.numSlots,
                                    static_cast<std::uint32_t>(
                                        gene.operandChoice.size()));
        for (std::uint32_t s = 0; s < slots; ++s) {
            const SlotCells& slot = _slots[dc.firstSlot + s];
            const std::size_t bin = isa::operandBin(
                _lib.operand(slot.operandIndex), gene.operandChoice[s]);
            ++touched;
            fresh += touch(slot.cellBase + bin, dc.cls) ? 1 : 0;
        }
    }
    if (touches)
        *touches += touched;
    return fresh;
}

void
CoverageLedger::setCsvPath(std::string path)
{
    std::string preamble =
        "# cells_total " + std::to_string(_cellsTotal) + "\n";
    for (int c = 0; c < isa::numInstrClasses; ++c)
        preamble += std::string("# class ") +
                    isa::classToken(static_cast<isa::InstrClass>(c)) +
                    " cells " + std::to_string(_classTotal[c]) + "\n";
    _csv.emplace(ledger::coverage, std::move(path), std::move(preamble));
}

CoverageLedger::Snapshot
CoverageLedger::onGenerationEvaluated(const core::Population& pop,
                                      const core::GenerationRecord& rec)
{
    std::uint64_t fresh = 0;
    std::uint64_t touched = 0;
    for (const core::Individual& ind : pop.individuals)
        fresh += observe(ind.code, &touched);

    _lastGeneration.store(rec.generation, std::memory_order_relaxed);
    _lastNewCells.store(fresh, std::memory_order_relaxed);
    _lastTouches.store(touched, std::memory_order_relaxed);

    const Snapshot snap = snapshot();
    coverageStats().cellsSeen.set(
        static_cast<double>(snap.cellsSeen));
    coverageStats().cellsTotal.set(
        static_cast<double>(snap.cellsTotal));
    coverageStats().saturationPct.set(snap.saturationPct);
    coverageStats().novelCells.inc(fresh);
    coverageStats().touches.inc(touched);

    if (_csv)
        _csv->append(join(coverageCells(snap), ",") + "\n");
    return snap;
}

CoverageLedger::Snapshot
CoverageLedger::snapshot() const
{
    Snapshot snap;
    snap.generation = _lastGeneration.load(std::memory_order_relaxed);
    snap.cellsSeen = _cellsSeen.load(std::memory_order_relaxed);
    snap.cellsTotal = _cellsTotal;
    snap.newCells = _lastNewCells.load(std::memory_order_relaxed);
    snap.touches = _lastTouches.load(std::memory_order_relaxed);
    snap.saturationPct =
        _cellsTotal > 0 ? 100.0 * static_cast<double>(snap.cellsSeen) /
                              static_cast<double>(_cellsTotal)
                        : 0.0;
    snap.noveltyRate =
        snap.touches > 0 ? static_cast<double>(snap.newCells) /
                               static_cast<double>(snap.touches)
                         : 0.0;
    for (int c = 0; c < isa::numInstrClasses; ++c) {
        snap.classes[c].seen =
            _classSeen[c].load(std::memory_order_relaxed);
        snap.classes[c].total = _classTotal[c];
    }
    return snap;
}

std::string
CoverageLedger::coverageJson() const
{
    return formatCoverageJson(snapshot());
}

std::vector<std::string>
coverageCells(const CoverageLedger::Snapshot& snap)
{
    std::vector<std::string> cells = {
        std::to_string(snap.generation), std::to_string(snap.newCells),
        std::to_string(snap.cellsSeen), std::to_string(snap.cellsTotal),
        formatFixed(snap.saturationPct, 6), formatFixed(snap.noveltyRate, 6)};
    for (int c = 0; c < isa::numInstrClasses; ++c)
        cells.push_back(std::to_string(snap.classes[c].seen));
    return cells;
}

std::string
formatCoverageJson(const CoverageLedger::Snapshot& snap)
{
    char head[320];
    std::snprintf(
        head, sizeof(head),
        "{\n  \"generation\": %d,\n  \"cells_seen\": %llu,\n"
        "  \"cells_total\": %llu,\n  \"cells_new\": %llu,\n"
        "  \"saturation_pct\": %.6f,\n  \"novelty_rate\": %.6f,\n"
        "  \"classes\": [",
        snap.generation,
        static_cast<unsigned long long>(snap.cellsSeen),
        static_cast<unsigned long long>(snap.cellsTotal),
        static_cast<unsigned long long>(snap.newCells),
        snap.saturationPct, snap.noveltyRate);
    std::string out = head;
    for (int c = 0; c < isa::numInstrClasses; ++c) {
        char row[128];
        std::snprintf(
            row, sizeof(row),
            "%s\n    {\"class\": \"%s\", \"seen\": %llu, "
            "\"total\": %llu}",
            c == 0 ? "" : ",",
            isa::classToken(static_cast<isa::InstrClass>(c)),
            static_cast<unsigned long long>(snap.classes[c].seen),
            static_cast<unsigned long long>(snap.classes[c].total));
        out += row;
    }
    out += "\n  ]\n}\n";
    return out;
}

} // namespace attribution
} // namespace gest
