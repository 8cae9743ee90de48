#include "output/ledger.hh"

#include <algorithm>
#include <cstdlib>

#include "isa/instr_class.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace ledger {

namespace {

/** @p head, one <prefix><class token> column per class, then @p tail. */
std::vector<std::string>
withClassColumns(std::vector<std::string> head, const std::string& prefix,
                 const std::vector<std::string>& tail)
{
    for (int c = 0; c < isa::numInstrClasses; ++c)
        head.push_back(prefix +
                       isa::classToken(static_cast<isa::InstrClass>(c)));
    head.insert(head.end(), tail.begin(), tail.end());
    return head;
}

} // namespace

const Schema history{
    "history.csv", "gest-history", 2,
    {"generation", "best_fitness", "average_fitness", "best_id",
     "unique_instructions", "diversity", "cache_hits", "cache_misses",
     "selection_ms", "crossover_ms", "mutation_ms", "evaluation_ms",
     "io_ms"}};

const Schema lineage{
    "lineage.csv", "gest-lineage", 1,
    {"generation", "id", "op", "parent1", "parent2", "mutated_genes",
     "mutated_indices", "fitness"}};

const Schema analytics{
    "analytics.csv", "gest-analytics", 1,
    withClassColumns({"generation"}, "mix_",
                     {"gene_entropy_bits", "pairwise_diversity",
                      "fitness_min", "fitness_q1", "fitness_median",
                      "fitness_q3", "fitness_max", "crossover_children",
                      "crossover_improved", "mutation_children",
                      "mutation_improved", "elite_copies"})};

const Schema digests{
    "digests.csv", "gest-digests", 1,
    {"generation", "best_fitness", "population_digest"}};

const Schema coverage{
    "coverage.csv", "gest-coverage", 1,
    withClassColumns({"generation", "cells_new", "cells_seen",
                      "cells_total", "saturation_pct", "novelty_rate"},
                     "seen_", {})};

const Schema alerts{
    "alerts.csv", "gest-alerts", 1,
    {"generation", "rule", "severity", "value", "threshold", "message"}};

Writer::Writer(const Schema& schema, std::string path,
               std::string preamble)
    : _schema(&schema), _path(std::move(path)),
      _preamble(std::move(preamble))
{}

void
Writer::open()
{
    append("");
}

void
Writer::append(const std::string& rows)
{
    if (_open) {
        appendFile(_path, rows);
        return;
    }
    std::string head = "# " + _schema->tag + " v" +
                       std::to_string(_schema->version) + "\n" +
                       _preamble;
    for (std::size_t i = 0; i < _schema->columns.size(); ++i)
        head += (i == 0 ? "" : ",") + _schema->columns[i];
    appendFile(_path, head + "\n" + rows, /*truncate=*/true);
    _open = true;
}

Decoder::Decoder(const Schema& schema, std::string file)
    : _schema(&schema), _file(std::move(file))
{}

bool
Decoder::feed(const std::string& line)
{
    ++_line;
    if (line.empty())
        return false;
    if (line.front() == '#') {
        // `# gest-<name> v<N>`; any other comment is preamble.
        const std::vector<std::string> words = splitWhitespace(line);
        if (words.size() < 3 || !startsWith(words[1], "gest-") ||
            words[2].size() < 2 || words[2].front() != 'v')
            return false;
        if (words[1] != _schema->tag)
            fatal(_file, " is a ", words[1], " ledger, not ",
                  _schema->tag);
        _version = static_cast<int>(
            parseInt(words[2].substr(1), where() + " version"));
        if (_version > _schema->version)
            fatal(_file, " is ", _schema->tag, " v", _version,
                  "; this build reads up to v", _schema->version,
                  " — read it with a newer gest");
        return false;
    }
    if (_header.empty()) {
        _header = split(line, ',');
        if (_header.front() != _schema->columns.front())
            fatal(_file, " does not look like a ", _schema->tag,
                  " ledger: expected a header starting with '",
                  _schema->columns.front(), "', got '", line, "'");
        _positions.clear();
        for (const std::string& column : _schema->columns) {
            const auto it =
                std::find(_header.begin(), _header.end(), column);
            _positions.push_back(
                it == _header.end()
                    ? -1
                    : static_cast<int>(it - _header.begin()));
        }
        return false;
    }
    _cells = split(line, ',');
    if (_cells.size() < _header.size())
        fatal(where(), ": truncated row (", _cells.size(), " of ",
              _header.size(), " columns); delete that line to read the "
              "rows before it");
    return true;
}

bool
Decoder::has(const std::string& column) const
{
    return position(column) >= 0;
}

int
Decoder::position(const std::string& column) const
{
    const std::vector<std::string>& columns = _schema->columns;
    const auto it = std::find(columns.begin(), columns.end(), column);
    if (it == columns.end())
        panic(_schema->file, " declares no column '", column, "'");
    return _positions.empty()
               ? -1
               : _positions[static_cast<std::size_t>(it -
                                                     columns.begin())];
}

// number() and integer() parse a well-formed cell directly. Only a cell
// they cannot read whole goes through parseDouble()/parseInt(), which
// trim it or fatal() with the error context built here. Building that
// context for every cell cost a third of a `gest top` frame on a
// 10,000-generation history.csv.

double
Decoder::number(const std::string& column) const
{
    const int at = position(column);
    if (at < 0)
        return 0.0;
    const std::string& cell = _cells[static_cast<std::size_t>(at)];
    char* end = nullptr;
    const double v = std::strtod(cell.c_str(), &end);
    if (end != cell.c_str() && *end == '\0')
        return v;
    return parseDouble(cell, column + " (" + where() + ")");
}

std::int64_t
Decoder::integer(const std::string& column) const
{
    const int at = position(column);
    if (at < 0)
        return 0;
    // Up to 18 plain decimal digits cannot overflow; anything else,
    // a sign, a leading 0x or a longer number included, is parseInt()'s.
    const std::string& cell = _cells[static_cast<std::size_t>(at)];
    if (!cell.empty() && cell.size() <= 18 &&
        std::all_of(cell.begin(), cell.end(),
                    [](char c) { return c >= '0' && c <= '9'; })) {
        std::int64_t v = 0;
        for (const char c : cell)
            v = v * 10 + (c - '0');
        return v;
    }
    return parseInt(cell, column + " (" + where() + ")");
}

const std::string&
Decoder::text(const std::string& column) const
{
    static const std::string absent;
    const int at = position(column);
    return at < 0 ? absent : _cells[static_cast<std::size_t>(at)];
}

std::string
Decoder::where() const
{
    return _file + ":" + std::to_string(_line);
}

Decoder
decode(const Schema& schema, const std::string& file,
       const std::string& text,
       const std::function<void(const Decoder&)>& on_row)
{
    Decoder decoder(schema, file);
    std::size_t start = 0;
    for (std::size_t nl = text.find('\n'); nl != std::string::npos;
         nl = text.find('\n', start)) {
        if (decoder.feed(text.substr(start, nl - start)))
            on_row(decoder);
        start = nl + 1;
    }
    return decoder;
}

} // namespace ledger
} // namespace gest
