#include "core/population.hh"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>

#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace core {

int
Population::bestIndex() const
{
    int best = -1;
    for (std::size_t i = 0; i < individuals.size(); ++i) {
        if (!individuals[i].evaluated)
            continue;
        if (best < 0 ||
            individuals[i].fitness > individuals[static_cast<std::size_t>(
                                         best)].fitness)
            best = static_cast<int>(i);
    }
    return best;
}

const Individual&
Population::best() const
{
    const int index = bestIndex();
    if (index < 0)
        panic("Population::best on a population with no evaluated "
              "individuals");
    return individuals[static_cast<std::size_t>(index)];
}

double
Population::genotypeDiversity() const
{
    if (individuals.empty())
        return 0.0;
    std::size_t max_len = 0;
    for (const Individual& ind : individuals)
        max_len = std::max(max_len, ind.code.size());
    if (max_len == 0)
        return 0.0;

    double sum = 0.0;
    std::set<std::uint32_t> seen;
    for (std::size_t pos = 0; pos < max_len; ++pos) {
        seen.clear();
        std::size_t present = 0;
        for (const Individual& ind : individuals) {
            if (pos < ind.code.size()) {
                seen.insert(ind.code[pos].defIndex);
                ++present;
            }
        }
        if (present > 0)
            sum += static_cast<double>(seen.size()) /
                   static_cast<double>(present);
    }
    return sum / static_cast<double>(max_len);
}

double
Population::averageFitness() const
{
    double sum = 0.0;
    int count = 0;
    for (const Individual& ind : individuals) {
        if (ind.evaluated) {
            sum += ind.fitness;
            ++count;
        }
    }
    return count > 0 ? sum / count : 0.0;
}

void
appendIndividualRecords(const isa::InstructionLibrary& lib,
                        const Individual& ind, std::string& out)
{
    out += "individual ";
    appendNumber(out, ind.id);
    out += ' ';
    appendNumber(out, ind.parent1);
    out += ' ';
    appendNumber(out, ind.parent2);
    out += ' ';
    appendNumber(out, ind.fitness);
    out += ind.evaluated ? " 1\nmeasurements " : " 0\nmeasurements ";
    appendNumber(out, ind.measurements.size());
    for (double v : ind.measurements) {
        out += ' ';
        appendNumber(out, v);
    }
    out += "\ncode ";
    appendNumber(out, ind.code.size());
    out += '\n';
    for (const isa::InstructionInstance& inst : ind.code) {
        out += lib.instruction(inst.defIndex).name;
        for (std::uint32_t choice : inst.operandChoice) {
            out += ' ';
            appendNumber(out, choice);
        }
        out += '\n';
    }
}

void
renderPopulation(const isa::InstructionLibrary& lib, const Population& pop,
                 PopulationText& out)
{
    out.text.assign("gest-population 1\ngeneration ");
    out.text += std::to_string(pop.generation);
    out.text += '\n';
    out.recordsBegin = out.text.size();
    for (const Individual& ind : pop.individuals)
        appendIndividualRecords(lib, ind, out.text);
    out.recordsEnd = out.text.size();
    out.text += "end\n";
}

std::string
serializePopulation(const isa::InstructionLibrary& lib,
                    const Population& pop)
{
    PopulationText out;
    renderPopulation(lib, pop, out);
    return std::move(out.text);
}

namespace {

/** @p field as an @p Int; fatal() when it is not one or does not fit. */
template <typename Int>
Int
parseField(std::string_view field, const char* what)
{
    const std::int64_t v = parseInt(field, what);
    if (std::cmp_less(v, std::numeric_limits<Int>::min()) ||
        std::cmp_greater(v, std::numeric_limits<Int>::max()))
        fatal(what, " '", field, "' is out of range");
    return static_cast<Int>(v);
}

/**
 * The lines of a population file, as split(text, '\n') gives them,
 * trimmed, with blank lines skipped. @p pos counts the lines taken, so
 * after an error it is the 1-based number of the line last read (or
 * one past the last line at the end of the text).
 */
class Lines
{
  public:
    Lines(std::string_view text, std::size_t& pos) : _rest(text), _pos(pos)
    {}

    /** The next non-blank line, trimmed; fatal() at the end. */
    std::string_view
    next()
    {
        while (!_done) {
            const std::size_t nl = _rest.find('\n');
            std::string_view line = _rest;
            if (nl == std::string_view::npos) {
                _done = true;
            } else {
                line = _rest.substr(0, nl);
                _rest.remove_prefix(nl + 1);
            }
            ++_pos;
            line = trimView(line);
            if (!line.empty())
                return line;
        }
        fatal("unexpected end of file");
    }

  private:
    std::string_view _rest;
    std::size_t& _pos;
    bool _done = false;
};

/**
 * The records of a population file; fatal() on the first error, with
 * @p pos left at the line it stopped after.
 */
Population
parseRecords(const isa::InstructionLibrary& lib, std::string_view text,
             std::size_t& pos)
{
    Lines lines(text, pos);
    // The fields of the current record, as views of its line; the
    // vector keeps its capacity, so a record allocates nothing.
    std::vector<std::string_view> fields;
    Population pop;
    splitWhitespaceInto(lines.next(), fields);
    if (fields.size() != 2 || fields[0] != "gest-population" ||
        fields[1] != "1")
        fatal("missing 'gest-population 1' header");
    splitWhitespaceInto(lines.next(), fields);
    if (fields.size() != 2 || fields[0] != "generation")
        fatal("missing 'generation' record");
    pop.generation = parseField<int>(fields[1], "generation");

    for (;;) {
        const std::string_view line = lines.next();
        if (line == "end")
            break;
        splitWhitespaceInto(line, fields);
        if (fields.size() != 6 || fields[0] != "individual")
            fatal("expected 'individual' record, got '", line, "'");
        Individual ind;
        ind.id = parseUint64(fields[1], "id");
        ind.parent1 = parseUint64(fields[2], "parent1");
        ind.parent2 = parseUint64(fields[3], "parent2");
        ind.fitness = parseDouble(fields[4], "fitness");
        ind.evaluated = parseInt(fields[5], "evaluated") != 0;

        splitWhitespaceInto(lines.next(), fields);
        if (fields.size() < 2 || fields[0] != "measurements")
            fatal("expected 'measurements' record");
        const std::size_t n_meas =
            parseUint64(fields[1], "measurement count");
        if (fields.size() != n_meas + 2)
            fatal("measurement count mismatch");
        ind.measurements.reserve(n_meas);
        for (std::size_t i = 0; i < n_meas; ++i)
            ind.measurements.push_back(
                parseDouble(fields[i + 2], "measurement value"));

        splitWhitespaceInto(lines.next(), fields);
        if (fields.size() != 2 || fields[0] != "code")
            fatal("expected 'code' record");
        const std::size_t n_code = parseUint64(fields[1], "code length");
        // The count is unchecked input: reserve no more than a body
        // could plausibly hold, and let a longer one grow.
        ind.code.reserve(std::min<std::size_t>(n_code, 4096));
        for (std::size_t i = 0; i < n_code; ++i) {
            splitWhitespaceInto(lines.next(), fields);
            if (fields.empty())
                fatal("empty instruction record");
            const int def_index = lib.findInstruction(fields[0]);
            if (def_index < 0)
                fatal("instruction '", fields[0],
                      "' is not in the current library");
            isa::InstructionInstance inst;
            inst.defIndex = static_cast<std::uint32_t>(def_index);
            inst.operandChoice.reserve(fields.size() - 1);
            for (std::size_t f = 1; f < fields.size(); ++f)
                inst.operandChoice.push_back(
                    parseField<std::uint32_t>(fields[f], "operand choice"));
            if (!lib.valid(inst))
                fatal("invalid encoding of instruction '", fields[0], "'");
            ind.code.push_back(std::move(inst));
        }
        pop.individuals.push_back(std::move(ind));
    }
    return pop;
}

} // namespace

Population
deserializePopulation(const isa::InstructionLibrary& lib,
                      const std::string& text, const std::string& source)
{
    std::size_t pos = 0;
    try {
        return parseRecords(lib, text, pos);
    } catch (const FatalError& err) {
        fatal(source, ":", pos, ": ", err.what());
    }
}

void
savePopulation(const isa::InstructionLibrary& lib, const Population& pop,
               const std::string& path)
{
    writeFile(path, serializePopulation(lib, pop));
}

Population
loadPopulation(const isa::InstructionLibrary& lib, const std::string& path)
{
    return deserializePopulation(lib, readFile(path), path);
}

} // namespace core
} // namespace gest
