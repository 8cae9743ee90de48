#include "core/population.hh"

#include <algorithm>
#include <charconv>
#include <limits>
#include <set>
#include <type_traits>
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

namespace {

void
appendNumber(std::string& out, double v)
{
    // The bytes a precision(17) stream prints (%.17g) for every
    // double, NaN and infinities included, without the stream.
    char buf[32];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof(buf), v, std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

template <typename Int>
    requires std::is_integral_v<Int>
void
appendNumber(std::string& out, Int v)
{
    char buf[24];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, r.ptr);
}

} // namespace

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
parseField(const std::string& field, const char* what)
{
    const std::int64_t v = parseInt(field, what);
    if (std::cmp_less(v, std::numeric_limits<Int>::min()) ||
        std::cmp_greater(v, std::numeric_limits<Int>::max()))
        fatal(what, " '", field, "' is out of range");
    return static_cast<Int>(v);
}

/**
 * The records of a population file; fatal() on the first error, with
 * @p pos left at the line it stopped after.
 */
Population
parseRecords(const isa::InstructionLibrary& lib,
             const std::vector<std::string>& lines, std::size_t& pos)
{
    auto next_line = [&]() -> std::string {
        while (pos < lines.size()) {
            const std::string t = trim(lines[pos++]);
            if (!t.empty())
                return t;
        }
        fatal("unexpected end of file");
    };

    Population pop;
    {
        const std::vector<std::string> header =
            splitWhitespace(next_line());
        if (header.size() != 2 || header[0] != "gest-population" ||
            header[1] != "1")
            fatal("missing 'gest-population 1' header");
    }
    {
        const std::vector<std::string> gen = splitWhitespace(next_line());
        if (gen.size() != 2 || gen[0] != "generation")
            fatal("missing 'generation' record");
        pop.generation = parseField<int>(gen[1], "generation");
    }

    for (;;) {
        const std::string line = next_line();
        if (line == "end")
            break;
        const std::vector<std::string> fields = splitWhitespace(line);
        if (fields.size() != 6 || fields[0] != "individual")
            fatal("expected 'individual' record, got '", line, "'");
        Individual ind;
        ind.id = parseUint64(fields[1], "id");
        ind.parent1 = parseUint64(fields[2], "parent1");
        ind.parent2 = parseUint64(fields[3], "parent2");
        ind.fitness = parseDouble(fields[4], "fitness");
        ind.evaluated = parseInt(fields[5], "evaluated") != 0;

        const std::vector<std::string> meas =
            splitWhitespace(next_line());
        if (meas.size() < 2 || meas[0] != "measurements")
            fatal("expected 'measurements' record");
        const std::size_t n_meas =
            parseUint64(meas[1], "measurement count");
        if (meas.size() != n_meas + 2)
            fatal("measurement count mismatch");
        for (std::size_t i = 0; i < n_meas; ++i)
            ind.measurements.push_back(
                parseDouble(meas[i + 2], "measurement value"));

        const std::vector<std::string> code = splitWhitespace(next_line());
        if (code.size() != 2 || code[0] != "code")
            fatal("expected 'code' record");
        const std::size_t n_code = parseUint64(code[1], "code length");
        for (std::size_t i = 0; i < n_code; ++i) {
            const std::vector<std::string> gene =
                splitWhitespace(next_line());
            if (gene.empty())
                fatal("empty instruction record");
            const int def_index = lib.findInstruction(gene[0]);
            if (def_index < 0)
                fatal("instruction '", gene[0],
                      "' is not in the current library");
            isa::InstructionInstance inst;
            inst.defIndex = static_cast<std::uint32_t>(def_index);
            for (std::size_t f = 1; f < gene.size(); ++f)
                inst.operandChoice.push_back(
                    parseField<std::uint32_t>(gene[f], "operand choice"));
            if (!lib.valid(inst))
                fatal("invalid encoding of instruction '", gene[0], "'");
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
    const std::vector<std::string> lines = split(text, '\n');
    std::size_t pos = 0;
    try {
        return parseRecords(lib, lines, pos);
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
