#include "analysis/analytics.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "util/fileutil.hh"
#include "util/logging.hh"

namespace gest {
namespace analysis {

namespace {

/** Linear-interpolated quantile of a sorted sample. */
double
quantile(const std::vector<double>& sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double position =
        p * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(position);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = position - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

} // namespace

std::array<std::uint64_t, isa::numInstrClasses>
populationClassMix(const isa::InstructionLibrary& lib,
                   const core::Population& pop)
{
    std::array<std::uint64_t, isa::numInstrClasses> mix{};
    for (const core::Individual& ind : pop.individuals) {
        const std::array<int, isa::numInstrClasses> breakdown =
            core::classBreakdown(lib, ind);
        for (int c = 0; c < isa::numInstrClasses; ++c)
            mix[static_cast<std::size_t>(c)] +=
                static_cast<std::uint64_t>(
                    breakdown[static_cast<std::size_t>(c)]);
    }
    return mix;
}

double
geneEntropyBits(const core::Population& pop)
{
    if (pop.individuals.empty())
        return 0.0;
    std::size_t max_len = 0;
    for (const core::Individual& ind : pop.individuals)
        max_len = std::max(max_len, ind.code.size());
    if (max_len == 0)
        return 0.0;

    double total = 0.0;
    std::unordered_map<std::uint32_t, std::size_t> counts;
    for (std::size_t pos = 0; pos < max_len; ++pos) {
        counts.clear();
        std::size_t present = 0;
        for (const core::Individual& ind : pop.individuals) {
            if (pos < ind.code.size()) {
                ++counts[ind.code[pos].defIndex];
                ++present;
            }
        }
        if (present == 0)
            continue;
        double entropy = 0.0;
        for (const auto& [def, count] : counts) {
            const double f = static_cast<double>(count) /
                             static_cast<double>(present);
            entropy -= f * std::log2(f);
        }
        total += entropy;
    }
    return total / static_cast<double>(max_len);
}

double
pairwiseDiversity(const core::Population& pop)
{
    const std::size_t n = pop.individuals.size();
    if (n < 2)
        return 0.0;

    // Intern every distinct gene once, so the all-pairs loop compares
    // dense ids instead of operand vectors. Equal ids at a position mean
    // equal instances there, which is all the distance asks.
    struct GeneHash
    {
        std::size_t
        operator()(const isa::InstructionInstance* inst) const
        {
            std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ inst->defIndex;
            for (const std::uint32_t choice : inst->operandChoice)
                h = (h ^ choice) * 0x100000001b3ULL;
            return static_cast<std::size_t>(h ^ (h >> 29));
        }
    };
    struct GeneEqual
    {
        bool
        operator()(const isa::InstructionInstance* a,
                   const isa::InstructionInstance* b) const
        {
            return *a == *b;
        }
    };
    std::unordered_map<const isa::InstructionInstance*, std::uint32_t,
                       GeneHash, GeneEqual>
        ids;
    std::vector<std::size_t> begin(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i)
        begin[i + 1] = begin[i] + pop.individuals[i].code.size();
    std::vector<std::uint32_t> rows(begin[n]);
    ids.reserve(begin[n]);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t* row = rows.data() + begin[i];
        for (const isa::InstructionInstance& gene :
             pop.individuals[i].code)
            *row++ = ids.try_emplace(&gene,
                                     static_cast<std::uint32_t>(ids.size()))
                         .first->second;
    }

    // The per-pair terms and their (i < j) summation order are the
    // all-pairs definition's, so the double is the same bit for bit.
    double total = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t* a = rows.data() + begin[i];
        const std::size_t a_len = begin[i + 1] - begin[i];
        for (std::size_t j = i + 1; j < n; ++j) {
            const std::uint32_t* b = rows.data() + begin[j];
            const std::size_t b_len = begin[j + 1] - begin[j];
            const std::size_t len = std::max(a_len, b_len);
            if (len == 0)
                continue;
            const std::size_t common = std::min(a_len, b_len);
            std::size_t differing = len - common;
            // Fixed 8-wide chunks with a 32-bit count: GCC vectorizes
            // the inner loop at -O2, where it leaves the plain count
            // scalar.
            std::size_t pos = 0;
            for (; pos + 8 <= common; pos += 8) {
                std::uint32_t chunk = 0;
                for (std::size_t k = 0; k < 8; ++k)
                    chunk += a[pos + k] != b[pos + k];
                differing += chunk;
            }
            for (; pos < common; ++pos)
                differing += a[pos] != b[pos];
            total += static_cast<double>(differing) /
                     static_cast<double>(len);
            ++pairs;
        }
    }
    return pairs > 0 ? total / static_cast<double>(pairs) : 0.0;
}

AnalyticsRow
computeAnalytics(const isa::InstructionLibrary& lib,
                 const core::Population& pop)
{
    AnalyticsRow row;
    row.generation = pop.generation;
    row.classMix = populationClassMix(lib, pop);
    row.geneEntropyBits = geneEntropyBits(pop);
    row.pairwiseDiversity = pairwiseDiversity(pop);

    std::vector<double> fitness;
    fitness.reserve(pop.individuals.size());
    for (const core::Individual& ind : pop.individuals) {
        if (ind.evaluated)
            fitness.push_back(ind.fitness);
    }
    std::sort(fitness.begin(), fitness.end());
    if (!fitness.empty()) {
        row.fitnessMin = fitness.front();
        row.fitnessQ1 = quantile(fitness, 0.25);
        row.fitnessMedian = quantile(fitness, 0.5);
        row.fitnessQ3 = quantile(fitness, 0.75);
        row.fitnessMax = fitness.back();
    }
    return row;
}

AnalyticsWriter::AnalyticsWriter(std::string path)
    : _csv(ledger::analytics, std::move(path))
{}

void
AnalyticsWriter::append(const AnalyticsRow& row)
{
    std::ostringstream out;
    out.precision(17);
    out << row.generation;
    for (const std::uint64_t count : row.classMix)
        out << ',' << count;
    out << ',' << row.geneEntropyBits << ',' << row.pairwiseDiversity
        << ',' << row.fitnessMin << ',' << row.fitnessQ1 << ','
        << row.fitnessMedian << ',' << row.fitnessQ3 << ','
        << row.fitnessMax << ',' << row.crossoverChildren << ','
        << row.crossoverImproved << ',' << row.mutationChildren << ','
        << row.mutationImproved << ',' << row.eliteCopies << '\n';
    _csv.append(out.str());
}

std::vector<AnalyticsRow>
parseAnalytics(const std::string& text, const std::string& file)
{
    std::vector<AnalyticsRow> rows;
    const ledger::Decoder decoder = ledger::decode(
        ledger::analytics, file, text, [&](const ledger::Decoder& in) {
            auto count = [&](const std::string& column) {
                return static_cast<std::uint64_t>(in.number(column));
            };
            AnalyticsRow row;
            row.generation = static_cast<int>(in.number("generation"));
            for (int c = 0; c < isa::numInstrClasses; ++c) {
                const auto cls = static_cast<isa::InstrClass>(c);
                row.classMix[static_cast<std::size_t>(c)] =
                    count(std::string("mix_") + isa::classToken(cls));
            }
            row.geneEntropyBits = in.number("gene_entropy_bits");
            row.pairwiseDiversity = in.number("pairwise_diversity");
            row.fitnessMin = in.number("fitness_min");
            row.fitnessQ1 = in.number("fitness_q1");
            row.fitnessMedian = in.number("fitness_median");
            row.fitnessQ3 = in.number("fitness_q3");
            row.fitnessMax = in.number("fitness_max");
            row.crossoverChildren = count("crossover_children");
            row.crossoverImproved = count("crossover_improved");
            row.mutationChildren = count("mutation_children");
            row.mutationImproved = count("mutation_improved");
            row.eliteCopies = count("elite_copies");
            rows.push_back(row);
        });
    if (!decoder.hasHeader())
        fatal(file, " is empty — the run has not sealed its first "
              "generation yet");
    return rows;
}

bool
tryLoadAnalytics(const std::string& run_dir,
                 std::vector<AnalyticsRow>& out)
{
    const std::string path = run_dir + "/" + ledger::analytics.file;
    std::string text;
    if (!tryReadFile(path, text))
        return false;
    out = parseAnalytics(text, path);
    return true;
}

} // namespace analysis
} // namespace gest
