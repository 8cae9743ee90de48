#include "analysis/lineage.hh"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace analysis {

const char*
toString(BirthOp op)
{
    switch (op) {
      case BirthOp::Seed:      return "seed";
      case BirthOp::Resumed:   return "resumed";
      case BirthOp::Crossover: return "crossover";
      case BirthOp::Mutation:  return "mutation";
      case BirthOp::EliteCopy: return "elite_copy";
    }
    panic("unhandled BirthOp");
}

bool
birthOpFromString(std::string_view s, BirthOp& out)
{
    if (s == "seed")       { out = BirthOp::Seed;      return true; }
    if (s == "resumed")    { out = BirthOp::Resumed;   return true; }
    if (s == "crossover")  { out = BirthOp::Crossover; return true; }
    if (s == "mutation")   { out = BirthOp::Mutation;  return true; }
    if (s == "elite_copy") { out = BirthOp::EliteCopy; return true; }
    return false;
}

LineageLedger::LineageLedger(std::string path)
    : _csv(ledger::lineage, std::move(path))
{}

void
LineageLedger::recordBirth(LineageEvent event)
{
    _pending.push_back(std::move(event));
}

std::vector<LineageEvent>
LineageLedger::sealGeneration(const core::Population& pop)
{
    std::unordered_map<std::uint64_t, double> generation_fitness;
    generation_fitness.reserve(pop.individuals.size());
    for (const core::Individual& ind : pop.individuals) {
        if (ind.evaluated)
            generation_fitness.emplace(ind.id, ind.fitness);
    }

    std::ostringstream out;
    out.precision(17);

    std::vector<LineageEvent> sealed;
    sealed.reserve(_pending.size());
    for (LineageEvent& event : _pending) {
        const auto it = generation_fitness.find(event.id);
        if (it != generation_fitness.end())
            event.fitness = it->second;
        _fitnessById[event.id] = event.fitness;

        out << event.generation << ',' << event.id << ','
            << toString(event.op) << ',' << event.parent1 << ','
            << event.parent2 << ',' << event.mutatedGenes.size() << ',';
        for (std::size_t i = 0; i < event.mutatedGenes.size(); ++i) {
            if (i > 0)
                out << ';';
            out << event.mutatedGenes[i];
        }
        out << ',' << event.fitness << '\n';
        sealed.push_back(std::move(event));
    }
    _csv.append(out.str());
    _pending.clear();
    _sealed += sealed.size();
    return sealed;
}

bool
LineageLedger::fitnessOf(std::uint64_t id, double& out) const
{
    const auto it = _fitnessById.find(id);
    if (it == _fitnessById.end())
        return false;
    out = it->second;
    return true;
}

std::vector<LineageEvent>
parseLineage(const std::string& text, const std::string& file)
{
    std::vector<LineageEvent> events;
    const ledger::Decoder decoder = ledger::decode(
        ledger::lineage, file, text, [&](const ledger::Decoder& row) {
            LineageEvent event;
            event.generation = static_cast<int>(row.integer("generation"));
            event.id = static_cast<std::uint64_t>(row.integer("id"));
            if (!birthOpFromString(row.text("op"), event.op))
                fatal(row.where(), ": unknown op '", row.text("op"),
                      "' — was the file written by a newer gest?");
            event.parent1 =
                static_cast<std::uint64_t>(row.integer("parent1"));
            event.parent2 =
                static_cast<std::uint64_t>(row.integer("parent2"));
            const std::string& indices = row.text("mutated_indices");
            if (!indices.empty()) {
                for (const std::string& g : split(indices, ';'))
                    event.mutatedGenes.push_back(
                        static_cast<std::uint32_t>(parseInt(
                            g, "mutated gene index (" + row.where() +
                                   ")")));
            }
            event.fitness = row.number("fitness");
            events.push_back(std::move(event));
        });
    if (!decoder.hasHeader())
        fatal(file, " is empty — the run has not sealed its first "
              "generation yet (or analytics were disabled with "
              "<output analytics=\"false\"/>)");
    return events;
}

std::vector<LineageEvent>
loadLineage(const std::string& run_dir)
{
    if (!dirExists(run_dir))
        fatal("run directory '", run_dir, "' does not exist");
    const std::string path = run_dir + "/" + ledger::lineage.file;
    std::string text;
    if (!tryReadFile(path, text))
        fatal("no lineage.csv in '", run_dir, "' — the run predates the "
              "analytics subsystem or was run with <output "
              "analytics=\"false\"/>; rerun with analytics enabled to "
              "record lineage");
    return parseLineage(text, path);
}

Ancestry
championAncestry(const std::vector<LineageEvent>& events)
{
    if (events.empty())
        fatal("cannot reconstruct ancestry from an empty lineage");

    // Birth lookup: first record per id. Elite-copy rows re-record an
    // id in later generations; the first row is the true birth.
    std::unordered_map<std::uint64_t, std::size_t> birth;
    birth.reserve(events.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        birth.emplace(events[i].id, i);

    // Champion: highest fitness, earliest generation then lowest id on
    // ties, over true birth rows only.
    std::size_t champion = events.size();
    for (const auto& [event_id, index] : birth) {
        if (champion == events.size()) {
            champion = index;
            continue;
        }
        const LineageEvent& a = events[index];
        const LineageEvent& b = events[champion];
        if (a.fitness > b.fitness ||
            (a.fitness == b.fitness &&
             (a.generation < b.generation ||
              (a.generation == b.generation && a.id < b.id))))
            champion = index;
    }

    Ancestry out;
    out.reachesGeneration0 = true;

    // Full ancestor set, breadth-first over both parents.
    std::unordered_set<std::uint64_t> seen;
    std::vector<std::size_t> frontier{champion};
    seen.insert(events[champion].id);
    while (!frontier.empty()) {
        const std::size_t index = frontier.back();
        frontier.pop_back();
        const LineageEvent& event = events[birth.at(events[index].id)];
        ++out.ancestorCount;
        ++out.opCounts[static_cast<std::size_t>(event.op)];
        if (event.op == BirthOp::Seed || event.op == BirthOp::Resumed) {
            if (event.generation != 0)
                out.reachesGeneration0 = false;
            // A resumed individual's checkpoint parents predate this
            // ledger; surface them instead of chasing them.
            if (event.op == BirthOp::Resumed) {
                for (const std::uint64_t parent :
                     {event.parent1, event.parent2}) {
                    if (parent != 0)
                        out.unknownParents.push_back(parent);
                }
            }
            continue;
        }
        for (const std::uint64_t parent : {event.parent1, event.parent2}) {
            if (parent == 0 || !seen.insert(parent).second)
                continue;
            const auto it = birth.find(parent);
            if (it == birth.end()) {
                // Ancestor predates the ledger (resumed run).
                out.unknownParents.push_back(parent);
                out.reachesGeneration0 = false;
                continue;
            }
            frontier.push_back(it->second);
        }
    }
    std::sort(out.unknownParents.begin(), out.unknownParents.end());
    out.unknownParents.erase(std::unique(out.unknownParents.begin(),
                                         out.unknownParents.end()),
                             out.unknownParents.end());

    // Primary descent line: follow the fitter known parent.
    std::size_t index = champion;
    for (;;) {
        out.chain.push_back(index);
        const LineageEvent& event = events[index];
        if (event.op == BirthOp::Seed || event.op == BirthOp::Resumed)
            break;
        const auto p1 = birth.find(event.parent1);
        const auto p2 = birth.find(event.parent2);
        if (p1 == birth.end() && p2 == birth.end())
            break; // both parents predate the ledger
        if (p1 == birth.end()) {
            index = p2->second;
        } else if (p2 == birth.end()) {
            index = p1->second;
        } else {
            index = events[p2->second].fitness > events[p1->second].fitness
                        ? p2->second
                        : p1->second;
        }
    }
    return out;
}

} // namespace analysis
} // namespace gest
