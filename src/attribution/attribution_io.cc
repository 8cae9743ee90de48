#include "attribution/attribution_io.hh"

#include "util/fileutil.hh"
#include "util/strutil.hh"

namespace gest {
namespace attribution {

std::string
formatAttributionCsv(const AttributionResult& result)
{
    std::string out;
    out += "# gest-attribution v" +
           std::to_string(attributionCsvVersion) + "\n";
    out += "# annotation individual_id " +
           std::to_string(result.individualId) + "\n";
    if (result.generation >= 0)
        out += "# annotation generation " +
               std::to_string(result.generation) + "\n";
    out += "# annotation baseline_fitness ";
    appendNumber(out, result.baselineFitness);
    out += "\n# annotation sum_delta ";
    appendNumber(out, result.sumDelta);
    out += "\n# annotation whole_ablation_delta ";
    appendNumber(out, result.wholeAblationDelta);
    out += "\n";
    out += "# annotation evaluations " +
           std::to_string(result.evaluationsUsed) + "\n";
    out += "# annotation genes " + std::to_string(result.genes.size()) +
           "\n";
    out += "# filler " + result.fillerInstruction + " strategy " +
           (result.fillerIsNop ? "nop" : "same-class") + "\n";
    out += "gene,instruction,class,operands,delta_fitness,"
           "fitness_without\n";
    for (const GeneAttribution& g : result.genes) {
        out += std::to_string(g.index) + "," + g.instruction + "," +
               isa::classToken(g.cls) + "," + g.operands + ",";
        appendNumber(out, g.deltaFitness);
        out += ",";
        appendNumber(out, g.fitnessWithout);
        out += "\n";
    }
    return out;
}

std::string
writeAttributionArtifacts(const std::string& dir,
                          const std::string& basename,
                          const AttributionResult& result)
{
    ensureDir(dir);
    const std::string path = dir + "/" + basename + ".csv";
    writeFile(path, formatAttributionCsv(result));
    return path;
}

} // namespace attribution
} // namespace gest
