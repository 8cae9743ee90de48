#include "attribution/attribution_io.hh"

#include <cstdio>

#include "util/fileutil.hh"

namespace gest {
namespace attribution {

namespace {

std::string
g17(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

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
    out += "# annotation baseline_fitness " +
           g17(result.baselineFitness) + "\n";
    out += "# annotation sum_delta " + g17(result.sumDelta) + "\n";
    out += "# annotation whole_ablation_delta " +
           g17(result.wholeAblationDelta) + "\n";
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
               isa::classToken(g.cls) + "," + g.operands + "," +
               g17(g.deltaFitness) + "," + g17(g.fitnessWithout) + "\n";
    }
    return out;
}

std::string
formatAttributionJson(const AttributionResult& result)
{
    std::string out = "{\n";
    out += "  \"version\": " + std::to_string(attributionCsvVersion) +
           ",\n";
    out += "  \"individual_id\": " +
           std::to_string(result.individualId) + ",\n";
    out += "  \"generation\": " + std::to_string(result.generation) +
           ",\n";
    out += "  \"baseline_fitness\": " + g17(result.baselineFitness) +
           ",\n";
    out += "  \"filler\": {\"instruction\": \"" +
           result.fillerInstruction + "\", \"strategy\": \"" +
           (result.fillerIsNop ? "nop" : "same-class") + "\"},\n";
    out += "  \"sum_delta\": " + g17(result.sumDelta) + ",\n";
    out += "  \"whole_ablation_delta\": " +
           g17(result.wholeAblationDelta) + ",\n";
    out += "  \"evaluations\": " +
           std::to_string(result.evaluationsUsed) + ",\n";

    out += "  \"genes\": [";
    for (std::size_t i = 0; i < result.genes.size(); ++i) {
        const GeneAttribution& g = result.genes[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    {\"gene\": " + std::to_string(g.index) +
               ", \"instruction\": \"" + g.instruction +
               "\", \"class\": \"" + isa::classToken(g.cls) +
               "\", \"operands\": \"" + g.operands +
               "\", \"delta_fitness\": " + g17(g.deltaFitness) +
               ", \"fitness_without\": " + g17(g.fitnessWithout) + "}";
    }
    out += result.genes.empty() ? "],\n" : "\n  ],\n";

    out += "  \"classes\": [";
    for (std::size_t i = 0; i < result.classes.size(); ++i) {
        const ClassAttribution& c = result.classes[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    {\"class\": \"" + std::string(isa::classToken(c.cls)) +
               "\", \"genes\": " + std::to_string(c.genes) +
               ", \"delta_sum\": " + g17(c.deltaSum) + "}";
    }
    out += result.classes.empty() ? "],\n" : "\n  ],\n";

    out += "  \"operand_bins\": [";
    for (std::size_t i = 0; i < result.operandBins.size(); ++i) {
        const OperandBinAttribution& b = result.operandBins[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    {\"bin\": \"" + b.key +
               "\", \"genes\": " + std::to_string(b.genes) +
               ", \"delta_sum\": " + g17(b.deltaSum) + "}";
    }
    out += result.operandBins.empty() ? "],\n" : "\n  ],\n";

    out += "  \"top_genes\": [";
    for (std::size_t i = 0; i < result.topGenes.size(); ++i) {
        out += i == 0 ? "" : ", ";
        out += std::to_string(result.topGenes[i]);
    }
    out += "]\n}\n";
    return out;
}

AttributionArtifacts
writeAttributionArtifacts(const std::string& dir,
                          const std::string& basename,
                          const AttributionResult& result)
{
    ensureDir(dir);
    AttributionArtifacts artifacts;
    artifacts.csvPath = dir + "/" + basename + ".csv";
    artifacts.jsonPath = dir + "/" + basename + ".json";
    writeFile(artifacts.csvPath, formatAttributionCsv(result));
    writeFile(artifacts.jsonPath, formatAttributionJson(result));
    return artifacts;
}

} // namespace attribution
} // namespace gest
