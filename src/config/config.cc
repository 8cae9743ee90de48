#include "config/config.hh"

#include "isa/standard_libs.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gest {
namespace config {

namespace {

std::string
resolvePath(const std::string& base_dir, const std::string& path)
{
    if (path.empty() || path.front() == '/')
        return path;
    return base_dir + "/" + path;
}

void
parseGaElement(const xml::Element& ga, core::GaParams& params)
{
    if (ga.hasAttr("population_size"))
        params.populationSize = static_cast<int>(
            parseInt(ga.attr("population_size"), "population_size"));
    if (ga.hasAttr("individual_size"))
        params.individualSize = static_cast<int>(
            parseInt(ga.attr("individual_size"), "individual_size"));
    if (ga.hasAttr("mutation_rate"))
        params.mutationRate =
            parseDouble(ga.attr("mutation_rate"), "mutation_rate");
    if (ga.hasAttr("operand_mutation_prob"))
        params.operandMutationProb =
            parseDouble(ga.attr("operand_mutation_prob"),
                        "operand_mutation_prob");
    if (ga.hasAttr("crossover_operator"))
        params.crossover =
            core::crossoverFromString(ga.attr("crossover_operator"));
    if (ga.hasAttr("parent_selection_method"))
        params.selection = core::selectionFromString(
            ga.attr("parent_selection_method"));
    if (ga.hasAttr("tournament_size"))
        params.tournamentSize = static_cast<int>(
            parseInt(ga.attr("tournament_size"), "tournament_size"));
    if (ga.hasAttr("elitism"))
        params.elitism = parseBool(ga.attr("elitism"), "elitism");
    if (ga.hasAttr("generations"))
        params.generations = static_cast<int>(
            parseInt(ga.attr("generations"), "generations"));
    if (ga.hasAttr("stagnation_limit"))
        params.stagnationLimit = static_cast<int>(parseInt(
            ga.attr("stagnation_limit"), "stagnation_limit"));
    if (ga.hasAttr("seed"))
        params.seed =
            static_cast<std::uint64_t>(parseInt(ga.attr("seed"), "seed"));
    if (ga.hasAttr("threads"))
        params.threads =
            static_cast<int>(parseInt(ga.attr("threads"), "threads"));
    if (ga.hasAttr("fitness_cache_size"))
        params.fitnessCacheSize = static_cast<int>(parseInt(
            ga.attr("fitness_cache_size"), "fitness_cache_size"));
}

void
parseOperands(const xml::Element& operands, isa::InstructionLibrary& lib)
{
    for (const xml::Element* op : operands.childrenNamed("operand")) {
        const std::string id = op->attr("id");
        const std::string type = toLower(op->attrOr("type", "register"));
        if (type == "register") {
            lib.addOperand(isa::OperandDef::makeRegisters(
                id, splitWhitespace(op->attr("values"))));
        } else if (type == "immediate") {
            lib.addOperand(isa::OperandDef::makeImmediate(
                id, parseInt(op->attr("min"), "operand min"),
                parseInt(op->attr("max"), "operand max"),
                parseInt(op->attrOr("stride", "1"), "operand stride")));
        } else {
            fatal("operand '", id, "' (line ", op->line(),
                  ") has unknown type '", type, "'");
        }
    }
}

isa::Opcode
resolveSemantic(const xml::Element& inst, const std::string& name,
                const std::string& format)
{
    isa::Opcode opcode;
    if (inst.hasAttr("semantic")) {
        if (!isa::opcodeFromMnemonic(inst.attr("semantic"), opcode))
            fatal("instruction '", name, "': unknown semantic '",
                  inst.attr("semantic"), "'");
        return opcode;
    }
    if (isa::opcodeFromMnemonic(name, opcode))
        return opcode;
    const std::vector<std::string> words = splitWhitespace(format);
    if (!words.empty() && isa::opcodeFromMnemonic(words[0], opcode))
        return opcode;
    fatal("instruction '", name, "' (line ", inst.line(),
          "): cannot infer its semantic from the name or format; add a "
          "semantic=\"...\" attribute (e.g. semantic=\"fmul\")");
}

void
parseInstructions(const xml::Element& instructions,
                  isa::InstructionLibrary& lib)
{
    for (const xml::Element* inst :
         instructions.childrenNamed("instruction")) {
        const std::string name = inst->attr("name");
        const std::string format = inst->attr("format");

        std::vector<std::string> operand_ids;
        for (int slot = 1;; ++slot) {
            const std::string attr = "operand" + std::to_string(slot);
            if (!inst->hasAttr(attr))
                break;
            operand_ids.push_back(inst->attr(attr));
        }
        if (inst->hasAttr("num_of_operands")) {
            const std::int64_t declared = parseInt(
                inst->attr("num_of_operands"), "num_of_operands");
            if (declared != static_cast<std::int64_t>(operand_ids.size()))
                fatal("instruction '", name, "' (line ", inst->line(),
                      ") declares ", declared, " operands but defines ",
                      operand_ids.size());
        }

        const isa::InstrClass cls =
            isa::instrClassFromString(inst->attrOr("type", "int"));
        lib.addInstruction(name, operand_ids, format, cls,
                           resolveSemantic(*inst, name, format));
    }
}

} // namespace

RunConfig
parseConfig(const std::string& text, const std::string& base_dir,
            const ParseOptions& options)
{
    RunConfig cfg;
    cfg.rawText = text;
    cfg.configBaseDir = base_dir;
    cfg.mainDoc = std::make_shared<xml::Document>(
        xml::parse(text, "main configuration"));
    const xml::Element& root = cfg.mainDoc->root();
    if (root.name() != "gest_configuration")
        fatal("configuration root element must be <gest_configuration>, "
              "got <", root.name(), ">");

    if (const xml::Element* ga = root.child("ga"))
        parseGaElement(*ga, cfg.ga);

    // Bundled library first so user definitions can reference or extend
    // its operand pools.
    if (const xml::Element* lib_elem = root.child("library")) {
        const std::string name = toLower(lib_elem->attr("name"));
        if (name == "arm")
            cfg.library = isa::armLikeLibrary();
        else if (name == "armv7")
            cfg.library = isa::armV7LikeLibrary();
        else if (name == "x86")
            cfg.library = isa::x86LikeLibrary();
        else if (name == "cache-stress")
            cfg.library = isa::armCacheStressLibrary();
        else
            fatal("unknown bundled library '", name,
                  "'; available: arm, armv7, x86, cache-stress");
    }
    if (const xml::Element* operands = root.child("operands"))
        parseOperands(*operands, cfg.library);
    if (const xml::Element* instructions = root.child("instructions"))
        parseInstructions(*instructions, cfg.library);
    if (cfg.library.numInstructions() == 0)
        fatal("configuration defines no instructions: add a <library> "
              "element or an <instructions> section");

    auto load_component = [&](const char* tag, std::string& cls,
                              std::shared_ptr<xml::Document>& doc,
                              const xml::Element*& config_elem) {
        const xml::Element* elem = root.child(tag);
        if (!elem)
            return;
        if (elem->hasAttr("class"))
            cls = elem->attr("class");
        if (elem->hasAttr("config")) {
            if (options.loadReferencedFiles) {
                doc = std::make_shared<xml::Document>(xml::parseFile(
                    resolvePath(base_dir, elem->attr("config"))));
                config_elem = &doc->root();
            }
        } else if (const xml::Element* inline_cfg =
                       elem->child("config")) {
            config_elem = inline_cfg;
        }
    };
    load_component("measurement", cfg.measurementClass,
                   cfg.measurementDoc, cfg.measurementConfig);
    load_component("fitness", cfg.fitnessClass, cfg.fitnessDoc,
                   cfg.fitnessConfig);

    if (const xml::Element* out = root.child("output")) {
        cfg.outputDirectory =
            resolvePath(base_dir, out->attr("directory"));
        if (out->hasAttr("trace")) {
            const std::string& trace_base = cfg.outputDirectory.empty()
                                                ? base_dir
                                                : cfg.outputDirectory;
            cfg.traceFile = resolvePath(trace_base, out->attr("trace"));
        }
        if (out->hasAttr("stats"))
            cfg.recordStats =
                parseBool(out->attr("stats"), "output stats");
        if (out->hasAttr("analytics"))
            cfg.recordAnalytics =
                parseBool(out->attr("analytics"), "output analytics");
        if (out->hasAttr("provenance"))
            cfg.recordProvenance =
                parseBool(out->attr("provenance"), "output provenance");
        if (out->hasAttr("coverage"))
            cfg.recordCoverage =
                parseBool(out->attr("coverage"), "output coverage");
        if (out->hasAttr("attribution"))
            cfg.recordAttribution = parseBool(
                out->attr("attribution"), "output attribution");
        if (out->hasAttr("health"))
            cfg.recordHealth =
                parseBool(out->attr("health"), "output health");
        if (out->hasAttr("health_plateau"))
            cfg.healthRules.plateauGenerations =
                static_cast<int>(parseInt(out->attr("health_plateau"),
                                          "output health_plateau"));
        if (out->hasAttr("health_collapse_factor"))
            cfg.healthRules.throughputCollapseFactor =
                parseDouble(out->attr("health_collapse_factor"),
                            "output health_collapse_factor");
        if (out->hasAttr("health_cache_floor"))
            cfg.healthRules.cacheHitRateFloor =
                parseDouble(out->attr("health_cache_floor"),
                            "output health_cache_floor");
        if (out->hasAttr("health_coverage_stall"))
            cfg.healthRules.coverageStallGenerations =
                static_cast<int>(
                    parseInt(out->attr("health_coverage_stall"),
                             "output health_coverage_stall"));
        if (out->hasAttr("health_starvation_share"))
            cfg.healthRules.workerStarvationShare =
                parseDouble(out->attr("health_starvation_share"),
                            "output health_starvation_share");
        if (out->hasAttr("listen"))
            cfg.listenAddress = out->attr("listen");
        if (out->hasAttr("waveforms")) {
            const std::int64_t top_k =
                parseInt(out->attr("waveforms"), "output waveforms");
            if (top_k < 0)
                fatal("output waveforms must be non-negative, got ",
                      top_k);
            cfg.waveformTopK = static_cast<int>(top_k);
        }
    }
    if (const xml::Element* seed = root.child("seed_population"))
        cfg.seedPopulationPath =
            resolvePath(base_dir, seed->attr("file"));
    if (const xml::Element* tmpl = root.child("template")) {
        if (tmpl->hasAttr("file")) {
            if (options.loadReferencedFiles)
                cfg.asmTemplate = isa::AsmTemplate::fromFile(
                    resolvePath(base_dir, tmpl->attr("file")));
        } else if (!tmpl->text().empty()) {
            cfg.asmTemplate = isa::AsmTemplate(tmpl->text());
        }
    }

    cfg.ga.validate();
    return cfg;
}

RunConfig
loadConfig(const std::string& path)
{
    std::string base_dir = ".";
    const std::size_t slash = path.find_last_of('/');
    if (slash != std::string::npos)
        base_dir = path.substr(0, slash);
    return parseConfig(readFile(path), base_dir);
}

} // namespace config
} // namespace gest
