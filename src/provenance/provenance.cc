#include "provenance/provenance.hh"

#include <algorithm>
#include <filesystem>

#include "output/trace_writer.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/sha256.hh"
#include "util/strutil.hh"

namespace gest {
namespace provenance {

namespace fs = std::filesystem;

std::string
inferArtifactKind(const std::string& rel_path)
{
    if (rel_path == "history.csv")
        return "history";
    if (rel_path == "digests.csv")
        return "digests";
    if (rel_path == "lineage.csv")
        return "lineage";
    if (rel_path == "analytics.csv")
        return "analytics";
    if (rel_path == "status.json")
        return "status";
    if (rel_path == "metrics.json")
        return "stats";
    if (rel_path == "run_configuration.xml")
        return "config";
    if (rel_path == "run_template.txt")
        return "template";
    if (startsWith(rel_path, "population_") &&
        endsWith(rel_path, ".pop"))
        return "population";
    if (startsWith(rel_path, "waveforms/"))
        return "waveform";
    if (rel_path == "coverage.csv")
        return "coverage";
    if (rel_path == "alerts.csv")
        return "alerts";
    if (startsWith(rel_path, "attribution/"))
        return "attribution";
    if (endsWith(rel_path, "trace.json"))
        return "trace";
    return "other";
}

ProvenanceRecorder::ProvenanceRecorder(std::string run_dir)
    : _runDir(std::move(run_dir)), _ledger(_runDir)
{}

std::string
ProvenanceRecorder::seal(Manifest m, const ForEach& for_each,
                         output::TraceWriter* trace)
{
    if (_sealed)
        panic("ProvenanceRecorder::seal called twice for ", _runDir);
    _sealed = true;

    m.digestsSealed = _ledger.rowsSealed();
    m.digestMsTotal = _ledger.digestUsTotal() / 1000.0;
    fillBuildInfo(m);

    // Walk the run directory; sorted relative paths make the artifact
    // table deterministic across filesystems. Every walked path starts
    // with the root as given, so stripping it yields the relative path
    // (fs::relative would canonicalise both paths per file).
    std::vector<std::string> rel_paths;
    {
        output::ScopedSpan span(trace, "manifest walk", "seal");
        std::string root = fs::path(_runDir).generic_string();
        if (root.empty() || root.back() != '/')
            root += '/';
        std::error_code ec;
        for (fs::recursive_directory_iterator it(_runDir, ec), end;
             !ec && it != end; it.increment(ec)) {
            if (!it->is_regular_file(ec))
                continue;
            std::string rel = it->path().generic_string();
            if (!startsWith(rel, root))
                continue;
            rel.erase(0, root.size());
            if (rel.empty() || rel == "manifest.json")
                continue;
            rel_paths.push_back(std::move(rel));
        }
        std::sort(rel_paths.begin(), rel_paths.end());
    }

    // An entry whose file cannot be read keeps an empty checksum.
    std::vector<ArtifactEntry> entries(rel_paths.size());
    {
        output::ScopedSpan span(
            trace, "manifest hash", "seal",
            {{"files", static_cast<double>(rel_paths.size())}});
        for_each(rel_paths.size(), [&](std::size_t i) {
            sha256File(_runDir + "/" + rel_paths[i], entries[i].sha256,
                       &entries[i].bytes);
        });
    }
    for (std::size_t i = 0; i < rel_paths.size(); ++i) {
        if (entries[i].sha256.empty()) {
            warn("cannot checksum ", _runDir, "/", rel_paths[i],
                 "; leaving it out of the manifest");
            continue;
        }
        ArtifactEntry& entry = entries[i];
        entry.path = rel_paths[i];
        entry.kind = inferArtifactKind(entry.path);
        m.artifacts.push_back(std::move(entry));
    }

    const std::string path = _runDir + "/manifest.json";
    writeFile(path, formatManifest(m));
    debug("provenance sealed: ", m.artifacts.size(), " artifacts, ",
          m.digestsSealed, " digests in ", path);
    return path;
}

} // namespace provenance
} // namespace gest
