/**
 * @file
 * Attribution artifact I/O: the `# gest-attribution v1` CSV
 * (docs/attribution.md, "Artifact format").
 *
 * The CSV leads with `# annotation <key> <value>` comment lines
 * (individual id, baseline fitness, the delta sums, evaluation count)
 * and a `# filler` line naming the substitute instruction, then one
 * row per gene. Doubles render at %.17g so a reader can round-trip
 * them exactly; tools/check_attribution.py validates the schema end
 * to end.
 */

#ifndef GEST_ATTRIBUTION_ATTRIBUTION_IO_HH
#define GEST_ATTRIBUTION_ATTRIBUTION_IO_HH

#include <string>

#include "attribution/attribution.hh"

namespace gest {
namespace attribution {

/** Attribution CSV format version written by this build. */
constexpr int attributionCsvVersion = 1;

/** Render @p result as the `# gest-attribution v1` CSV. */
std::string formatAttributionCsv(const AttributionResult& result);

/**
 * Write `<dir>/<basename>.csv` (the directory is created if absent)
 * and return its path.
 */
std::string writeAttributionArtifacts(
    const std::string& dir, const std::string& basename,
    const AttributionResult& result);

} // namespace attribution
} // namespace gest

#endif // GEST_ATTRIBUTION_ATTRIBUTION_IO_HH
