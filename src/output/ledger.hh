/**
 * @file
 * The run directory's six per-generation CSV ledgers — history,
 * lineage, analytics, digests, coverage and alerts — declared once and
 * written and read through one framing (docs/observability.md, "Ledger
 * format"):
 *
 *     # gest-<name> v<N>     version line
 *     # ...                  optional comment preamble
 *     generation,...         header row
 *     <row>                  one complete line per append
 *
 * Columns are append-only across versions, so a reader maps the header
 * by name and reads a column the file predates as 0. A file newer than
 * this build is rejected. A writer killed mid-append leaves an
 * unterminated last line: readers drop it as a torn append, so a killed
 * run still reads up to its last complete row. Any other short row is
 * damage, and fatal() names the file and line.
 *
 * Writers format their own rows (the precisions differ per ledger);
 * this module owns the version line, preamble and header.
 */

#ifndef GEST_OUTPUT_LEDGER_HH
#define GEST_OUTPUT_LEDGER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace gest {
namespace ledger {

/** One ledger's declared schema. */
struct Schema
{
    std::string file;  ///< name in the run directory, e.g. "history.csv"
    std::string tag;   ///< version-line tag, e.g. "gest-history"
    int version = 1;   ///< written by this build; newer files are refused
    std::vector<std::string> columns;  ///< header row, in file order
};

/**
 * history.csv, one row per generation (output::RunWriter). v1 had no
 * version line and ended at cache_misses; v2 appended the per-phase
 * milliseconds.
 */
extern const Schema history;
/** lineage.csv, one row per birth event (analysis::LineageLedger). */
extern const Schema lineage;
/**
 * analytics.csv, one row per generation (analysis::AnalyticsWriter);
 * one mix_<class> count per instruction class.
 */
extern const Schema analytics;
/** digests.csv, one population digest per generation. */
extern const Schema digests;
/**
 * coverage.csv, one row per generation; its preamble records the
 * universe size, and one seen_<class> column per instruction class.
 */
extern const Schema coverage;
/** alerts.csv, one row per raised alert; written at open, not lazily. */
extern const Schema alerts;

/** Appends rows to one ledger file. */
class Writer
{
  public:
    /**
     * @param preamble comment lines ("# ...\n" each) written between
     *        the version line and the header
     */
    Writer(const Schema& schema, std::string path,
           std::string preamble = "");

    /**
     * Replace the file with the version line, preamble and header now,
     * so a ledger with no rows yet is still schema-valid.
     */
    void open();

    /**
     * Append complete rows. The first write of a ledger that was not
     * open()ed replaces the file, head first.
     */
    void append(const std::string& rows);

    const std::string& path() const { return _path; }

  private:
    const Schema* _schema;
    std::string _path;
    std::string _preamble;
    bool _open = false;
};

/**
 * Decodes a ledger line by line. Fed complete lines (newline
 * stripped), by decode().
 */
class Decoder
{
  public:
    /** @param file the name errors cite (a path or the file name) */
    Decoder(const Schema& schema, std::string file);

    /**
     * Decode the next line. @return true when it is a data row, then
     * readable through the accessors until the next call. fatal() on
     * another ledger's version line, a version newer than the
     * schema's, a header not starting with the schema's first column,
     * or a row with fewer cells than the header.
     */
    bool feed(const std::string& line);

    bool hasHeader() const { return !_header.empty(); }

    /** The file's version; 1 when it has no version line. */
    int version() const { return _version; }

    /** True when the header carries @p column. */
    bool has(const std::string& column) const;

    // The current row's cell in a schema column; a column the file
    // predates reads as 0 (or ""). A malformed number is fatal().
    double number(const std::string& column) const;
    std::int64_t integer(const std::string& column) const;
    const std::string& text(const std::string& column) const;

    /** "<file>:<line>" of the last fed line, for callers' messages. */
    std::string where() const;

  private:
    /** Header position of a schema column, -1 when absent. */
    int position(const std::string& column) const;

    const Schema* _schema;
    std::string _file;
    int _line = 0;
    int _version = 1;
    std::vector<std::string> _header;
    std::vector<int> _positions;  ///< per schema column
    std::vector<std::string> _cells;
};

/**
 * Decode a whole ledger's @p text, calling @p on_row once per data
 * row. An unterminated last line is a torn append and is dropped.
 * @return the decoder after the last complete line (header, version).
 */
Decoder decode(const Schema& schema, const std::string& file,
               const std::string& text,
               const std::function<void(const Decoder&)>& on_row);

} // namespace ledger
} // namespace gest

#endif // GEST_OUTPUT_LEDGER_HH
