/**
 * @file
 * Chrome trace-event JSON emitter.
 *
 * Records complete ("ph":"X") and instant ("ph":"i") events plus
 * thread-name metadata and writes them as the JSON-object trace format
 * that chrome://tracing and Perfetto load directly:
 *
 *   {"traceEvents": [
 *     {"name":"evaluate","cat":"eval","ph":"X","ts":12.5,"dur":400.1,
 *      "pid":1,"tid":2,"args":{"generation":3}}, ...]}
 *
 * Timestamps are microseconds on the same monotonic timebase as
 * stats::nowUs(), so instrumentation sites take one clock reading and
 * share it between a stats histogram and a trace event. Recording is
 * thread safe (evaluation workers emit concurrently); events are
 * buffered in memory and written once by finish() or the destructor.
 *
 * Validated by tools/check_trace.py, which ctest runs against a real
 * `gest run --trace` artifact.
 */

#ifndef GEST_OUTPUT_TRACE_WRITER_HH
#define GEST_OUTPUT_TRACE_WRITER_HH

#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace gest {

namespace stats {
class Histogram;
} // namespace stats

namespace output {

/** Collects trace events and writes one Chrome trace JSON file. */
class TraceWriter
{
  public:
    /** Numeric event arguments shown in the Perfetto detail pane. */
    using Args = std::vector<std::pair<std::string, double>>;

    /** Events are timestamped relative to construction time. */
    explicit TraceWriter(std::string path);

    /** Writes the file if finish() has not run yet (best effort). */
    ~TraceWriter();

    TraceWriter(const TraceWriter&) = delete;
    TraceWriter& operator=(const TraceWriter&) = delete;

    /** Microseconds since this trace's epoch (its construction). */
    double nowUs() const;

    /**
     * Record a complete event spanning [ts_us, ts_us + dur_us).
     * @p ts_us is on the stats::nowUs() timebase — instrumentation
     * sites read that clock once and hand the reading to both a stats
     * histogram and this writer; the conversion to trace-relative time
     * happens here.
     */
    void completeEvent(const std::string& name, const std::string& cat,
                       int tid, double ts_us, double dur_us,
                       Args args = {});

    /** Record an instant event at the current time. */
    void instantEvent(const std::string& name, const std::string& cat,
                      int tid, Args args = {});

    /** Name a trace thread id (metadata event), e.g. "worker-0". */
    void setThreadName(int tid, const std::string& name);

    /** Number of events recorded so far (metadata included). */
    std::size_t eventCount() const;

    /** Serialize and write the file; idempotent. fatal() on I/O error. */
    void finish();

    /** The output path. */
    const std::string& path() const { return _path; }

    /** Render the current event buffer as trace JSON (tests). */
    std::string toJson() const;

  private:
    struct Event
    {
        char phase;
        std::string name;
        std::string cat;
        int tid;
        double ts;
        double dur;
        Args args;
    };

    void appendEvent(std::string& out, const Event& event) const;

    std::string _path;
    double _epochUs;
    mutable std::mutex _mutex;
    std::vector<Event> _events;
    bool _finished = false;
};

/**
 * Times one step of the run (a pipeline sink, a seal step) into a
 * stats histogram and, with a trace writer attached, a complete event
 * on the calling thread's trace tid: 0 on the coordinator, worker
 * id + 1 on an evaluation-pool worker. Reads no clock when there is
 * neither a histogram to feed (stats on) nor a trace.
 */
class ScopedSpan
{
  public:
    ScopedSpan(stats::Histogram& hist, TraceWriter* trace,
               std::string name, std::string cat, TraceWriter::Args args = {});
    /** A trace span only, for steps no stats dump can include. */
    ScopedSpan(TraceWriter* trace, std::string name, std::string cat,
               TraceWriter::Args args = {});
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    stats::Histogram* _hist;  ///< null: trace only
    TraceWriter* _trace;
    std::string _name;
    std::string _cat;
    TraceWriter::Args _args;
    double _start = -1.0; ///< < 0 when not timing
};

} // namespace output
} // namespace gest

#endif // GEST_OUTPUT_TRACE_WRITER_HH
