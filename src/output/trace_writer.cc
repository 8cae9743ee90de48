#include "output/trace_writer.hh"

#include <cstdio>

#include "stats/stats.hh"
#include "util/fileutil.hh"
#include "util/logging.hh"
#include "util/strutil.hh"
#include "util/thread_pool.hh"

namespace gest {
namespace output {

namespace {

std::string
formatUs(double v)
{
    // Three decimals = nanosecond resolution, plenty for span display.
    // Timestamps are clamped non-negative: Chrome rejects negative ts.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v < 0.0 ? 0.0 : v);
    return buf;
}

} // namespace

TraceWriter::TraceWriter(std::string path)
    : _path(std::move(path)), _epochUs(stats::nowUs())
{
    // The Perfetto UI groups everything under pid 1 / the tids the
    // instrumentation sites pick; name the process up front.
    Event meta;
    meta.phase = 'M';
    meta.name = "process_name";
    meta.cat = "__metadata";
    meta.tid = 0;
    meta.ts = 0.0;
    meta.dur = 0.0;
    meta.args.emplace_back("__process_name", 0.0);
    _events.push_back(std::move(meta));
}

TraceWriter::~TraceWriter()
{
    try {
        finish();
    } catch (const FatalError& err) {
        // Destructors must not throw; the explicit finish() callers get
        // the fatal() path, a best-effort flush just reports.
        warn("trace not written: ", err.what());
    }
}

double
TraceWriter::nowUs() const
{
    return stats::nowUs() - _epochUs;
}

void
TraceWriter::completeEvent(const std::string& name, const std::string& cat,
                           int tid, double ts_us, double dur_us, Args args)
{
    Event event;
    event.phase = 'X';
    event.name = name;
    event.cat = cat;
    event.tid = tid;
    event.ts = ts_us - _epochUs;
    event.dur = dur_us;
    event.args = std::move(args);
    std::lock_guard<std::mutex> lock(_mutex);
    _events.push_back(std::move(event));
}

void
TraceWriter::instantEvent(const std::string& name, const std::string& cat,
                          int tid, Args args)
{
    Event event;
    event.phase = 'i';
    event.name = name;
    event.cat = cat;
    event.tid = tid;
    event.ts = nowUs();
    event.dur = 0.0;
    event.args = std::move(args);
    std::lock_guard<std::mutex> lock(_mutex);
    _events.push_back(std::move(event));
}

void
TraceWriter::setThreadName(int tid, const std::string& name)
{
    Event meta;
    meta.phase = 'M';
    meta.name = "thread_name";
    meta.cat = "__metadata";
    meta.tid = tid;
    meta.ts = 0.0;
    meta.dur = 0.0;
    // The thread name rides in the name-encoded args slot; see
    // appendEvent() for how metadata args are rendered.
    meta.args.emplace_back("__thread_name:" + name, 0.0);
    std::lock_guard<std::mutex> lock(_mutex);
    _events.push_back(std::move(meta));
}

std::size_t
TraceWriter::eventCount() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _events.size();
}

void
TraceWriter::appendEvent(std::string& out, const Event& event) const
{
    out += "{\"name\":\"";
    out += jsonEscape(event.name);
    out += "\",\"cat\":\"";
    out += jsonEscape(event.cat);
    out += "\",\"ph\":\"";
    out += event.phase;
    out += "\",\"pid\":1,\"tid\":";
    out += std::to_string(event.tid);
    out += ",\"ts\":";
    out += formatUs(event.ts);
    if (event.phase == 'X') {
        out += ",\"dur\":";
        out += formatUs(event.dur);
    }
    if (event.phase == 'i')
        out += ",\"s\":\"t\"";
    if (event.phase == 'M') {
        // Metadata events carry a string argument named "name".
        std::string value = "gest";
        for (const auto& [key, unused] : event.args) {
            if (startsWith(key, "__thread_name:"))
                value = key.substr(std::string("__thread_name:").size());
        }
        out += ",\"args\":{\"name\":\"" + jsonEscape(value) + "\"}";
    } else if (!event.args.empty()) {
        out += ",\"args\":{";
        bool first = true;
        for (const auto& [key, value] : event.args) {
            if (!first)
                out += ',';
            out += '"';
            out += jsonEscape(key);
            out += "\":";
            out += jsonNumber(value, 9);
            first = false;
        }
        out += '}';
    }
    out += '}';
}

std::string
TraceWriter::toJson() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::string out = "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < _events.size(); ++i) {
        if (i != 0)
            out += ",\n";
        appendEvent(out, _events[i]);
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

void
TraceWriter::finish()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        if (_finished)
            return;
        _finished = true;
    }
    writeFile(_path, toJson());
    debug("trace written to ", _path, " (", eventCount(), " events)");
}

ScopedSpan::ScopedSpan(stats::Histogram& hist, TraceWriter* trace,
                       std::string name, std::string cat,
                       TraceWriter::Args args)
    : _hist(&hist), _trace(trace), _name(std::move(name)),
      _cat(std::move(cat)), _args(std::move(args))
{
    if (stats::enabled() || _trace)
        _start = stats::nowUs();
}

ScopedSpan::ScopedSpan(TraceWriter* trace, std::string name,
                       std::string cat, TraceWriter::Args args)
    : _hist(nullptr), _trace(trace), _name(std::move(name)),
      _cat(std::move(cat)), _args(std::move(args))
{
    if (_trace)
        _start = stats::nowUs();
}

ScopedSpan::~ScopedSpan()
{
    if (_start < 0.0)
        return;
    const double elapsed = stats::nowUs() - _start;
    if (_hist)
        _hist->sample(elapsed);
    if (_trace)
        _trace->completeEvent(_name, _cat,
                              util::ThreadPool::currentWorkerId() + 1,
                              _start, elapsed, std::move(_args));
}

} // namespace output
} // namespace gest
