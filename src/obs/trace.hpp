#pragma once
// Structured tracing: a thread-safe NDJSON span/event writer with a
// Chrome/Perfetto `trace_event` exporter.
//
// The paper's core experiment (de-camouflaging cost vs. obfuscation
// parameters, Figs. 1/3/4) is a time-series question, but until this layer
// existed the repo could only report end-of-run aggregates.  TraceSink
// turns a run into a stream of timestamped records -- span begin/end,
// instant events, counter samples -- one JSON object per line (NDJSON), or
// wrapped as a Chrome `trace_event` array so a whole `mvf batch` run opens
// directly in Perfetto / chrome://tracing.
//
// Record schema (shared by both formats; Chrome just wraps it in `[...]`):
//   {"ts": 12.5,          microseconds since the sink opened (monotonic;
//                         sampled under the writer lock, so records are
//                         non-decreasing in file order)
//    "tid": 1,            small per-thread id, assigned on first event
//    "pid": 1,            constant (one process per trace)
//    "ph": "B"|"E"|"i"|"C",  begin / end / instant / counter
//    "name": "...", "cat": "...",
//    "args": {...}}       optional structured payload
//
// Instrumentation contract: sites are gated on the process-global sink
// (`obs::tracing()`), so DISABLED tracing costs one relaxed atomic load and
// a branch per event site -- bench_oracle_attack asserts the aggregate
// overhead stays under 2% in-harness.  Span is the RAII begin/end pair;
// because spans nest per thread, every well-formed program produces
// balanced per-thread B/E sequences (validate_trace / `mvf check-trace`
// verify this, plus per-line JSON validity and timestamp monotonicity).
//
// The layer is dependency-free (report::Json only) by design: every hot
// layer links it, so it must not pull anything in.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "report/json.hpp"

namespace mvf::obs {

enum class TraceFormat {
    kNdjson,  ///< one JSON object per line (streamable; the default)
    kChrome,  ///< Chrome `trace_event` JSON array (open in Perfetto)
};

std::string_view trace_format_name(TraceFormat f);
/// Inverse of trace_format_name; returns false on unknown names.
bool trace_format_from_name(std::string_view name, TraceFormat* out);

/// Thread-safe trace writer.  One instance per output file; all event
/// methods may be called concurrently from any thread.  Destruction
/// flushes and (for kChrome) closes the JSON array.
class TraceSink {
public:
    explicit TraceSink(std::string path,
                       TraceFormat format = TraceFormat::kNdjson);
    /// Adopts an already-open stream (closed on destruction) -- the serve
    /// subsystem points a per-job sink at a client socket via
    /// fdopen(dup(fd)).  `label` stands in for path() in diagnostics.
    explicit TraceSink(std::FILE* stream, std::string label = "<stream>",
                       TraceFormat format = TraceFormat::kNdjson);
    ~TraceSink();
    TraceSink(const TraceSink&) = delete;
    TraceSink& operator=(const TraceSink&) = delete;

    /// False when the output file could not be opened (events are then
    /// dropped silently; callers should check after construction).
    bool ok() const { return file_ != nullptr; }
    const std::string& path() const { return path_; }
    TraceFormat format() const { return format_; }

    /// Span boundaries ("ph":"B"/"E").  `name`/`cat` must outlive the call
    /// (string literals at every in-tree site).  End events match the most
    /// recent unmatched begin of the same thread, Chrome-style.
    void begin(std::string_view name, std::string_view cat,
               report::Json args = {});
    void end(std::string_view name, report::Json args = {});
    /// Point event ("ph":"i", thread scope).
    void instant(std::string_view name, std::string_view cat,
                 report::Json args = {});
    /// Counter sample ("ph":"C"); `values` should be an object of numbers
    /// (each member becomes one counter series in the viewer).
    void counter(std::string_view name, report::Json values);

    void flush();

    /// Events written so far (testing/telemetry hook).
    std::uint64_t events() const {
        return events_.load(std::memory_order_relaxed);
    }

private:
    void emit(char phase, std::string_view name, std::string_view cat,
              const report::Json& args);

    std::string path_;
    TraceFormat format_;
    std::FILE* file_ = nullptr;
    std::mutex mu_;
    bool first_record_ = true;                       // kChrome comma state
    std::chrono::steady_clock::time_point epoch_;
    std::unordered_map<std::thread::id, int> tids_;  // under mu_
    std::atomic<std::uint64_t> events_{0};
};

/// A line-buffered NDJSON sink on a dup of `fd` (every record flushes at
/// its newline, and closing the sink closes only the dup); null when the
/// fd cannot be duplicated.  The serve sessions point one at a client
/// socket, `mvf --verbose` at stderr.
std::shared_ptr<TraceSink> fd_sink(int fd, std::string label);

/// Process-global sink used by every instrumentation site.  Not owned:
/// the installer (CLI, test, bench) keeps the TraceSink alive and must
/// uninstall (set nullptr) before destroying it.
extern std::atomic<TraceSink*> g_trace_sink;

inline TraceSink* tracing() {
    return g_trace_sink.load(std::memory_order_acquire);
}
void set_trace_sink(TraceSink* sink);

/// RAII span against the global sink: begin at construction, end at
/// destruction.  When tracing is disabled the constructor is one atomic
/// load + branch and the destructor one branch.  `name`/`cat` must outlive
/// the span (string literals at every in-tree site).
class Span {
public:
    Span(std::string_view name, std::string_view cat) : sink_(tracing()), name_(name) {
        if (sink_) sink_->begin(name_, cat);
    }
    Span(std::string_view name, std::string_view cat, report::Json args)
        : sink_(tracing()), name_(name) {
        if (sink_) sink_->begin(name_, cat, std::move(args));
    }
    ~Span() {
        if (sink_) sink_->end(name_, std::move(end_args_));
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// True when tracing is live -- gate arg-building work on this so the
    /// disabled path never allocates.
    explicit operator bool() const { return sink_ != nullptr; }

    /// Attaches args to the end event (overwrites earlier set_end_args).
    void set_end_args(report::Json args) {
        if (sink_) end_args_ = std::move(args);
    }

private:
    TraceSink* sink_;
    std::string_view name_;
    report::Json end_args_;
};

/// Validation verdict for a recorded trace (the `mvf check-trace`
/// backend, also exercised directly by the tests).
struct TraceValidation {
    bool ok = false;
    std::string error;   ///< first problem found (empty when ok)
    int records = 0;     ///< events examined
    int open_spans = 0;  ///< begins left unmatched at end of trace
};

/// Validates a trace document: NDJSON (one object per line, blank lines
/// ignored) or, when the text starts with '[', a Chrome trace_event
/// array.  Checks per-record shape (ts/tid/ph/name present and typed),
/// global timestamp monotonicity in record order, and balanced,
/// name-matched per-thread B/E nesting.
TraceValidation validate_trace(const std::string& text);

}  // namespace mvf::obs
