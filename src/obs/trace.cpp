#include "obs/trace.hpp"

#include <unistd.h>

#include <utility>
#include <vector>

namespace mvf::obs {

std::atomic<TraceSink*> g_trace_sink{nullptr};

void set_trace_sink(TraceSink* sink) {
    g_trace_sink.store(sink, std::memory_order_release);
}

std::string_view trace_format_name(TraceFormat f) {
    switch (f) {
        case TraceFormat::kNdjson: return "ndjson";
        case TraceFormat::kChrome: return "chrome";
    }
    return "unknown";
}

bool trace_format_from_name(std::string_view name, TraceFormat* out) {
    if (name == "ndjson") *out = TraceFormat::kNdjson;
    else if (name == "chrome") *out = TraceFormat::kChrome;
    else return false;
    return true;
}

TraceSink::TraceSink(std::string path, TraceFormat format)
    : path_(std::move(path)),
      format_(format),
      epoch_(std::chrono::steady_clock::now()) {
    file_ = std::fopen(path_.c_str(), "w");
    if (file_ && format_ == TraceFormat::kChrome) {
        std::fputs("[\n", file_);
    }
}

TraceSink::TraceSink(std::FILE* stream, std::string label, TraceFormat format)
    : path_(std::move(label)),
      format_(format),
      file_(stream),
      epoch_(std::chrono::steady_clock::now()) {
    if (file_ && format_ == TraceFormat::kChrome) {
        std::fputs("[\n", file_);
    }
}

std::shared_ptr<TraceSink> fd_sink(int fd, std::string label) {
    const int dup_fd = ::dup(fd);
    if (dup_fd < 0) return nullptr;
    std::FILE* f = ::fdopen(dup_fd, "w");
    if (!f) {
        ::close(dup_fd);
        return nullptr;
    }
    std::setvbuf(f, nullptr, _IOLBF, 0);
    return std::make_shared<TraceSink>(f, std::move(label));
}

TraceSink::~TraceSink() {
    if (!file_) return;
    if (format_ == TraceFormat::kChrome) {
        std::fputs("\n]\n", file_);
    }
    std::fclose(file_);
}

void TraceSink::flush() {
    std::lock_guard<std::mutex> lock(mu_);
    if (file_) std::fflush(file_);
}

void TraceSink::begin(std::string_view name, std::string_view cat,
                      report::Json args) {
    emit('B', name, cat, args);
}

void TraceSink::end(std::string_view name, report::Json args) {
    emit('E', name, {}, args);
}

void TraceSink::instant(std::string_view name, std::string_view cat,
                        report::Json args) {
    emit('i', name, cat, args);
}

void TraceSink::counter(std::string_view name, report::Json values) {
    emit('C', name, {}, values);
}

void TraceSink::emit(char phase, std::string_view name, std::string_view cat,
                     const report::Json& args) {
    if (!file_) return;
    // Build the record outside the lock except for the timestamp: sampling
    // `ts` under the lock makes records non-decreasing in file order, a
    // property validate_trace checks and downstream stream consumers rely
    // on.
    report::Json rec = report::Json::object();
    rec.set("ts", 0.0);  // placeholder, patched under the lock below
    rec.set("tid", 0);
    rec.set("pid", 1);
    rec.set("ph", std::string(1, phase));
    rec.set("name", std::string(name));
    if (!cat.empty()) rec.set("cat", std::string(cat));
    if (phase == 'i') rec.set("s", "t");  // thread-scoped instant
    if (!args.is_null()) rec.set("args", args);

    std::lock_guard<std::mutex> lock(mu_);
    const double ts =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - epoch_)
            .count();
    rec.set("ts", ts);
    int tid;
    {
        const auto it = tids_.find(std::this_thread::get_id());
        if (it != tids_.end()) {
            tid = it->second;
        } else {
            tid = static_cast<int>(tids_.size()) + 1;
            tids_.emplace(std::this_thread::get_id(), tid);
        }
    }
    rec.set("tid", tid);
    const std::string line = rec.dump();
    if (format_ == TraceFormat::kNdjson) {
        std::fputs(line.c_str(), file_);
        std::fputc('\n', file_);
    } else {
        if (!first_record_) std::fputs(",\n", file_);
        first_record_ = false;
        std::fputs(line.c_str(), file_);
    }
    events_.fetch_add(1, std::memory_order_relaxed);
}

namespace {

/// Per-record checks shared by both formats; returns false and fills
/// `error` on the first violation.  `stacks` tracks open spans per tid.
bool check_record(const report::Json& rec, int index, double* last_ts,
                  std::unordered_map<int, std::vector<std::string>>* stacks,
                  std::string* error) {
    const auto fail = [&](const std::string& what) {
        *error = "record " + std::to_string(index) + ": " + what;
        return false;
    };
    if (!rec.is_object()) return fail("not a JSON object");
    const report::Json* ts = rec.find("ts");
    const report::Json* tid = rec.find("tid");
    const report::Json* ph = rec.find("ph");
    const report::Json* name = rec.find("name");
    if (!ts || !ts->is_number()) return fail("missing numeric \"ts\"");
    if (!tid || !tid->is_number()) return fail("missing numeric \"tid\"");
    if (!ph || !ph->is_string()) return fail("missing string \"ph\"");
    if (!name || !name->is_string()) return fail("missing string \"name\"");
    if (ts->as_number() < *last_ts) {
        return fail("timestamp regressed (" + std::to_string(ts->as_number()) +
                    " after " + std::to_string(*last_ts) + ")");
    }
    *last_ts = ts->as_number();
    const std::string& phase = ph->as_string();
    const int t = static_cast<int>(tid->as_int());
    if (phase == "B") {
        (*stacks)[t].push_back(name->as_string());
    } else if (phase == "E") {
        auto& stack = (*stacks)[t];
        if (stack.empty()) {
            return fail("end \"" + name->as_string() +
                        "\" with no open span on tid " + std::to_string(t));
        }
        if (stack.back() != name->as_string()) {
            return fail("end \"" + name->as_string() +
                        "\" does not match open span \"" + stack.back() +
                        "\" on tid " + std::to_string(t));
        }
        stack.pop_back();
    } else if (phase != "i" && phase != "C") {
        return fail("unknown phase \"" + phase + "\"");
    }
    return true;
}

}  // namespace

TraceValidation validate_trace(const std::string& text) {
    TraceValidation v;
    double last_ts = -1.0;
    std::unordered_map<int, std::vector<std::string>> stacks;

    // Chrome export: one JSON array of records.
    std::size_t start = 0;
    while (start < text.size() &&
           (text[start] == ' ' || text[start] == '\n' || text[start] == '\r' ||
            text[start] == '\t')) {
        ++start;
    }
    if (start < text.size() && text[start] == '[') {
        report::Json doc;
        try {
            doc = report::Json::parse(text);
        } catch (const report::JsonError& e) {
            v.error = std::string("malformed trace array: ") + e.what();
            return v;
        }
        for (const report::Json& rec : doc.items()) {
            if (!check_record(rec, v.records, &last_ts, &stacks, &v.error)) {
                return v;
            }
            ++v.records;
        }
    } else {
        // NDJSON: one object per line, blank lines ignored.
        std::size_t pos = 0;
        int line_no = 0;
        while (pos <= text.size()) {
            const std::size_t nl = text.find('\n', pos);
            const std::string line = text.substr(
                pos, nl == std::string::npos ? std::string::npos : nl - pos);
            pos = nl == std::string::npos ? text.size() + 1 : nl + 1;
            ++line_no;
            if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
            report::Json rec;
            try {
                rec = report::Json::parse(line);
            } catch (const report::JsonError& e) {
                v.error = "line " + std::to_string(line_no) +
                          ": malformed JSON: " + e.what();
                return v;
            }
            if (!check_record(rec, v.records, &last_ts, &stacks, &v.error)) {
                return v;
            }
            ++v.records;
        }
    }
    for (const auto& [tid, stack] : stacks) {
        v.open_spans += static_cast<int>(stack.size());
    }
    if (v.open_spans > 0) {
        v.error = std::to_string(v.open_spans) +
                  " span(s) left open at end of trace";
        return v;
    }
    v.ok = true;
    return v;
}

}  // namespace mvf::obs
