#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

std::uint64_t Draw::next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
    return values[idx];
}

double histogram_percentile(const mvf::obs::HistogramSnapshot& h, double p) {
    if (h.count == 0) return 0.0;
    const double target = p * static_cast<double>(h.count);
    double seen = 0.0;
    for (int i = 0; i < mvf::obs::HistogramSnapshot::kBuckets; ++i) {
        const double n = static_cast<double>(h.buckets[static_cast<std::size_t>(i)]);
        if (n == 0.0) continue;
        if (seen + n >= target) {
            const double lo = i == 0 ? 0.0 : std::ldexp(1.0, i - 1);
            const double hi = std::ldexp(1.0, i);
            const double v = lo + (hi - lo) * (target - seen) / n;
            return std::clamp(v, h.min, h.max);
        }
        seen += n;
    }
    return h.max;
}

void add_sat_stats(mvf::sat::Solver::Stats* into,
                   const mvf::sat::Solver::Stats& from) {
    into->solve_seconds += from.solve_seconds;
    into->solves += from.solves;
    into->conflicts += from.conflicts;
    into->decisions += from.decisions;
    into->propagations += from.propagations;
    into->learned += from.learned;
    into->reduces += from.reduces;
    into->eliminated_vars += from.eliminated_vars;
    into->max_decision_level =
        std::max(into->max_decision_level, from.max_decision_level);
}

void put_sat_metrics(const mvf::sat::Solver::Stats& s, Figures* m) {
    (*m)["sat.solve_s"] = s.solve_seconds;
    (*m)["sat.solves"] = static_cast<double>(s.solves);
    (*m)["sat.conflicts"] = static_cast<double>(s.conflicts);
    (*m)["sat.decisions"] = static_cast<double>(s.decisions);
    (*m)["sat.propagations"] = static_cast<double>(s.propagations);
    (*m)["sat.props_per_s"] =
        s.solve_seconds > 0.0 ? static_cast<double>(s.propagations) / s.solve_seconds
                              : 0.0;
    (*m)["sat.learned"] = static_cast<double>(s.learned);
    (*m)["sat.reduces"] = static_cast<double>(s.reduces);
    (*m)["sat.eliminated_vars"] = static_cast<double>(s.eliminated_vars);
    (*m)["sat.max_decision_level"] = static_cast<double>(s.max_decision_level);
}

double rss_mb() {
    std::ifstream statm("/proc/self/statm");
    long pages_total = 0;
    long pages_resident = 0;
    if (!(statm >> pages_total >> pages_resident)) return 0.0;
    return static_cast<double>(pages_resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int thread_count() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
    }
    return 0;
}

TraceCapture::TraceCapture(std::string path)
    : path_(std::move(path)),
      sink_(std::make_unique<mvf::obs::TraceSink>(path_)) {
    if (!sink_->ok()) {
        throw std::runtime_error("cannot open trace capture " + path_);
    }
    mvf::obs::set_trace_sink(sink_.get());
}

TraceCapture::~TraceCapture() {
    if (sink_) {
        mvf::obs::set_trace_sink(nullptr);
        sink_.reset();
        std::remove(path_.c_str());
    }
}

std::vector<SpanRecord> TraceCapture::finish() {
    mvf::obs::set_trace_sink(nullptr);
    sink_.reset();  // flushes and closes the file

    struct Open {
        SpanRecord rec;
        double begin_us = 0.0;
    };
    std::map<int, std::vector<Open>> stacks;  // per trace thread id
    std::vector<SpanRecord> closed;
    std::ifstream in(path_);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        const mvf::report::Json rec = mvf::report::Json::parse(line);
        const std::string& ph = rec.find("ph")->as_string();
        const int tid = static_cast<int>(rec.find("tid")->as_number());
        const double ts = rec.find("ts")->as_number();
        const mvf::report::Json* args = rec.find("args");
        std::vector<Open>& stack = stacks[tid];
        if (ph == "B") {
            Open open;
            open.rec.name = rec.find("name")->as_string();
            if (args) open.rec.begin_args = *args;
            open.begin_us = ts;
            stack.push_back(std::move(open));
        } else if (ph == "E" && !stack.empty()) {
            Open open = std::move(stack.back());
            stack.pop_back();
            open.rec.seconds = (ts - open.begin_us) * 1e-6;
            if (args) open.rec.end_args = *args;
            if (!stack.empty()) {
                stack.back().rec.child_s[open.rec.name] += open.rec.seconds;
            }
            closed.push_back(std::move(open.rec));
        }
    }
    in.close();
    std::remove(path_.c_str());
    return closed;
}

}  // namespace perfbench
