#pragma once
// Shared plumbing of the perfbench program: the Workload interface, the
// figures a pass reports, seeded draws, process gauges and the capture of
// the spans the library emits through obs::TraceSink.
//
// A workload is a fixed op set (one "pass") drawn from the --seed.  Its
// constructor is the set-up (timed as setup_s), and run_pass() executes the
// op set once, either plain (end-to-end numbers) or traced (per-layer
// numbers).  Every op's output is checked against a reference that does not
// come from the code path being timed; checks run outside the timed window.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/json.hpp"
#include "sat/solver.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Named figures of one pass (work counts, layer seconds, sizes).
using Figures = std::map<std::string, double>;

/// The outcome of one pass over a workload's op set.
struct Pass {
    double wall_s = 0.0;                ///< timed window of the whole op set
    std::vector<double> op_s;           ///< latency of each op, in order
    int attempted = 0;
    std::vector<std::string> failures;  ///< one line per failed op
    /// Work counts that must repeat exactly on every pass of one seed
    /// (the determinism check compares them across passes and processes).
    Figures counters;
    /// Traced passes only: per-layer metrics (reported as the median over
    /// traced passes), gauges (reported as read after the last traced
    /// pass), and each layer's self time.
    Figures layer;
    Figures gauges;
    Figures self_s;
};

/// An end-to-end figure that only some workloads define.
struct Extra {
    std::string name;
    double value = 0.0;
    std::string unit;
};

class Workload {
public:
    virtual ~Workload() = default;
    virtual Pass run_pass(bool traced) = 0;
    /// Checks run once after the timed loop, for references too costly to
    /// recompute every pass.  Appends one line per failed op.
    virtual void final_checks(std::vector<std::string>* /*failures*/) {}
    /// Workload-specific end-to-end figures, read from an untraced pass.
    virtual std::vector<Extra> extras(const Pass& /*pass*/) const { return {}; }
};

struct Options {
    std::uint64_t seed = 1;
    std::string workdir;  ///< scratch files (trace captures) go here
};

std::unique_ptr<Workload> make_cegar_rand(const Options& options);
std::unique_ptr<Workload> make_sbox_flow(const Options& options);
std::unique_ptr<Workload> make_count_rand(const Options& options);
std::unique_ptr<Workload> make_serve_resubmit(const Options& options);

/// SplitMix64: the benchmark's own generator, so that its draws stay fixed
/// whatever the library's util::Rng does.
class Draw {
public:
    explicit Draw(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /// Uniform in [0, n).
    std::uint64_t below(std::uint64_t n) { return next() % n; }

private:
    std::uint64_t state_;
};

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);
/// Percentile (p in [0, 1]) of a log2-bucketed latency histogram, in the
/// histogram's unit, interpolated linearly inside the bucket.
double histogram_percentile(const mvf::obs::HistogramSnapshot& h, double p);

/// Sums `from` into `into`; max_decision_level keeps the maximum.
void add_sat_stats(mvf::sat::Solver::Stats* into,
                   const mvf::sat::Solver::Stats& from);
/// The sat.* per-layer metrics read from `s` (all but the latencies).
void put_sat_metrics(const mvf::sat::Solver::Stats& s, Figures* m);

double rss_mb();       ///< current resident set
double peak_rss_mb();  ///< high-water mark of this process
int thread_count();    ///< live OS threads of this process

/// One closed span read back from a trace capture.
struct SpanRecord {
    std::string name;
    double seconds = 0.0;
    mvf::report::Json begin_args;
    mvf::report::Json end_args;
    /// Seconds covered by directly nested spans, by child name.
    std::map<std::string, double> child_s;
};

/// Installs an obs::TraceSink for the lifetime of a traced pass, so the
/// spans the library already emits (cegar-iteration, count-survivors,
/// projected-count, stage and adversary spans) can be read back.
class TraceCapture {
public:
    explicit TraceCapture(std::string path);
    ~TraceCapture();
    TraceCapture(const TraceCapture&) = delete;
    TraceCapture& operator=(const TraceCapture&) = delete;

    /// Uninstalls the sink, parses what it wrote and removes the file.
    std::vector<SpanRecord> finish();

private:
    std::string path_;
    std::unique_ptr<mvf::obs::TraceSink> sink_;
};

}  // namespace perfbench
