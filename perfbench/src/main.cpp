// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// Repeats the workload's op set in passes, as many as fit in S seconds at
// the nominal pass length (at least three): the pass count depends on S
// only, so every commit does the same work.  Only on a host so slow that
// the run would overshoot S by 10% are the remaining passes dropped.  The
// workload is set up five times, spread over the run; setup_s is the
// median.  --trace 0 reports the end-to-end metrics from plain
// passes; --trace 1 alternates plain and traced passes and reports the
// per-layer metrics, each layer's self time and share of the traced pass,
// the unattributed remainder, and the tracing overhead.  Every pass checks
// every op's output; the work counters must repeat exactly on every pass.
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace perfbench;

struct WorkloadDef {
    const char* name;
    std::unique_ptr<Workload> (*make)(const Options&);
    double nominal_pass_s;  ///< pass length on the reference host
};

// At --seconds 32 the batch workloads run 8 passes (cegar-rand 7) of five
// ops whose costs lie apart.  Of the n = 5P latencies, the median and the
// (n - 10)th then each fall inside the P samples of one op, away from its
// slowest; at P = 5 the (n - 10)th was the slowest of five samples, which
// swung with every run.
const std::vector<WorkloadDef> kWorkloads = {
    {"cegar-rand", make_cegar_rand, 4.5},
    {"sbox-flow", make_sbox_flow, 4.0},
    {"count-rand", make_count_rand, 4.0},
    {"serve-resubmit", make_serve_resubmit, 0.45},
};

constexpr int kSetups = 5;
/// op_tail_s is the highest percentile with at least this many op samples
/// beyond it: the (n - 10)th of n latencies in ascending order, where n is
/// the planned sample count, so that a run cut short on a slow host reads
/// the same percentile.
constexpr std::size_t kTailBeyond = 10;
constexpr int kMinPasses = 3;
/// After kMinPasses, no pass starts that would likely end past this share
/// of S, or past kRunBudgetS (each run must end within 180 s).
constexpr double kOverrunShare = 1.1;
constexpr double kRunBudgetS = 140.0;

struct MetricDef {
    const char* name;
    const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"}, {"wall_s", "s"}, {"op_p50_s", "s"},
    {"op_tail_s", "s"}, {"peak_rss_mb", "MiB"},
};

/// Layers whose self time and share of the traced pass are reported.
const std::vector<std::string> kLayers = {"attack", "sat",   "count",
                                          "flow",   "ga",    "synth",
                                          "map",    "camo",  "serve"};

const std::vector<MetricDef> kPerLayer = {
    {"attack.oracle_s", "s"}, {"attack.oracle_patterns", "count"},
    {"attack.other_s", "s"}, {"attack.shared_cells", "count"},
    {"sat.solve_s", "s"}, {"sat.solves", "count"}, {"sat.conflicts", "count"},
    {"sat.decisions", "count"}, {"sat.propagations", "count"},
    {"sat.props_per_s", "1/s"}, {"sat.learned", "count"},
    {"sat.reduces", "count"}, {"sat.eliminated_vars", "count"},
    {"sat.max_decision_level", "count"}, {"sat.solve_p50_ms", "ms"},
    {"sat.solve_tail_ms", "ms"},
    {"count.s", "s"}, {"count.projected_s", "s"}, {"count.fallback_s", "s"},
    {"count.decisions", "count"}, {"count.decisions_per_s", "1/s"},
    {"count.components", "count"}, {"count.cache_hits", "count"},
    {"count.cache_hit_ratio", "ratio"}, {"count.cache_peak_mb", "MiB"},
    {"count.sat_checks", "count"}, {"count.fallbacks", "count"},
    {"count.useful_decision_ratio", "ratio"},
    {"flow.pin_search_s", "s"}, {"flow.synthesize_s", "s"},
    {"flow.camo_cover_s", "s"}, {"flow.validate_s", "s"},
    {"flow.attack_s", "s"},
    {"ga.evaluations", "count"}, {"ga.evals_per_s", "1/s"}, {"ga.self_s", "s"},
    {"synth.build_s", "s"}, {"synth.optimize_s", "s"}, {"map.tech_map_s", "s"},
    {"synth.ands", "count"}, {"map.cells", "count"}, {"camo.cells", "count"},
    {"camo.config_bits", "bits"},
    {"serve.job_s", "s"}, {"serve.overhead_s", "s"},
    {"serve.stages_restored", "count"}, {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"}, {"serve.cache_mb", "MiB"},
    {"serve.retained_jobs", "count"}, {"serve.threads", "count"},
    {"serve.rss_growth_mb", "MiB"}, {"serve.result_kb", "KiB"},
    {"obs.trace_overhead", "ratio"},
    {"attack.self_s", "s"}, {"attack.share", "ratio"},
    {"sat.self_s", "s"}, {"sat.share", "ratio"},
    {"count.self_s", "s"}, {"count.share", "ratio"},
    {"flow.self_s", "s"}, {"flow.share", "ratio"},
    {"ga.share", "ratio"},
    {"synth.self_s", "s"}, {"synth.share", "ratio"},
    {"map.self_s", "s"}, {"map.share", "ratio"},
    {"camo.self_s", "s"}, {"camo.share", "ratio"},
    {"serve.self_s", "s"}, {"serve.share", "ratio"},
    {"unattributed.self_s", "s"}, {"unattributed.share", "ratio"},
    {"oracle_queries", "count"}, {"area_ge", "GE"}, {"exact_ratio", "ratio"},
    {"fail_ratio", "ratio"},
};

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".bench_build/work";
};

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR]\n",
                 why.c_str());
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) usage("missing value for " + key);
        const std::string value = argv[++i];
        try {
            if (key == "--workload") {
                a.workload = value;
            } else if (key == "--seed") {
                a.seed = std::stoull(value);
            } else if (key == "--seconds") {
                a.seconds = std::stod(value);
            } else if (key == "--trace") {
                a.trace = std::stoi(value) != 0;
            } else if (key == "--workdir") {
                a.workdir = value;
            } else {
                usage("unknown option " + key);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + key + ": " + value);
        }
    }
    if (a.workload.empty()) usage("--workload is required");
    if (!(a.seconds > 0.0)) usage("--seconds must be positive");
    return a;
}

std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/// Lines naming every work counter that differs from the first pass's.
std::vector<std::string> drift(const std::vector<Pass>& passes) {
    std::vector<std::string> out;
    for (std::size_t k = 1; k < passes.size(); ++k) {
        for (const auto& [name, value] : passes[0].counters) {
            const auto it = passes[k].counters.find(name);
            const double other = it == passes[k].counters.end() ? NAN : it->second;
            if (!(other == value)) {
                out.push_back(name + ": pass 1 " + fmt(value) + ", pass " +
                              std::to_string(k + 1) + " " + fmt(other));
            }
        }
    }
    return out;
}

int run(const Args& args) {
    const WorkloadDef* def = nullptr;
    for (const WorkloadDef& w : kWorkloads) {
        if (args.workload == w.name) def = &w;
    }
    if (!def) usage("unknown workload " + args.workload);
    const Options options{args.seed, args.workdir};

    // The set-ups are spread over the run, before kSetups evenly spaced
    // passes, so that setup_s samples the host over the same window as the
    // passes: a slow or fast host state can hold for a whole run.  The first
    // instance runs the passes; the others are discarded at once.
    const auto run0 = Clock::now();
    std::vector<double> setup_s;
    const auto set_up = [&] {
        const auto t0 = Clock::now();
        std::unique_ptr<Workload> w = def->make(options);
        setup_s.push_back(since(t0));
        return w;
    };
    const std::unique_ptr<Workload> workload = set_up();
    const auto setups_done = [&] { return static_cast<int>(setup_s.size()); };

    const int passes = std::max(kMinPasses,
                                static_cast<int>(std::lround(args.seconds /
                                                             def->nominal_pass_s)));
    const int planned = args.trace ? 2 * std::max(2, (passes + 1) / 2) : passes;
    const double budget_s = std::min(kOverrunShare * args.seconds, kRunBudgetS);
    std::vector<Pass> plain;
    std::vector<Pass> traced;
    double longest = 0.0;  // longest set-ups plus pass so far
    for (int k = 0; k < planned; ++k) {
        if (k >= kMinPasses && since(run0) + longest > budget_s) break;
        const auto step0 = Clock::now();
        // Set-up i runs before pass i * planned / kSetups.
        while (setups_done() < kSetups && setups_done() * planned / kSetups <= k) {
            set_up();
        }
        const bool tracing = args.trace && k % 2 == 1;
        Pass pass = workload->run_pass(tracing);
        longest = std::max(longest, since(step0));
        (tracing ? traced : plain).push_back(std::move(pass));
    }
    while (setups_done() < kSetups) set_up();  // the run budget cut it short

    std::vector<std::string> failures;
    int attempted = 0;
    for (const std::vector<Pass>* set : {&plain, &traced}) {
        for (const Pass& p : *set) {
            attempted += p.attempted;
            failures.insert(failures.end(), p.failures.begin(), p.failures.end());
        }
    }
    // Read before the post-loop checks, whose references are not the
    // workload's memory.
    const double peak_rss = peak_rss_mb();
    workload->final_checks(&failures);
    std::vector<Pass> all = plain;
    all.insert(all.end(), traced.begin(), traced.end());
    const std::vector<std::string> drifted = drift(all);

    std::vector<double> walls;
    std::vector<double> ops;
    for (const Pass& p : plain) {
        walls.push_back(p.wall_s);
        ops.insert(ops.end(), p.op_s.begin(), p.op_s.end());
    }
    const double wall_s = median(walls);
    const double fail_ratio =
        attempted > 0 ? static_cast<double>(failures.size()) / attempted : 1.0;

    std::printf("perfbench %s seed=%llu: %zu plain + %zu traced passes of %d ops\n",
                def->name, static_cast<unsigned long long>(args.seed), plain.size(),
                traced.size(), plain.empty() ? 0 : plain[0].attempted);
    Figures e2e;
    e2e["setup_s"] = median(setup_s);
    e2e["wall_s"] = wall_s;
    e2e["op_p50_s"] = median(ops);
    std::sort(ops.begin(), ops.end());
    const std::size_t planned_ops =
        static_cast<std::size_t>(args.trace ? planned / 2 : planned) * plain.front().op_s.size();
    const std::size_t keep = planned_ops > kTailBeyond ? planned_ops - kTailBeyond : 1;
    // The same share of the samples taken: ceil(keep / planned_ops * n).
    const std::size_t tail_rank = (keep * ops.size() + planned_ops - 1) / planned_ops;
    e2e["op_tail_s"] = ops[tail_rank - 1];
    e2e["peak_rss_mb"] = peak_rss;
    std::vector<Extra> extras = workload->extras(plain.front());
    extras.push_back({"fail_ratio", fail_ratio, "ratio"});
    for (const Extra& x : extras) e2e[x.name] = x.value;
    for (const MetricDef& m : kEndToEnd) {
        std::printf("  %-16s %14.6g %-6s", m.name, e2e[m.name], m.unit);
        if (std::string(m.name) == "setup_s") {
            std::printf("  median of %d set-ups:", kSetups);
            for (const double s : setup_s) std::printf(" %.4g", s);
        }
        if (std::string(m.name) == "wall_s") {
            std::printf("  median of %zu passes", walls.size());
        }
        if (std::string(m.name) == "op_tail_s") {
            const double n = static_cast<double>(ops.size());
            std::printf("  p%.4g of %zu ops, %zu beyond it",
                        100.0 * static_cast<double>(tail_rank) / n, ops.size(),
                        ops.size() - tail_rank);
        }
        std::printf("\n");
    }
    for (const Extra& x : extras) {
        std::printf("  %-16s %14.6g %-6s\n", x.name.c_str(), x.value, x.unit.c_str());
    }
    std::printf("  passes:");
    for (const Pass& p : plain) std::printf(" %.4g", p.wall_s);
    if (!traced.empty()) std::printf("  traced:");
    for (const Pass& p : traced) std::printf(" %.4g", p.wall_s);
    std::printf(" s\n");
    for (const std::string& f : failures) std::printf("  FAILED %s\n", f.c_str());
    for (const std::string& d : drifted) std::printf("  DRIFT %s\n", d.c_str());
    std::printf("counters {");
    const char* sep = "";
    for (const auto& [name, value] : plain.front().counters) {
        std::printf("%s\"%s\": %s", sep, name.c_str(), fmt(value).c_str());
        sep = ", ";
    }
    std::printf("}\n");

    Figures out;
    const std::vector<MetricDef>* defs = &kEndToEnd;
    if (!args.trace) {
        out = e2e;
    } else {
        defs = &kPerLayer;
        std::vector<double> traced_walls;
        for (const Pass& p : traced) traced_walls.push_back(p.wall_s);
        const double traced_wall = median(traced_walls);
        std::set<std::string> names;
        for (const Pass& p : traced) {
            for (const auto& kv : p.layer) names.insert(kv.first);
        }
        for (const std::string& name : names) {
            std::vector<double> values;
            for (const Pass& p : traced) {
                const auto it = p.layer.find(name);
                if (it != p.layer.end()) values.push_back(it->second);
            }
            out[name] = median(values);
        }
        for (const auto& kv : traced.back().gauges) out[kv.first] = kv.second;
        for (const Extra& x : extras) out[x.name] = x.value;
        out["obs.trace_overhead"] = wall_s > 0.0 ? traced_wall / wall_s - 1.0 : 0.0;

        // Self times and shares come from one pass, the traced pass of
        // median wall time, so that the layers and the remainder add up to
        // its wall time (medians taken per layer need not).
        std::vector<const Pass*> by_wall;
        for (const Pass& p : traced) by_wall.push_back(&p);
        std::sort(by_wall.begin(), by_wall.end(),
                  [](const Pass* a, const Pass* b) { return a->wall_s < b->wall_s; });
        const Pass& mid = *by_wall[(by_wall.size() - 1) / 2];
        std::printf("layer self time in the median of %zu traced passes (%.4g s):\n",
                    traced.size(), mid.wall_s);
        double attributed = 0.0;
        for (const std::string& layer : kLayers) {
            const auto it = mid.self_s.find(layer);
            const double self = it == mid.self_s.end() ? 0.0 : it->second;
            attributed += self;
            out[layer + ".self_s"] = self;
            out[layer + ".share"] = self / mid.wall_s;
            if (self != 0.0) {
                std::printf("  %-13s %10.4f s  %6.1f%%\n", layer.c_str(), self,
                            100.0 * self / mid.wall_s);
            }
        }
        out["unattributed.self_s"] = mid.wall_s - attributed;
        out["unattributed.share"] = (mid.wall_s - attributed) / mid.wall_s;
        std::printf("  %-13s %10.4f s  %6.1f%%\n", "unattributed",
                    mid.wall_s - attributed, 100.0 * out["unattributed.share"]);
        std::printf("  tracing overhead %+.2f%% (traced %.4g s vs plain %.4g s)\n",
                    100.0 * out["obs.trace_overhead"], traced_wall, wall_s);
        std::printf("per-layer metrics:\n");
        for (const MetricDef& m : kPerLayer) {
            std::printf("  %-28s %14.6g %s\n", m.name, out[m.name], m.unit);
        }
    }

    const bool correct = failures.empty() && drifted.empty();
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %zu, \"metrics\": {",
                correct ? "true" : "false", attempted, failures.size());
    sep = "";
    for (const MetricDef& m : *defs) {
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", sep, m.name,
                    fmt(out[m.name]).c_str(), m.unit);
        sep = ", ";
    }
    std::printf("}}\n");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    try {
        return run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
