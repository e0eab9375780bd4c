#include "attack_ops.hpp"

#include <algorithm>
#include <exception>
#include <memory>

#include "attack/random_camo.hpp"
#include "util/rng.hpp"

namespace perfbench {

using mvf::attack::CountMode;
using mvf::attack::OracleAttackResult;

AttackInstance make_instance(const mvf::camo::CamoLibrary& library,
                             const NetlistShape& shape, std::string name) {
    mvf::util::Rng rng(shape.rng_seed);
    AttackInstance inst{std::move(name),
                        mvf::attack::random_camo_netlist(
                            library, shape.pis, shape.pos, shape.cells, rng),
                        {}};
    inst.hidden = inst.netlist.configuration_for_code(0);
    return inst;
}

std::vector<bool> TimedOracle::query(const std::vector<bool>& inputs) {
    const auto t0 = Clock::now();
    std::vector<bool> out = inner_->query(inputs);
    seconds += since(t0);
    ++patterns;
    return out;
}

std::vector<std::uint64_t> TimedOracle::query_block(
    const std::vector<std::uint64_t>& inputs, int count) {
    const auto t0 = Clock::now();
    std::vector<std::uint64_t> out = inner_->query_block(inputs, count);
    seconds += since(t0);
    patterns += static_cast<std::uint64_t>(count);
    return out;
}

Pass run_attack_pass(const std::vector<AttackInstance>& instances,
                     const mvf::attack::OracleAttackParams& params,
                     bool traced, const std::string& workdir,
                     std::vector<AttackOp>* ops) {
    Pass pass;
    ops->assign(instances.size(), {});
    mvf::attack::OracleAttackParams p = params;
    p.collect_metrics = traced;  // per-solve latency histograms
    std::unique_ptr<TraceCapture> capture;
    if (traced) {
        capture = std::make_unique<TraceCapture>(workdir + "/attack.ndjson");
    }

    double oracle_s = 0.0;
    std::uint64_t patterns = 0;
    double attack_s = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < instances.size(); ++i) {
        const AttackInstance& inst = instances[i];
        AttackOp& out = (*ops)[i];
        mvf::attack::SimOracle chip(inst.netlist, inst.hidden);
        TimedOracle timed(chip);
        const auto op0 = Clock::now();
        try {
            out.result = traced ? mvf::attack::oracle_attack(inst.netlist, timed, p)
                                : mvf::attack::oracle_attack(inst.netlist, chip, p);
        } catch (const std::exception& e) {
            out.error = e.what();
            pass.failures.push_back(inst.name + ": attack threw: " + out.error);
        }
        oracle_s += timed.seconds;
        patterns += timed.patterns;
        const double op = since(op0);
        pass.op_s.push_back(op);
        attack_s += op;
    }
    pass.wall_s = since(t0);
    pass.attempted = static_cast<int>(instances.size());

    mvf::sat::Solver::Stats sat;
    mvf::count::CounterStats cs;
    double queries = 0.0;
    double shared_cells = 0.0;
    double useful_decisions = 0.0;
    double fallbacks = 0.0;
    double cache_peak_bytes = 0.0;
    double survivors = 0.0;
    mvf::obs::HistogramSnapshot solve_us;
    for (const AttackOp& op : *ops) {
        const OracleAttackResult& r = op.result;
        queries += r.queries + r.warmup_queries;
        shared_cells += static_cast<double>(r.shared_cells);
        add_sat_stats(&sat, r.sat_stats);
        cs.decisions += r.count_stats.decisions;
        cs.components += r.count_stats.components;
        cs.cache_hits += r.count_stats.cache_hits;
        cs.sat_checks += r.count_stats.sat_checks;
        cache_peak_bytes = std::max(
            cache_peak_bytes, static_cast<double>(r.count_stats.cache_peak_bytes));
        const bool fell_back = p.count_mode == CountMode::kExact &&
                               r.count_mode == CountMode::kEnumerate;
        if (fell_back) {
            fallbacks += 1.0;
        } else {
            useful_decisions += static_cast<double>(r.count_stats.decisions);
        }
        survivors += r.survivors.to_double();
        solve_us.merge(r.metrics.sat_solve_us);
    }

    pass.counters["oracle_queries"] = queries;
    pass.counters["sat.conflicts"] = static_cast<double>(sat.conflicts);
    pass.counters["sat.propagations"] = static_cast<double>(sat.propagations);
    pass.counters["count.decisions"] = static_cast<double>(cs.decisions);
    pass.counters["survivors"] = survivors;
    if (!traced) return pass;

    double count_s = 0.0;
    double projected_s = 0.0;
    double fallback_s = 0.0;
    for (const SpanRecord& span : capture->finish()) {
        if (span.name == "count-survivors") {
            count_s += span.seconds;
            const mvf::report::Json* begin_mode = span.begin_args.find("mode");
            const mvf::report::Json* end_mode = span.end_args.find("mode");
            if (begin_mode && end_mode && begin_mode->as_string() == "exact" &&
                end_mode->as_string() == "enumerate") {
                const auto it = span.child_s.find("projected-count");
                fallback_s += span.seconds -
                              (it == span.child_s.end() ? 0.0 : it->second);
            }
        } else if (span.name == "projected-count") {
            projected_s += span.seconds;
        }
    }

    Figures& m = pass.layer;
    m["attack.oracle_s"] = oracle_s;
    m["attack.oracle_patterns"] = static_cast<double>(patterns);
    m["attack.other_s"] = attack_s - sat.solve_seconds - oracle_s - count_s;
    m["attack.shared_cells"] = shared_cells;
    put_sat_metrics(sat, &m);
    m["sat.solve_p50_ms"] = histogram_percentile(solve_us, 0.5) * 1e-3;
    const double tail_p =
        solve_us.count > 10 ? 1.0 - 10.0 / static_cast<double>(solve_us.count) : 1.0;
    m["sat.solve_tail_ms"] = histogram_percentile(solve_us, tail_p) * 1e-3;
    m["count.s"] = count_s;
    m["count.projected_s"] = projected_s;
    m["count.fallback_s"] = fallback_s;
    m["count.decisions"] = static_cast<double>(cs.decisions);
    m["count.decisions_per_s"] =
        projected_s > 0.0 ? static_cast<double>(cs.decisions) / projected_s : 0.0;
    m["count.components"] = static_cast<double>(cs.components);
    m["count.cache_hits"] = static_cast<double>(cs.cache_hits);
    m["count.cache_hit_ratio"] =
        cs.components > 0
            ? static_cast<double>(cs.cache_hits) / static_cast<double>(cs.components)
            : 0.0;
    m["count.cache_peak_mb"] = cache_peak_bytes / (1024.0 * 1024.0);
    m["count.sat_checks"] = static_cast<double>(cs.sat_checks);
    m["count.fallbacks"] = fallbacks;
    m["count.useful_decision_ratio"] =
        cs.decisions > 0 ? useful_decisions / static_cast<double>(cs.decisions) : 0.0;

    pass.self_s["attack"] = attack_s - sat.solve_seconds - count_s;
    pass.self_s["sat"] = sat.solve_seconds;
    pass.self_s["count"] = count_s;
    return pass;
}

}  // namespace perfbench
