#include "attack/oracle_attack.hpp"

#include <cassert>

#include <algorithm>
#include <chrono>

#include "count/cnf.hpp"
#include "obs/trace.hpp"
#include "sat/cnf_builder.hpp"
#include "sim/netlist_sim.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace mvf::attack {

using camo::CamoNetlist;

std::string_view count_mode_name(CountMode m) {
    switch (m) {
        case CountMode::kExact: return "exact";
        case CountMode::kEnumerate: return "enumerate";
    }
    return "unknown";
}

bool count_mode_from_name(std::string_view name, CountMode* out) {
    if (name == "exact") *out = CountMode::kExact;
    else if (name == "enumerate") *out = CountMode::kEnumerate;
    else return false;
    return true;
}

std::string_view attack_status_name(OracleAttackResult::Status s) {
    switch (s) {
        case OracleAttackResult::Status::kSolved: return "solved";
        case OracleAttackResult::Status::kNoSurvivor: return "no survivor";
        case OracleAttackResult::Status::kIterationLimit: return "iteration limit";
        case OracleAttackResult::Status::kSurvivorLimit: return "survivor limit";
        case OracleAttackResult::Status::kQueryBudget: return "query budget";
    }
    return "unknown";
}

namespace {

double us_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

void pin_outputs(sat::Solver* solver, const sat::CnfBuilder::Copy& copy,
                 const std::vector<bool>& outputs) {
    for (std::size_t q = 0; q < copy.po.size(); ++q) {
        solver->add_unit(outputs[q] ? copy.po[q] : sat::lit_not(copy.po[q]));
    }
}

// Stamps a constant-input copy and pins its outputs to the oracle's answer.
void add_io_constraint(sat::Solver* solver, sat::CnfBuilder* builder,
                       const std::vector<bool>& inputs,
                       const std::vector<bool>& outputs, bool fold) {
    pin_outputs(solver, builder->add_copy(inputs, fold), outputs);
}

/// Replaces the model's distinguishing input with the lexicographically
/// smallest one admitted by the current constraints (PI 0 is the most
/// significant position).  Walks the bits in order, keeping the latest
/// model as a witness: a witness 0 needs no solver call, a witness 1 costs
/// one incremental solve to test whether 0 is feasible under the fixed
/// prefix.  `assumptions` carries any standing activation literals and is
/// extended in place with the prefix.
void canonicalize_pattern(sat::Solver* solver,
                          const std::vector<sat::Lit>& shared_x,
                          std::vector<sat::Lit>* assumptions,
                          std::vector<bool>* pattern) {
    const int m = static_cast<int>(shared_x.size());
    for (int i = 0; i < m; ++i) {
        const sat::Lit xi = shared_x[static_cast<std::size_t>(i)];
        if (!(*pattern)[static_cast<std::size_t>(i)]) {
            assumptions->push_back(sat::lit_not(xi));
            continue;
        }
        assumptions->push_back(sat::lit_not(xi));
        if (solver->solve(*assumptions) == sat::Solver::Result::kSat) {
            (*pattern)[static_cast<std::size_t>(i)] = false;
            for (int j = i + 1; j < m; ++j) {
                (*pattern)[static_cast<std::size_t>(j)] = solver->model_value(
                    sat::lit_var(shared_x[static_cast<std::size_t>(j)]));
            }
        } else {
            assumptions->back() = xi;  // 0 infeasible under this prefix
        }
    }
}

/// Legacy survivor counting (CountMode::kEnumerate): SAT model enumeration
/// over the selector family, projected onto the cells with a structural
/// path to a PO -- a cell outside every output cone cannot influence any
/// output, so its choices multiply the count instead of being enumerated.
/// Capped at params.max_survivors; all arithmetic is overflow-checked (the
/// per-node freedom product alone can dwarf uint64_t) and saturates to the
/// cap instead of wrapping.
void enumerate_survivor_count(const CamoNetlist& netlist, sat::Solver* counter,
                              sat::CnfBuilder* family,
                              const OracleAttackParams& params,
                              OracleAttackResult* result) {
    std::vector<bool> in_po_cone(static_cast<std::size_t>(netlist.num_nodes()),
                                 false);
    std::vector<int> stack;
    for (int q = 0; q < netlist.num_pos(); ++q) stack.push_back(netlist.po(q));
    while (!stack.empty()) {
        const int id = stack.back();
        stack.pop_back();
        if (in_po_cone[static_cast<std::size_t>(id)]) continue;
        in_po_cone[static_cast<std::size_t>(id)] = true;
        for (const int f : netlist.node(id).fanins) stack.push_back(f);
    }

    std::uint64_t dead_freedom = 1;
    bool dead_saturated = false;
    for (int id = 0; id < netlist.num_nodes(); ++id) {
        const std::size_t choices = family->selectors(id).size();
        if (choices == 0 || in_po_cone[static_cast<std::size_t>(id)]) continue;
        dead_saturated |= count::mul_overflow_u64(
            dead_freedom, static_cast<std::uint64_t>(choices), &dead_freedom);
        if (dead_saturated || dead_freedom > params.max_survivors) {
            break;  // saturates below
        }
    }

    std::uint64_t total = 0;
    while (counter->solve() == sat::Solver::Result::kSat) {
        const std::vector<int> config = family->config_from_model();
        if (total == 0) result->witness_config = config;
        const bool overflow =
            dead_saturated || count::add_overflow_u64(total, dead_freedom, &total);
        if (overflow || total >= params.max_survivors) {
            result->status = OracleAttackResult::Status::kSurvivorLimit;
            total = params.max_survivors;
            break;
        }
        if (!family->block_config(config, &in_po_cone)) break;
    }
    result->surviving_configs = total;
    result->survivors = count::Count128(total);
    if (total == 0) {
        result->status = OracleAttackResult::Status::kNoSurvivor;
    }
}

}  // namespace

void count_consistent_configs(const CamoNetlist& netlist,
                              const std::vector<std::vector<bool>>& inputs,
                              const std::vector<std::vector<bool>>& answers,
                              const OracleAttackParams& params,
                              OracleAttackResult* result) {
    assert(inputs.size() == answers.size());
    OracleAttackResult& res = *result;
    report::Json span_args;
    if (obs::tracing()) {
        span_args = report::Json::object();
        span_args.set("mode", std::string(count_mode_name(params.count_mode)));
        span_args.set("constraints", static_cast<std::uint64_t>(inputs.size()));
    }
    obs::Span span("count-survivors", "count", std::move(span_args));
    const auto finish_span = [&]() {
        if (!span) return;
        report::Json ea = report::Json::object();
        ea.set("survivors", res.survivors.to_string());
        ea.set("mode", std::string(count_mode_name(res.count_mode)));
        ea.set("status", std::string(attack_status_name(res.status)));
        span.set_end_args(std::move(ea));
    };
    res.counted = true;
    res.count_mode = params.count_mode;
    sat::Solver counter;
    sat::CnfBuilder family(netlist, &counter, params.fixed_nominal);
    for (std::size_t i = 0; i < answers.size(); ++i) {
        add_io_constraint(&counter, &family, inputs[i], answers[i],
                          params.shared_miter);
    }
    if (params.solver.preprocess) {
        sat::Preprocessor pre(&counter, params.solver);
        const std::vector<sat::Var> fv = family.frozen_vars();
        pre.freeze_all(fv);
        pre.run();
    }

    if (params.count_mode == CountMode::kEnumerate) {
        enumerate_survivor_count(netlist, &counter, &family, params, &res);
        finish_span();
        return;
    }
    // Projection = every selector variable: the count is over whole
    // configurations, dead-cone cells included (their freedom falls out of
    // component decomposition -- a cell whose support collapsed to
    // constants is one tiny component contributing a factor of #choices).
    std::vector<sat::Var> projection;
    for (int id = 0; id < netlist.num_nodes(); ++id) {
        const std::vector<sat::Var>& sel = family.selectors(id);
        projection.insert(projection.end(), sel.begin(), sel.end());
    }
    const count::Cnf cnf = count::cnf_from_solver(counter, projection);
    // One model for the witness and the emptiness check (the counter
    // reports a number, not an assignment).
    if (counter.solve() != sat::Solver::Result::kSat) {
        res.status = OracleAttackResult::Status::kNoSurvivor;
        finish_span();
        return;
    }
    res.witness_config = family.config_from_model();
    count::CounterConfig cc;
    cc.cache_bytes = params.count_cache_mb > 0
                         ? static_cast<std::size_t>(params.count_cache_mb) << 20
                         : 1u << 20;
    cc.max_decisions = params.count_max_decisions;
    count::ProjectedCounter pc(cnf, cc);
    const count::ProjectedCounter::Result pcr = pc.count();
    res.count_stats = pcr.stats;
    res.survivors = pcr.count;
    if (!pcr.exact && pcr.count.saturated()) {
        // Saturated beyond 2^128 - 1: still a hard bound.
        res.status = OracleAttackResult::Status::kSurvivorLimit;
    } else if (!pcr.exact) {
        // Decision budget exhausted (dense, decomposition-resistant
        // instance): fall back to the capped enumeration so the attack
        // still terminates with a sound figure.  count_mode records the
        // switch.
        res.count_mode = CountMode::kEnumerate;
        enumerate_survivor_count(netlist, &counter, &family, params, &res);
    }
    res.surviving_configs = res.survivors.to_u64_saturating();
    finish_span();
}

bool random_queries(Oracle& oracle, int num_inputs, int count,
                    std::uint64_t seed, const AnswerFn& take,
                    const std::function<void(double)>& on_query_us) {
    const auto timed = [&](const auto& ask) {
        if (!on_query_us) return ask();
        const auto q0 = std::chrono::steady_clock::now();
        auto answer = ask();
        on_query_us(us_since(q0));
        return answer;
    };
    int remaining = count;
    try {
        // Replay: the transcript prescribes the patterns.  For a live
        // recording the scripted patterns ARE the Rng sequence, so this is
        // equivalent to regenerating them; a proof replay scripts its whole
        // transcript here.
        bool scripted = false;
        while (remaining > 0 && oracle.scripted_pattern() != nullptr) {
            std::vector<bool> in = *oracle.scripted_pattern();
            std::vector<bool> out = oracle.query(in);
            take(std::move(in), std::move(out));
            scripted = true;
            --remaining;
        }
        // A transcript that ended early trips the budget (a replayed chip
        // answers exactly its recorded queries) instead of inventing fresh
        // patterns the replay could never answer.
        if (scripted) return remaining == 0;
        util::Rng rng(seed);
        while (remaining > 0) {
            const int n = std::min(remaining, kQueryBlockWidth);
            std::vector<std::uint64_t> words(
                static_cast<std::size_t>(num_inputs));
            for (std::uint64_t& w : words) w = rng.next_u64();
            try {
                const std::vector<std::uint64_t> po_words =
                    timed([&] { return oracle.query_block(words, n); });
                for (int k = 0; k < n; ++k) {
                    take(unpack_lane(words, k), unpack_lane(po_words, k));
                }
            } catch (const OracleBudgetExceeded&) {
                // The whole block overran the remaining budget (blocks are
                // all-or-nothing); drain what is left with scalar queries
                // over the SAME pattern sequence so the full allowance is
                // spent before the budget trips.
                for (int k = 0; k < n; ++k) {
                    std::vector<bool> in = unpack_lane(words, k);
                    std::vector<bool> out =
                        timed([&] { return oracle.query(in); });
                    take(std::move(in), std::move(out));
                }
            }
            remaining -= n;
        }
    } catch (const OracleBudgetExceeded&) {
        return false;
    }
    return true;
}

OracleAttackResult oracle_attack(const CamoNetlist& netlist, Oracle& oracle,
                                 const OracleAttackParams& params) {
    const int m = netlist.num_pis();
    const int r = netlist.num_pos();
    util::Stopwatch sw;
    OracleAttackResult result;

    // Latency metrics: local histograms snapshot into result.metrics; when
    // the process-global switch is on they feed the shared registry too
    // (same samples, one timing call).  `collect` off keeps the hot path at
    // one branch per site -- no clock reads.
    const bool collect = params.collect_metrics || obs::metrics_enabled();
    obs::Histogram oracle_hist, solve_hist;
    obs::Histogram* reg_oracle_hist = nullptr;
    obs::Histogram* reg_solve_hist = nullptr;
    if (obs::metrics_enabled()) {
        obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
        reg.counter("attack.runs").add();
        reg_oracle_hist = &reg.histogram("attack.oracle_query_us");
        reg_solve_hist = &reg.histogram("attack.sat_solve_us");
    }
    const auto observe_query = [&](double us) {
        if (!collect) return;
        oracle_hist.observe(us);
        if (reg_oracle_hist) reg_oracle_hist->observe(us);
    };
    const auto observe_solve = [&](double us) {
        if (!collect) return;
        solve_hist.observe(us);
        if (reg_solve_hist) reg_solve_hist->observe(us);
    };

    report::Json attack_args;
    if (obs::tracing()) {
        attack_args = report::Json::object();
        attack_args.set("pis", m);
        attack_args.set("pos", r);
        attack_args.set("nodes", netlist.num_nodes());
    }
    obs::Span attack_span("oracle-attack", "attack", std::move(attack_args));

    // Two selector families in one incremental solver, mitered over shared
    // symbolic inputs: a model is (config A, config B, input X) with A and B
    // disagreeing at X while both satisfy every I/O constraint so far.
    sat::Solver solver;
    sat::CnfBuilder family_a(netlist, &solver, params.fixed_nominal);
    sat::CnfBuilder family_b(netlist, &solver, params.fixed_nominal);

    std::vector<sat::Lit> shared_x;
    shared_x.reserve(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) shared_x.push_back(sat::mk_lit(solver.new_var()));
    sat::CnfBuilder::Copy miter_a, miter_b;
    if (params.shared_miter) {
        sat::CnfBuilder::SharedCopy sc =
            sat::CnfBuilder::add_shared_copies(family_a, family_b, shared_x);
        result.shared_cells += static_cast<std::uint64_t>(sc.shared_cells);
        miter_a = std::move(sc.a);
        miter_b = std::move(sc.b);
    } else {
        miter_a = family_a.add_copy(shared_x);
        miter_b = family_b.add_copy(shared_x);
    }

    // diff_q -> (a_q != b_q); at least one diff_q holds.  One direction of
    // the XOR suffices: any model must exhibit a real output difference.
    std::vector<sat::Lit> any_diff;
    any_diff.reserve(static_cast<std::size_t>(r));
    std::vector<sat::Lit> assumptions;
    for (int q = 0; q < r; ++q) {
        const sat::Lit d = sat::mk_lit(solver.new_var());
        const sat::Lit a = miter_a.po[static_cast<std::size_t>(q)];
        const sat::Lit b = miter_b.po[static_cast<std::size_t>(q)];
        solver.add_ternary(sat::lit_not(d), a, b);
        solver.add_ternary(sat::lit_not(d), sat::lit_not(a), sat::lit_not(b));
        any_diff.push_back(d);
    }
    solver.add_clause(any_diff);

    // Preprocess the miter core once (BVE + subsumption + strengthening),
    // then run the light sweep whenever the database has outgrown the last
    // simplified size: the per-pattern copies below get pinned down by
    // level-0 propagation, and physically removing the satisfied clauses
    // keeps watch lists short without disturbing the learned database.
    const auto make_preprocessor = [&]() {
        sat::Preprocessor pre(&solver, params.solver);
        const std::vector<sat::Var> fa = family_a.frozen_vars();
        const std::vector<sat::Var> fb = family_b.frozen_vars();
        pre.freeze_all(fa);
        pre.freeze_all(fb);
        pre.freeze_lits(shared_x);
        return pre;
    };
    std::size_t preprocessed_size = 0;
    if (params.solver.preprocess) {
        make_preprocessor().run();
        preprocessed_size = solver.num_clauses();
    }

    // Stamps one I/O pair as constraints into BOTH families.
    const auto constrain_both = [&](const std::vector<bool>& in,
                                    const std::vector<bool>& out) {
        if (params.shared_miter) {
            sat::CnfBuilder::SharedCopy sc =
                sat::CnfBuilder::add_shared_copies(family_a, family_b, in);
            result.shared_cells += static_cast<std::uint64_t>(sc.shared_cells);
            pin_outputs(&solver, sc.a, out);
            pin_outputs(&solver, sc.b, out);
        } else {
            add_io_constraint(&solver, &family_a, in, out, false);
            add_io_constraint(&solver, &family_b, in, out, false);
        }
    };

    // All constraint pairs in query order: random warm-up first, then the
    // distinguishing inputs (result.distinguishing_inputs holds only the
    // latter).  The counting tail replays the whole list.
    std::vector<std::vector<bool>> constraint_inputs;
    std::vector<std::vector<bool>> answers;

    // Random warm-up through the batched word-parallel path: every
    // answered pattern prunes the configurations disagreeing with the
    // chip on it, shrinking the viable set before any distinguishing
    // input is solved for.
    bool budget_tripped = false;
    if (params.random_warmup > 0) {
        report::Json warm_args;
        if (obs::tracing()) {
            warm_args = report::Json::object();
            warm_args.set("patterns", params.random_warmup);
        }
        obs::Span warm_span("warmup", "attack", std::move(warm_args));
        const auto take_answer = [&](std::vector<bool> in,
                                     std::vector<bool> out) {
            assert(static_cast<int>(out.size()) == r);
            constrain_both(in, out);
            constraint_inputs.push_back(std::move(in));
            answers.push_back(std::move(out));
            ++result.warmup_queries;
        };
        if (!random_queries(oracle, m, params.random_warmup,
                            params.warmup_seed, take_answer,
                            collect ? std::function<void(double)>(observe_query)
                                    : nullptr)) {
            result.status = OracleAttackResult::Status::kQueryBudget;
            budget_tripped = true;
        }
    }

    // CEGAR refinement: each distinguishing input and the oracle's answer
    // constrain BOTH families, shrinking the still-viable set on each side.
    std::vector<bool> pattern(static_cast<std::size_t>(m));
    while (!budget_tripped) {
        assumptions.clear();
        // One span per CEGAR iteration; the final (UNSAT, convergence)
        // solve gets its own span with converged=true in the end args.
        report::Json iter_args;
        if (obs::tracing()) {
            iter_args = report::Json::object();
            iter_args.set("iteration", result.queries);
        }
        obs::Span iter_span("cegar-iteration", "attack", std::move(iter_args));
        const bool sat = solver.solve() == sat::Solver::Result::kSat;
        // Captured now: canonicalization and the next iteration overwrite
        // last_solve(), and this delta is what the span reports.
        const sat::Solver::SolveDelta delta = solver.last_solve();
        observe_solve(delta.seconds * 1e6);
        if (!sat) {
            if (iter_span) {
                report::Json ea = report::Json::object();
                ea.set("converged", true);
                ea.set("conflicts", delta.conflicts);
                ea.set("propagations", delta.propagations);
                iter_span.set_end_args(std::move(ea));
            }
            break;
        }
        if (params.max_iterations > 0 &&
            result.queries >= params.max_iterations) {
            result.status = OracleAttackResult::Status::kIterationLimit;
            break;
        }
        if (const std::vector<bool>* scripted = oracle.scripted_pattern()) {
            // A replaying TranscriptOracle prescribes the query sequence
            // through the public API; the per-iteration solve above still
            // runs, so the CEGAR work is identical -- only the pattern
            // choice is pinned (any prefix of a valid run's transcript is
            // itself a valid distinguishing sequence).
            pattern = *scripted;
            assert(static_cast<int>(pattern.size()) == m);
        } else {
            for (int i = 0; i < m; ++i) {
                pattern[static_cast<std::size_t>(i)] = solver.model_value(
                    sat::lit_var(shared_x[static_cast<std::size_t>(i)]));
            }
            if (params.canonical_inputs) {
                canonicalize_pattern(&solver, shared_x, &assumptions, &pattern);
            }
        }
        std::vector<bool> answer;
        try {
            const auto q0 = collect ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point();
            answer = oracle.query(pattern);
            if (collect) observe_query(us_since(q0));
        } catch (const OracleBudgetExceeded&) {
            // Honest termination: the threat model ran out of chip access.
            result.status = OracleAttackResult::Status::kQueryBudget;
            break;
        }
        assert(static_cast<int>(answer.size()) == r);
        ++result.queries;
        constrain_both(pattern, answer);
        result.distinguishing_inputs.push_back(pattern);
        constraint_inputs.push_back(pattern);
        answers.push_back(std::move(answer));
        if (iter_span) {
            report::Json ea = report::Json::object();
            ea.set("pattern", bits_to_string(pattern));
            ea.set("conflicts", delta.conflicts);
            ea.set("decisions", delta.decisions);
            ea.set("propagations", delta.propagations);
            ea.set("max_decision_level", delta.max_decision_level);
            iter_span.set_end_args(std::move(ea));
        }
        if (params.solver.preprocess && params.solver.inprocess_growth > 1.0 &&
            static_cast<double>(solver.num_clauses()) >
                params.solver.inprocess_growth *
                    static_cast<double>(preprocessed_size)) {
            make_preprocessor().run_light();
            preprocessed_size = solver.num_clauses();
        }
    }

    result.sat_stats = solver.stats();

    // UNSAT: every configuration consistent with the collected I/O pairs is
    // functionally equivalent to the oracle (if any disagreed anywhere, the
    // miter would have found the disagreeing input).  Count them over a
    // single fresh selector family constrained by the collected I/O pairs.
    // With shared_miter the copies fold their selector-independent constant
    // cones; with preprocessing the instance is simplified first (selectors
    // are frozen, so the projected count is preserved).
    if (result.status != OracleAttackResult::Status::kIterationLimit &&
        result.status != OracleAttackResult::Status::kQueryBudget &&
        params.enumerate_survivors) {
        count_consistent_configs(netlist, constraint_inputs, answers, params,
                                 &result);
    }

    result.seconds = sw.elapsed_seconds();
    if (collect) {
        result.metrics.oracle_query_us = oracle_hist.snapshot();
        result.metrics.sat_solve_us = solve_hist.snapshot();
    }
    if (attack_span) {
        report::Json ea = report::Json::object();
        ea.set("status", std::string(attack_status_name(result.status)));
        ea.set("queries", result.queries);
        ea.set("warmup_queries", result.warmup_queries);
        if (result.counted) ea.set("survivors", result.survivors.to_string());
        attack_span.set_end_args(std::move(ea));
    }
    return result;
}

}  // namespace mvf::attack
