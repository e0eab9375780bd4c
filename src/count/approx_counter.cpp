#include "count/approx_counter.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace mvf::count {

using sat::Lit;
using sat::Var;

namespace {

/// Encodes XOR(lits) == parity via the standard auxiliary chain (4 ternary
/// clauses per link), guarded by an activation literal: the constraint
/// binds only while `act` is assumed, so one incremental solver can switch
/// hash levels on and off during the search over m.  An empty XOR is the
/// constant 0: parity=true then contradicts the row (act forces UNSAT).
void add_xor(sat::Solver* solver, const std::vector<Lit>& lits, bool parity,
             Lit act) {
    if (lits.empty()) {
        if (parity) solver->add_unit(sat::lit_not(act));
        return;
    }
    Lit cur = lits[0];
    for (std::size_t i = 1; i < lits.size(); ++i) {
        const Lit next = lits[i];
        const Lit aux = sat::mk_lit(solver->new_var());
        // aux == cur XOR next: forbid the four inconsistent rows.
        solver->add_ternary(sat::lit_not(aux), cur, next);
        solver->add_ternary(sat::lit_not(aux), sat::lit_not(cur),
                            sat::lit_not(next));
        solver->add_ternary(aux, sat::lit_not(cur), next);
        solver->add_ternary(aux, cur, sat::lit_not(next));
        cur = aux;
    }
    solver->add_binary(sat::lit_not(act), parity ? cur : sat::lit_not(cur));
}

}  // namespace

bool ApproxResult::within_envelope(const Count128& estimate,
                                   const Count128& true_count,
                                   double epsilon) {
    if (true_count.is_zero()) return estimate.is_zero();
    if (estimate.is_zero()) return false;
    const double ratio = estimate.to_double() / true_count.to_double();
    return ratio >= 1.0 / (1.0 + epsilon) && ratio <= 1.0 + epsilon;
}

ApproxCounter::ApproxCounter(Cnf cnf, ApproxConfig config)
    : cnf_(std::move(cnf)), config_(config) {
    validate(cnf_);
    if (!(config.epsilon > 0.0)) {
        throw std::invalid_argument("ApproxCounter: epsilon must be > 0");
    }
    if (!(config.delta > 0.0 && config.delta < 1.0)) {
        throw std::invalid_argument("ApproxCounter: delta must be in (0, 1)");
    }
    // Distinct projection variables (duplicates would double-sample XORs).
    std::sort(cnf_.projection.begin(), cnf_.projection.end());
    cnf_.projection.erase(
        std::unique(cnf_.projection.begin(), cnf_.projection.end()),
        cnf_.projection.end());
}

ApproxResult ApproxCounter::count() {
    ApproxResult result;
    report::Json span_args;
    if (obs::tracing()) {
        span_args = report::Json::object();
        span_args.set("projection",
                      static_cast<std::uint64_t>(cnf_.projection.size()));
        span_args.set("epsilon", config_.epsilon);
        span_args.set("delta", config_.delta);
    }
    obs::Span span("approx-count", "count", std::move(span_args));
    const auto finish_span = [&]() {
        if (span) {
            report::Json ea = report::Json::object();
            ea.set("estimate", result.estimate.to_string());
            ea.set("ok", result.ok);
            ea.set("exact", result.exact);
            ea.set("xor_levels", result.xor_levels);
            ea.set("rounds", result.rounds);
            span.set_end_args(std::move(ea));
        }
        if (obs::metrics_enabled()) {
            obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
            reg.counter("count.approx_runs").add();
            reg.counter("count.approx_solver_calls")
                .add(static_cast<std::uint64_t>(result.solver_calls));
        }
    };
    util::Stopwatch budget_clock;
    const auto out_of_time = [this, &budget_clock]() {
        return config_.max_seconds > 0.0 &&
               budget_clock.elapsed_seconds() > config_.max_seconds;
    };
    const double eps = config_.epsilon;
    // ApproxMC2's cell-size threshold and round count.
    const std::uint64_t pivot = static_cast<std::uint64_t>(std::ceil(
        9.84 * (1.0 + eps / (1.0 + eps)) * (1.0 + 1.0 / eps) *
        (1.0 + 1.0 / eps)));
    int t = static_cast<int>(std::ceil(17.0 * std::log2(3.0 / config_.delta)));
    if (t % 2 == 0) ++t;  // odd, so the median is a single round

    const auto load = [this](sat::Solver* solver) {
        for (int v = 0; v < cnf_.num_vars; ++v) solver->new_var();
        for (const auto& c : cnf_.clauses) {
            if (!solver->add_clause(c)) return;
        }
    };
    /// Counts projected models up to `limit` under `assumptions` (the
    /// active XOR rows), blocking each found projection assignment.  The
    /// blocking clauses carry a fresh per-evaluation activation literal,
    /// so they vanish as soon as the search moves to another level.
    /// nullopt means the per-solve conflict budget expired (the hash
    /// level is too hard for plain CDCL) and the cell size is unknown.
    const auto bounded =
        [this, &result, &out_of_time](sat::Solver* solver,
                                      std::vector<Lit> assumptions,
                        std::uint64_t limit) -> std::optional<std::uint64_t> {
        const Lit eval_act = sat::mk_lit(solver->new_var());
        assumptions.push_back(eval_act);
        std::uint64_t found = 0;
        while (found < limit) {
            if (out_of_time()) return std::nullopt;
            ++result.solver_calls;
            const sat::Solver::Result r = solver->solve(assumptions);
            if (r == sat::Solver::Result::kUnknown) return std::nullopt;
            if (r != sat::Solver::Result::kSat) break;
            ++found;
            std::vector<Lit> block;
            block.reserve(cnf_.projection.size() + 1);
            block.push_back(sat::lit_not(eval_act));
            for (const Var v : cnf_.projection) {
                block.push_back(sat::mk_lit(v, solver->model_value(v)));
            }
            if (!solver->add_clause(block)) break;
        }
        return found;
    };

    // Spaces that fit under the pivot are counted exactly, no hashing.
    {
        sat::Solver solver;
        load(&solver);
        solver.set_conflict_budget(config_.max_conflicts_per_solve);
        const std::optional<std::uint64_t> n = bounded(&solver, {}, pivot + 1);
        if (n && *n <= pivot) {
            result.estimate = Count128(*n);
            result.ok = true;
            result.exact = true;
            finish_span();
            return result;
        }
    }

    const int num_proj = static_cast<int>(cnf_.projection.size());
    std::vector<Count128> estimates;
    std::vector<int> levels;
    util::Rng base(config_.seed);
    // ApproxMC2-style sliding search: level m activates the prefix rows
    // 1..m of the round's hash (assumption literals switch rows on and
    // off on one incremental solver), and the search for the transition
    // level m* = min{m : |cell| <= pivot} starts from the previous
    // round's answer, where the counts concentrate.
    int prev_m = 1;
    int consecutive_budget_failures = 0;
    for (int round = 0; round < t; ++round) {
        util::Rng rng = base.split();
        if (consecutive_budget_failures >= 3) break;  // hash family too hard
        if (out_of_time()) break;
        if (config_.max_solver_calls > 0 &&
            result.solver_calls >= config_.max_solver_calls) {
            break;
        }
        sat::Solver solver;
        load(&solver);
        solver.set_conflict_budget(config_.max_conflicts_per_solve);
        bool budget_failed = false;
        std::vector<Lit> row_act;  // activation literal per XOR row
        const auto ensure_rows = [&](int m) {
            while (static_cast<int>(row_act.size()) < m) {
                const Lit act = sat::mk_lit(solver.new_var());
                std::vector<Lit> row;
                for (const Var v : cnf_.projection) {
                    if (rng.coin(0.5)) row.push_back(sat::mk_lit(v));
                }
                add_xor(&solver, row, rng.coin(0.5), act);
                row_act.push_back(act);
            }
        };
        // Cell size at level m, bounded by pivot + 1.  On a budget blowout
        // the round is abandoned (the returned pivot + 1 is never used as
        // a count -- budget_failed gates every consumer).
        std::vector<std::uint64_t> cell(static_cast<std::size_t>(num_proj),
                                        UINT64_MAX);
        const auto cell_count = [&](int m) {
            if (budget_failed) return pivot + 1;
            if (cell[static_cast<std::size_t>(m)] != UINT64_MAX) {
                return cell[static_cast<std::size_t>(m)];
            }
            if (config_.max_solver_calls > 0 &&
                result.solver_calls >= config_.max_solver_calls) {
                budget_failed = true;
                return pivot + 1;
            }
            ensure_rows(m);
            std::vector<Lit> assumptions(row_act.begin(),
                                         row_act.begin() + m);
            const std::optional<std::uint64_t> c =
                bounded(&solver, assumptions, pivot + 1);
            if (!c) {
                budget_failed = true;
                return pivot + 1;
            }
            cell[static_cast<std::size_t>(m)] = *c;
            return *c;
        };

        // Find the transition level m* = min{m : |cell at m| <= pivot}
        // by galloping out from the previous round's answer and then
        // binary-searching the bracket -- O(log P) level evaluations
        // instead of a linear walk (the transition sits near
        // log2(|space|), which can be a hundred levels up).
        int m = std::min(std::max(prev_m, 1), num_proj - 1);
        int lo = 0;                // exclusive: cell(lo) > pivot (or m*=1)
        int hi = num_proj - 1;     // inclusive candidate
        bool bracketed = false;
        if (cell_count(m) > pivot) {
            lo = m;
            for (int step = 1; !budget_failed && lo < num_proj - 1;
                 step *= 2) {
                const int probe = std::min(num_proj - 1, lo + step);
                if (cell_count(probe) <= pivot) {
                    hi = probe;
                    bracketed = true;
                    break;
                }
                lo = probe;
            }
        } else {
            hi = m;
            bracketed = true;
            for (int step = 1; !budget_failed && hi > 1; step *= 2) {
                const int probe = std::max(1, hi - step);
                if (cell_count(probe) > pivot) {
                    lo = probe;
                    break;
                }
                hi = probe;
                if (probe == 1) {
                    lo = 0;
                    break;
                }
            }
        }
        while (!budget_failed && bracketed && hi - lo > 1) {
            const int mid = lo + (hi - lo) / 2;
            if (cell_count(mid) <= pivot) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        m = hi;
        const std::uint64_t c =
            bracketed && !budget_failed ? cell_count(m) : pivot + 1;
        if (budget_failed) {
            ++consecutive_budget_failures;
            continue;
        }
        consecutive_budget_failures = 0;
        if (c >= 1 && c <= pivot) {
            Count128 est(c);
            est.shift_left(m);
            estimates.push_back(est);
            levels.push_back(m);
            prev_m = m;
        }
        // c == 0 (empty accepting cell) or c > pivot at the deepest
        // level: the round fails and contributes nothing to the median.
    }

    if (estimates.empty()) {  // every round failed; ok=false
        finish_span();
        return result;
    }
    std::sort(estimates.begin(), estimates.end(),
              [](const Count128& a, const Count128& b) { return a < b; });
    std::sort(levels.begin(), levels.end());
    result.estimate = estimates[estimates.size() / 2];
    result.xor_levels = levels[levels.size() / 2];
    result.rounds = static_cast<int>(estimates.size());
    result.ok = true;
    finish_span();
    return result;
}

}  // namespace mvf::count
