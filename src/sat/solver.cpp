#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace mvf::sat {
namespace {

// Luby restart sequence (1,1,2,1,1,2,4,...).
std::uint64_t luby(std::uint64_t i) {
    std::uint64_t k = 1;
    while ((1ull << k) - 1 < i + 1) ++k;
    while ((1ull << k) - 1 != i + 1) {
        i -= (1ull << (k - 1)) - 1;
        k = 1;
        while ((1ull << k) - 1 < i + 1) ++k;
    }
    return 1ull << (k - 1);
}

}  // namespace

Var Solver::new_var() {
    const Var v = num_vars();
    values_.push_back(Value::kUnknown);
    values_.push_back(Value::kUnknown);
    polarity_.push_back(false);
    vardata_.push_back({kNoReason, 0});
    activity_.push_back(0.0);
    seen_.push_back(0);
    eliminated_.push_back(false);
    watches_.emplace_back();
    watches_.emplace_back();
    heap_pos_.push_back(-1);
    heap_insert(v);
    return v;
}

void Solver::heap_up(int i) {
    const Var v = heap_[static_cast<std::size_t>(i)];
    while (i > 0) {
        const int parent = (i - 1) / 2;
        const Var pv = heap_[static_cast<std::size_t>(parent)];
        if (activity_[static_cast<std::size_t>(pv)] >=
            activity_[static_cast<std::size_t>(v)])
            break;
        heap_[static_cast<std::size_t>(i)] = pv;
        heap_pos_[static_cast<std::size_t>(pv)] = i;
        i = parent;
    }
    heap_[static_cast<std::size_t>(i)] = v;
    heap_pos_[static_cast<std::size_t>(v)] = i;
}

void Solver::heap_down(int i) {
    const Var v = heap_[static_cast<std::size_t>(i)];
    const int size = static_cast<int>(heap_.size());
    while (true) {
        int child = 2 * i + 1;
        if (child >= size) break;
        if (child + 1 < size &&
            activity_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(child + 1)])] >
                activity_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(child)])]) {
            ++child;
        }
        const Var cv = heap_[static_cast<std::size_t>(child)];
        if (activity_[static_cast<std::size_t>(v)] >=
            activity_[static_cast<std::size_t>(cv)])
            break;
        heap_[static_cast<std::size_t>(i)] = cv;
        heap_pos_[static_cast<std::size_t>(cv)] = i;
        i = child;
    }
    heap_[static_cast<std::size_t>(i)] = v;
    heap_pos_[static_cast<std::size_t>(v)] = i;
}

void Solver::heap_insert(Var v) {
    if (eliminated_[static_cast<std::size_t>(v)]) return;
    if (heap_pos_[static_cast<std::size_t>(v)] >= 0) return;
    heap_.push_back(v);
    heap_pos_[static_cast<std::size_t>(v)] = static_cast<int>(heap_.size()) - 1;
    heap_up(static_cast<int>(heap_.size()) - 1);
}

Var Solver::heap_pop() {
    const Var top = heap_[0];
    heap_pos_[static_cast<std::size_t>(top)] = -1;
    const Var last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_[0] = last;
        heap_pos_[static_cast<std::size_t>(last)] = 0;
        heap_down(0);
    }
    return top;
}

double Solver::activity(CRef cr) const {
    double a;
    std::memcpy(&a, &arena_[cr + 1 + clause_size(cr)], sizeof a);
    return a;
}

void Solver::set_activity(CRef cr, double a) {
    std::memcpy(&arena_[cr + 1 + clause_size(cr)], &a, sizeof a);
}

Solver::CRef Solver::alloc_clause(std::span<const Lit> lits, bool learned,
                                  double activity) {
    assert(lits.size() >= 2);
    const std::size_t words = 1 + lits.size() + (learned ? 2 : 0);
    if (arena_.size() + words >= kNoReason) {
        throw std::length_error("sat::Solver: clause arena exceeds 2^32 words");
    }
    const CRef cr = static_cast<CRef>(arena_.size());
    arena_.push_back(static_cast<std::uint32_t>(lits.size()) << 2 |
                     (learned ? kLearned : 0));
    arena_.insert(arena_.end(), lits.begin(), lits.end());
    if (learned) {
        arena_.resize(arena_.size() + 2);
        set_activity(cr, activity);
        ++num_learned_;
    }
    ++num_clauses_;
    return cr;
}

bool Solver::add_clause(std::span<const Lit> lits) {
    if (!ok_) return false;
    assert(decision_level() == 0);
#ifndef NDEBUG
    // Clauses referencing an eliminated variable would silently bypass the
    // constraints removed with it; callers must freeze such variables.
    for (const Lit l : lits) assert(!eliminated_[static_cast<std::size_t>(lit_var(l))]);
#endif
    // Simplify: drop duplicate/false literals, detect tautologies/sat.
    std::vector<Lit>& c = add_scratch_;
    c.assign(lits.begin(), lits.end());
    std::sort(c.begin(), c.end());
    std::size_t n = 0;
    for (const Lit l : c) {
        if (n > 0 && c[n - 1] == l) continue;
        if (n > 0 && c[n - 1] == lit_not(l)) return true;  // tautology
        const Value v = value(l);
        if (v == Value::kTrue) return true;   // already satisfied
        if (v == Value::kFalse) continue;     // dead literal
        c[n++] = l;
    }
    if (n == 0) {
        ok_ = false;
        return false;
    }
    if (n == 1) {
        enqueue(c[0], kNoReason);
        if (propagate() != kNoReason) {
            ok_ = false;
            return false;
        }
        return true;
    }
    attach(alloc_clause({c.data(), n}, /*learned=*/false));
    return true;
}

std::vector<std::vector<Lit>> Solver::snapshot_clauses() const {
    assert(decision_level() == 0);
    if (!ok_) return {{}};
    std::vector<std::vector<Lit>> out;
    out.reserve(trail_.size() + num_clauses_);
    for (const Lit l : trail_) out.push_back({l});
    for (CRef cr = 0; cr < arena_.size(); cr += clause_words(cr)) {
        if (clause_learned(cr)) continue;
        out.emplace_back(lits(cr), lits(cr) + clause_size(cr));
    }
    return out;
}

void Solver::attach(CRef cr) {
    const Lit* c = lits(cr);
    // The sibling watched literal doubles as the blocker: for binary
    // clauses it is exact, and for longer ones it is a good first guess.
    watches_[static_cast<std::size_t>(lit_not(c[0]))].push_back({cr, c[1]});
    watches_[static_cast<std::size_t>(lit_not(c[1]))].push_back({cr, c[0]});
}

void Solver::attach_all() {
    for (auto& w : watches_) w.clear();
    for (CRef cr = 0; cr < arena_.size(); cr += clause_words(cr)) attach(cr);
}

Solver::CRef Solver::propagate() {
    // Neither the values nor the arena reallocate while propagating (only
    // new_var and alloc_clause grow them), so their bases can live in
    // registers across the watch-list pushes and enqueues below.
    const Value* const values = values_.data();
    std::uint32_t* const arena = arena_.data();
    const auto value = [values](Lit l) {
        return values[static_cast<std::size_t>(l)];
    };
    while (qhead_ < trail_.size()) {
        const Lit p = trail_[qhead_++];
        ++stats_.propagations;
        std::vector<Watcher>& watch_list = watches_[static_cast<std::size_t>(p)];
        const Lit not_p = lit_not(p);
        // Kept watchers are compacted to the front as the list is read.
        // Moved ones go to other lists only (a new watch is not false, and
        // not_p is), so these pointers stay valid throughout.
        Watcher* read = watch_list.data();
        Watcher* keep = read;
        Watcher* const end = read + watch_list.size();
        while (read != end) {
            const Watcher w = *read++;
            // Satisfied via the blocking literal: done without touching the
            // clause (the common case on long CEGAR runs).
            if (value(w.blocker) == Value::kTrue) {
                *keep++ = w;
                continue;
            }
            const CRef cr = w.clause;
            Lit* c = reinterpret_cast<Lit*>(arena + cr + 1);
            // Make sure the falsified literal is c[1].
            if (c[0] == not_p) std::swap(c[0], c[1]);
            assert(c[1] == not_p);
            const Lit first = c[0];
            if (first != w.blocker && value(first) == Value::kTrue) {
                // Satisfied by the other watched literal; remember it as
                // the blocker for next time.
                *keep++ = {cr, first};
                continue;
            }
            // Look for a new literal to watch.
            const std::uint32_t size = arena[cr] >> 2;
            bool moved = false;
            for (std::uint32_t k = 2; k < size; ++k) {
                if (value(c[k]) != Value::kFalse) {
                    std::swap(c[1], c[k]);
                    watches_[static_cast<std::size_t>(lit_not(c[1]))].push_back(
                        {cr, first});
                    moved = true;
                    break;
                }
            }
            if (moved) continue;
            // Unit or conflicting.
            *keep++ = {cr, first};
            if (value(first) == Value::kFalse) {
                // Conflict: restore remaining watches and report.
                while (read != end) *keep++ = *read++;
                watch_list.resize(static_cast<std::size_t>(keep - watch_list.data()));
                qhead_ = trail_.size();
                return cr;
            }
            enqueue(first, cr);
        }
        watch_list.resize(static_cast<std::size_t>(keep - watch_list.data()));
    }
    return kNoReason;
}

void Solver::bump_var(Var v) {
    activity_[static_cast<std::size_t>(v)] += var_inc_;
    if (activity_[static_cast<std::size_t>(v)] > 1e100) {
        // Uniform rescale preserves the heap order.
        for (auto& a : activity_) a *= 1e-100;
        var_inc_ *= 1e-100;
    }
    if (heap_pos_[static_cast<std::size_t>(v)] >= 0) {
        heap_up(heap_pos_[static_cast<std::size_t>(v)]);
    }
}

void Solver::decay_var_activity() { var_inc_ /= 0.95; }

void Solver::bump_clause(CRef cr) {
    if (!clause_learned(cr)) return;
    const double a = activity(cr) + cla_inc_;
    set_activity(cr, a);
    if (a > 1e20) {
        for (CRef c = 0; c < arena_.size(); c += clause_words(c)) {
            if (clause_learned(c)) set_activity(c, activity(c) * 1e-20);
        }
        cla_inc_ *= 1e-20;
    }
}

void Solver::decay_clause_activity() { cla_inc_ /= 0.999; }

bool Solver::clause_locked(CRef cr) const {
    const Lit first = lits(cr)[0];
    return value(first) == Value::kTrue && reason(lit_var(first)) == cr;
}

void Solver::reduce_db() {
    assert(decision_level() == 0);
    // Candidates: learned, longer than binary, and not the reason of a
    // current (level-0) assignment.  The lowest-activity half goes.
    reduce_candidates_.clear();
    for (CRef cr = 0; cr < arena_.size(); cr += clause_words(cr)) {
        if (clause_learned(cr) && clause_size(cr) > 2 && !clause_locked(cr)) {
            reduce_candidates_.push_back(cr);
        }
    }
    std::sort(reduce_candidates_.begin(), reduce_candidates_.end(),
              [this](CRef a, CRef b) { return activity(a) < activity(b); });
    const std::size_t victims = reduce_candidates_.size() / 2;
    if (victims == 0) return;
    std::size_t victim_words = 0;
    for (std::size_t i = 0; i < victims; ++i) {
        const CRef cr = reduce_candidates_[i];
        arena_[cr] |= kDeleted;
        victim_words += clause_words(cr);
    }

    // Compact into a fresh arena, keeping clause order.  Each kept clause
    // leaves its new CRef in its old lits[0], so a reason follows its
    // clause through the old header (a dropped one becomes kNoReason).
    std::vector<std::uint32_t> to;
    to.reserve(arena_.size() - victim_words);
    num_clauses_ = 0;
    num_learned_ = 0;
    for (CRef cr = 0; cr < arena_.size();) {
        const std::uint32_t words = clause_words(cr);
        if ((arena_[cr] & kDeleted) == 0) {
            const auto moved = static_cast<std::uint32_t>(to.size());
            to.insert(to.end(), arena_.begin() + cr, arena_.begin() + cr + words);
            arena_[cr + 1] = moved;
            ++num_clauses_;
            if (clause_learned(cr)) ++num_learned_;
        }
        cr += words;
    }
    for (VarData& d : vardata_) {
        if (d.reason == kNoReason) continue;
        d.reason = (arena_[d.reason] & kDeleted) ? kNoReason : arena_[d.reason + 1];
    }
    arena_ = std::move(to);
    attach_all();
    ++stats_.reduces;
    stats_.learned_removed += victims;
}

int Solver::analyze(CRef conflict) {
    learned_.clear();
    learned_.push_back(0);  // placeholder for the asserting literal
    marked_.clear();        // every var whose seen_ flag we set

    int counter = 0;
    Lit p = -1;
    int index = static_cast<int>(trail_.size()) - 1;
    CRef cr = conflict;

    do {
        bump_clause(cr);
        const Lit* c = lits(cr);
        const std::uint32_t size = clause_size(cr);
        for (std::uint32_t k = (p == -1) ? 0 : 1; k < size; ++k) {
            const Lit q = c[k];
            const Var v = lit_var(q);
            if (seen_[static_cast<std::size_t>(v)] || level(v) == 0) continue;
            seen_[static_cast<std::size_t>(v)] = 1;
            marked_.push_back(v);
            bump_var(v);
            if (level(v) == decision_level()) {
                ++counter;
            } else {
                learned_.push_back(q);
            }
        }
        // Find the next seen literal on the trail.
        while (!seen_[static_cast<std::size_t>(lit_var(trail_[static_cast<std::size_t>(index)]))]) {
            --index;
        }
        p = trail_[static_cast<std::size_t>(index)];
        --index;
        seen_[static_cast<std::size_t>(lit_var(p))] = 0;
        cr = reason(lit_var(p));
        --counter;
    } while (counter > 0);
    learned_[0] = lit_not(p);

    // Clause minimization: drop literals implied by the rest of the clause.
    std::uint32_t abstract_levels = 0;
    for (std::size_t i = 1; i < learned_.size(); ++i) {
        abstract_levels |= 1u << (level(lit_var(learned_[i])) & 31);
    }
    std::size_t kept = 1;
    for (std::size_t i = 1; i < learned_.size(); ++i) {
        const Lit l = learned_[i];
        if (reason(lit_var(l)) == kNoReason || !lit_redundant(l, abstract_levels)) {
            learned_[kept++] = l;
        }
    }
    learned_.resize(kept);

    // Compute backtrack level = second-highest level in the clause.
    int backtrack_level = 0;
    if (learned_.size() > 1) {
        std::size_t max_i = 1;
        for (std::size_t i = 2; i < learned_.size(); ++i) {
            if (level(lit_var(learned_[i])) > level(lit_var(learned_[max_i]))) {
                max_i = i;
            }
        }
        std::swap(learned_[1], learned_[max_i]);
        backtrack_level = level(lit_var(learned_[1]));
    }

    // Clear every mark set during this analysis (including literals dropped
    // by minimization -- leaking those would poison later analyses).
    for (const Var v : marked_) seen_[static_cast<std::size_t>(v)] = 0;
    return backtrack_level;
}

bool Solver::lit_redundant(Lit l, std::uint32_t abstract_levels) {
    analyze_stack_.assign(1, l);
    redundant_marks_.clear();
    bool redundant = true;
    while (!analyze_stack_.empty() && redundant) {
        const Lit cur = analyze_stack_.back();
        analyze_stack_.pop_back();
        const CRef cr = reason(lit_var(cur));
        if (cr == kNoReason) {
            redundant = false;
            break;
        }
        const Lit* c = lits(cr);
        const std::uint32_t size = clause_size(cr);
        for (std::uint32_t k = 1; k < size; ++k) {
            const Lit q = c[k];
            const Var v = lit_var(q);
            if (seen_[static_cast<std::size_t>(v)] || level(v) == 0) continue;
            if (reason(v) == kNoReason ||
                ((1u << (level(v) & 31)) & abstract_levels) == 0) {
                redundant = false;
                break;
            }
            seen_[static_cast<std::size_t>(v)] = 1;
            redundant_marks_.push_back(v);
            analyze_stack_.push_back(q);
        }
    }
    // The marks set here only served this query.  Clear them whatever the
    // verdict, so that during minimization seen_ holds exactly the learned
    // clause's own literals and analyze() has nothing extra to clear.
    for (const Var v : redundant_marks_) seen_[static_cast<std::size_t>(v)] = 0;
    return redundant;
}

void Solver::backtrack(int target_level) {
    if (decision_level() <= target_level) return;
    const std::size_t limit =
        static_cast<std::size_t>(trail_lim_[static_cast<std::size_t>(target_level)]);
    for (std::size_t i = trail_.size(); i > limit; --i) {
        const Lit l = trail_[i - 1];
        const Var v = lit_var(l);
        values_[static_cast<std::size_t>(l)] = Value::kUnknown;
        values_[static_cast<std::size_t>(lit_not(l))] = Value::kUnknown;
        vardata_[static_cast<std::size_t>(v)].reason = kNoReason;
        heap_insert(v);
    }
    trail_.resize(limit);
    trail_lim_.resize(static_cast<std::size_t>(target_level));
    qhead_ = trail_.size();
}

Lit Solver::pick_branch() {
    while (!heap_.empty()) {
        const Var v = heap_pop();
        if (var_value(v) == Value::kUnknown &&
            !eliminated_[static_cast<std::size_t>(v)]) {
            return mk_lit(v, !polarity_[static_cast<std::size_t>(v)]);
        }
    }
    return -1;
}

void Solver::extend_model() const {
    // Walk the eliminations newest-first: a variable's stored clauses only
    // mention variables that were still present when it was eliminated,
    // i.e. variables eliminated LATER (already reconstructed here) or
    // never.  Default the variable so the stored occurrence literal is
    // false (which satisfies the unstored side outright); flip it when a
    // stored clause is not covered by its other literals -- the resolvents
    // the search satisfied guarantee the unstored side stays covered.
    model_extended_ = true;
    const auto model_true = [this](Lit l) {
        return model_[static_cast<std::size_t>(lit_var(l))] != lit_negated(l);
    };
    for (auto it = eliminations_.rbegin(); it != eliminations_.rend(); ++it) {
        model_[static_cast<std::size_t>(it->var)] = it->negated;
        bool flip = false;
        for (const std::vector<Lit>& clause : it->clauses) {
            bool covered = false;
            for (const Lit l : clause) {
                if (lit_var(l) == it->var) continue;
                if (model_true(l)) {
                    covered = true;
                    break;
                }
            }
            if (!covered) {
                flip = true;
                break;
            }
        }
        if (flip) model_[static_cast<std::size_t>(it->var)] = !it->negated;
    }
}

Solver::Result Solver::solve(const std::vector<Lit>& assumptions) {
    // Per-call telemetry: every return path funnels through finish() so
    // last_solve() is a complete delta and Stats accumulates solve counts,
    // wall time, and the deepest decision level ever reached.
    const Stats before = stats_;
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t call_max_level = 0;
    const auto finish = [&](Result r) {
        last_solve_.result = r;
        last_solve_.conflicts = stats_.conflicts - before.conflicts;
        last_solve_.decisions = stats_.decisions - before.decisions;
        last_solve_.propagations = stats_.propagations - before.propagations;
        last_solve_.max_decision_level = call_max_level;
        last_solve_.seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
        ++stats_.solves;
        stats_.solve_seconds += last_solve_.seconds;
        stats_.max_decision_level =
            std::max(stats_.max_decision_level, call_max_level);
        return r;
    };
    if (!ok_) return finish(Result::kUnsat);
#ifndef NDEBUG
    for (const Lit a : assumptions) {
        assert(!eliminated_[static_cast<std::size_t>(lit_var(a))] &&
               "assumption on an eliminated variable; freeze it before "
               "preprocessing");
    }
#endif
    backtrack(0);
    if (propagate() != kNoReason) {
        ok_ = false;
        return finish(Result::kUnsat);
    }
    if (learned_budget_ <= 0.0) {
        learned_budget_ =
            std::max(2000.0, static_cast<double>(num_clauses_) / 3.0);
    }

    std::uint64_t restart_round = 0;
    std::uint64_t conflicts_until_restart = 64 * luby(restart_round);
    std::uint64_t conflicts_this_round = 0;

    while (true) {
        const CRef conflict = propagate();
        if (conflict != kNoReason) {
            ++stats_.conflicts;
            ++conflicts_this_round;
            if (decision_level() == 0) {
                // A level-0 conflict is independent of any assumptions: the
                // clause database itself is contradictory.  Without ok_ the
                // falsified clause would linger fully-assigned on the
                // level-0 trail and later incremental solve() calls could
                // report bogus models (the queue is already drained).
                ok_ = false;
                return finish(Result::kUnsat);
            }
            backtrack(analyze(conflict));
            if (learned_.size() == 1) {
                enqueue(learned_[0], kNoReason);
            } else {
                const CRef cr = alloc_clause(learned_, /*learned=*/true);
                ++stats_.learned;
                attach(cr);
                bump_clause(cr);
                enqueue(learned_[0], cr);
            }
            decay_var_activity();
            decay_clause_activity();
            continue;
        }

        // Restart on the Luby schedule, or early when the learned database
        // outgrew its budget (reduction requires decision level 0).  The
        // budget grows geometrically even when nothing was removable so a
        // binary/locked-saturated database cannot stall the search.
        const bool db_full =
            num_learned_ >= static_cast<std::uint64_t>(learned_budget_);
        if (conflicts_this_round >= conflicts_until_restart || db_full) {
            if (conflicts_this_round >= conflicts_until_restart) {
                ++stats_.restarts;
                ++restart_round;
                conflicts_this_round = 0;
                conflicts_until_restart = 64 * luby(restart_round);
            }
            backtrack(0);
            if (db_full) {
                reduce_db();
                learned_budget_ *= 1.1;
            }
            continue;
        }

        // Apply pending assumptions as pseudo-decisions.
        if (decision_level() < static_cast<int>(assumptions.size())) {
            const Lit a = assumptions[static_cast<std::size_t>(decision_level())];
            if (value(a) == Value::kTrue) {
                trail_lim_.push_back(static_cast<int>(trail_.size()));  // dummy level
                call_max_level = std::max(
                    call_max_level, static_cast<std::uint64_t>(decision_level()));
                continue;
            }
            if (value(a) == Value::kFalse) {
                // Leave the trail at level 0 so the instance stays usable
                // incrementally after an assumption-failure UNSAT.
                backtrack(0);
                return finish(Result::kUnsat);
            }
            trail_lim_.push_back(static_cast<int>(trail_.size()));
            call_max_level = std::max(
                call_max_level, static_cast<std::uint64_t>(decision_level()));
            enqueue(a, kNoReason);
            continue;
        }

        const Lit next = pick_branch();
        if (next < 0) {
            // Full model.  Eliminated variables are reconstructed lazily
            // by model_value() if anything actually reads them.
            model_.assign(static_cast<std::size_t>(num_vars()), false);
            for (Var v = 0; v < num_vars(); ++v) {
                model_[static_cast<std::size_t>(v)] = var_value(v) == Value::kTrue;
            }
            model_extended_ = eliminations_.empty();
            backtrack(0);
            return finish(Result::kSat);
        }
        ++stats_.decisions;
        trail_lim_.push_back(static_cast<int>(trail_.size()));
        call_max_level = std::max(
            call_max_level, static_cast<std::uint64_t>(decision_level()));
        enqueue(next, kNoReason);
    }
}

}  // namespace mvf::sat
