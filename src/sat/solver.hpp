#pragma once
// A compact CDCL SAT solver.
//
// Substrate for the de-camouflaging attackers (paper section I: deciding
// whether a viable function is plausible is a QBF/SAT query in the style of
// refs [11], [12], [14]).  Implements the standard modern kernel: two-watched
// literals with blocking literals, first-UIP conflict learning with recursive
// minimization, VSIDS activities, phase saving, and Luby restarts.
//
// The solver is incremental: clauses and variables may be added between
// solve() calls (the trail is always at decision level 0 outside of solve),
// which is what the CEGAR oracle attack leans on -- one solver instance
// accumulates distinguishing-input constraints across hundreds of calls.
// To keep long runs from degrading, the learned-clause database is reduced
// periodically (MiniSat-style activity-sorted halving with locked/binary
// clauses retained).
//
// Clause storage is one flat std::uint32_t arena.  A clause is addressed
// by the 32-bit offset of its header word (CRef):
//
//   header            size << 2 | deleted << 1 | learned
//   size words        the literals; lits[0] and lits[1] are watched
//   2 words           learned clauses only: the double activity
//
// reduce_db compacts the arena into a fresh one, leaving each moved
// clause's new CRef in its old lits[0] so reasons are forwarded through
// the old headers.  Variable values are kept per literal, so value() is
// one load, and analysis, minimization and clause addition run on member
// scratch buffers: the search allocates only when the arena, a watch list
// or a scratch buffer outgrows its capacity.
//
// The search is pinned by test_sat_golden, and the layout leaves it
// alone: watch lists keep their order, propagate() swaps literals in the
// same places, reduce_db sorts the same candidate sequence with the same
// activity comparator, activities stay doubles, and num_clauses() counts
// problem plus learned clauses (CEGAR schedules inprocessing on its
// growth).  A change that moves any conflict, decision or propagation
// count is a search change: it needs its own measurement and new pins.

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace mvf::sat {

class Preprocessor;  // sat/simplify.hpp

using Var = int;
/// Literal encoding: 2*var for the positive literal, 2*var+1 for negated.
using Lit = int;

inline Lit mk_lit(Var v, bool negated = false) { return 2 * v + (negated ? 1 : 0); }
inline Var lit_var(Lit l) { return l >> 1; }
inline bool lit_negated(Lit l) { return l & 1; }
inline Lit lit_not(Lit l) { return l ^ 1; }

enum class Value : std::uint8_t { kFalse = 0, kTrue = 1, kUnknown = 2 };

class Solver {
public:
    /// Every solve() call runs to a verdict.  The integer values are
    /// stable (test_sat_golden folds them into its digests).
    enum class Result { kSat = 0, kUnsat = 1 };

    struct Stats {
        std::uint64_t conflicts = 0;
        std::uint64_t decisions = 0;
        std::uint64_t propagations = 0;
        std::uint64_t restarts = 0;
        std::uint64_t learned = 0;
        std::uint64_t reduces = 0;          ///< learned-DB reductions
        std::uint64_t learned_removed = 0;  ///< clauses dropped by reductions
        // Preprocessing (sat::Preprocessor) totals, accumulated over every
        // run() against this solver.
        std::uint64_t preprocess_runs = 0;
        std::uint64_t eliminated_vars = 0;     ///< vars removed by BVE
        std::uint64_t subsumed_clauses = 0;    ///< clauses killed by subsumption
        std::uint64_t strengthened_lits = 0;   ///< lits removed by self-subsumption
        // Per-call telemetry totals (PR 6): accumulated by solve().
        std::uint64_t solves = 0;              ///< solve() calls completed
        std::uint64_t max_decision_level = 0;  ///< deepest level ever reached
        double solve_seconds = 0.0;            ///< wall time inside solve()
    };

    /// What the most recent solve() call did, as a self-contained delta --
    /// the CEGAR span instrumentation reads this instead of diffing Stats
    /// snapshots by hand.
    struct SolveDelta {
        /// Meaningless before the first solve() call.
        Result result = Result::kSat;
        std::uint64_t conflicts = 0;
        std::uint64_t decisions = 0;
        std::uint64_t propagations = 0;
        std::uint64_t max_decision_level = 0;  ///< deepest level this call
        double seconds = 0.0;
    };

    Var new_var();
    int num_vars() const { return static_cast<int>(vardata_.size()); }
    /// Clauses currently in the database (problem + learned); the CEGAR
    /// attack uses growth of this figure to schedule inprocessing.
    std::size_t num_clauses() const { return num_clauses_; }

    /// Adds a clause; `lits` is only read.  Returns false if the clause is
    /// trivially unsatisfiable at level 0 (solver becomes permanently
    /// UNSAT).
    bool add_clause(std::span<const Lit> lits);
    bool add_clause(std::initializer_list<Lit> lits) {
        return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
    }

    /// Convenience overloads.
    bool add_unit(Lit a) { return add_clause({a}); }
    bool add_binary(Lit a, Lit b) { return add_clause({a, b}); }
    bool add_ternary(Lit a, Lit b, Lit c) { return add_clause({a, b, c}); }

    Result solve(const std::vector<Lit>& assumptions = {});

    /// Model access after kSat.  Covers every variable, including those
    /// removed by preprocessing: their values are reconstructed lazily
    /// from the stored eliminated clauses on first access after each SAT
    /// answer (model enumeration loops that only read frozen variables --
    /// the attack's selector families -- never pay for the extension).
    bool model_value(Var v) const {
        if (!model_extended_ && eliminated_[static_cast<std::size_t>(v)]) {
            extend_model();
        }
        return model_[static_cast<std::size_t>(v)];
    }

    /// True once `v` was removed by Preprocessor variable elimination.
    /// Such variables must not appear in later clauses or assumptions;
    /// freeze anything the caller intends to reference again.
    bool var_eliminated(Var v) const {
        return eliminated_[static_cast<std::size_t>(v)];
    }

    /// False once the clause database is contradictory at level 0 (every
    /// later solve() returns kUnsat).
    bool ok() const { return ok_; }

    /// Snapshot of the problem formula for external consumers (the
    /// count::ProjectedCounter subsystem): every non-learned
    /// clause plus every level-0 trail literal as a unit clause.  Level-0
    /// literals are implied by the formula, so including them preserves
    /// the model set while handing the consumer the solver's propagation
    /// work for free.  Variables removed by preprocessing simply do not
    /// appear (bounded variable elimination preserves satisfiability
    /// projected onto the remaining -- in particular all frozen --
    /// variables).  When ok() is false the snapshot is a single empty
    /// clause.  Requires decision level 0 (always true outside solve()).
    std::vector<std::vector<Lit>> snapshot_clauses() const;

    const Stats& stats() const { return stats_; }

    /// Telemetry for the most recent solve() call (all-zero before the
    /// first call).
    const SolveDelta& last_solve() const { return last_solve_; }

    /// Overrides the learned-clause budget (the count above which the
    /// database is reduced; it grows geometrically after each reduction).
    /// 0 restores the adaptive default of max(#problem clauses / 3, 2000).
    /// Testing/tuning hook.
    void set_learned_limit(std::uint64_t limit) {
        learned_budget_ = static_cast<double>(limit);
    }

private:
    friend class Preprocessor;  // rewrites the arena and watches_ wholesale

    /// Offset of a clause's header word in arena_.
    using CRef = std::uint32_t;
    static constexpr CRef kNoReason = ~CRef{0};
    static constexpr std::uint32_t kLearned = 1;
    static constexpr std::uint32_t kDeleted = 2;

    /// Model-extension record for one variable removed by bounded variable
    /// elimination: the original clauses in which the variable occurred
    /// with polarity `negated` (the smaller occurrence side).  The other
    /// side is implied by the resolvents -- see Solver::extend_model().
    struct Elimination {
        Var var;
        bool negated;  ///< stored clauses contain mk_lit(var, negated)
        std::vector<std::vector<Lit>> clauses;
    };
    /// Watch-list entry: the clause plus a cached "blocking literal" (some
    /// other literal of the clause).  If the blocker is already true the
    /// clause is satisfied and propagation skips dereferencing it -- most
    /// watch traversals end here, so this trades one extra int per watcher
    /// for a large cut in cache misses on the hot path.
    struct Watcher {
        CRef clause;
        Lit blocker;
    };

    Value value(Lit l) const { return values_[static_cast<std::size_t>(l)]; }
    Value var_value(Var v) const { return value(mk_lit(v)); }
    int level(Var v) const { return vardata_[static_cast<std::size_t>(v)].level; }
    CRef reason(Var v) const { return vardata_[static_cast<std::size_t>(v)].reason; }

    // Arena access.  lits() stays valid until the arena next grows (a
    // clause is added) or is compacted (reduce_db, Preprocessor commit).
    // It reads the std::uint32_t words as Lit (int): a signed and an
    // unsigned type of one width may alias.
    std::uint32_t clause_size(CRef cr) const { return arena_[cr] >> 2; }
    bool clause_learned(CRef cr) const { return (arena_[cr] & kLearned) != 0; }
    Lit* lits(CRef cr) { return reinterpret_cast<Lit*>(&arena_[cr + 1]); }
    const Lit* lits(CRef cr) const {
        return reinterpret_cast<const Lit*>(&arena_[cr + 1]);
    }
    /// Words the clause occupies: header, literals, learned activity.
    std::uint32_t clause_words(CRef cr) const {
        return 1 + clause_size(cr) + (clause_learned(cr) ? 2 : 0);
    }
    double activity(CRef cr) const;
    void set_activity(CRef cr, double a);
    /// Appends a clause of >= 2 literals (counted in num_clauses_, and in
    /// num_learned_ when learned); does not attach it.
    CRef alloc_clause(std::span<const Lit> lits, bool learned,
                      double activity = 0.0);
    void enqueue(Lit l, CRef reason) {
        assert(value(l) == Value::kUnknown);
        const Var v = lit_var(l);
        values_[static_cast<std::size_t>(l)] = Value::kTrue;
        values_[static_cast<std::size_t>(lit_not(l))] = Value::kFalse;
        vardata_[static_cast<std::size_t>(v)].level = decision_level();
        vardata_[static_cast<std::size_t>(v)].reason = reason;
        polarity_[static_cast<std::size_t>(v)] = !lit_negated(l);
        trail_.push_back(l);
    }
    CRef propagate();  // returns the conflicting clause or kNoReason
    /// First-UIP analysis into learned_ (asserting literal first) and the
    /// backtrack level.
    int analyze(CRef conflict);
    bool lit_redundant(Lit l, std::uint32_t abstract_levels);
    void backtrack(int level);
    Lit pick_branch();
    void bump_var(Var v);
    void decay_var_activity();
    void bump_clause(CRef cr);
    void decay_clause_activity();
    void attach(CRef cr);
    /// Rebuilds every watch list from the arena, in clause order.
    void attach_all();
    void heap_insert(Var v);
    Var heap_pop();
    void heap_up(int i);
    void heap_down(int i);
    bool clause_locked(CRef cr) const;
    void reduce_db();  // requires decision level 0
    void extend_model() const;  // reconstruct eliminated vars (lazy, after kSat)

    int decision_level() const { return static_cast<int>(trail_lim_.size()); }

    std::vector<std::uint32_t> arena_;
    std::size_t num_clauses_ = 0;                // live clauses in arena_
    std::vector<std::vector<Watcher>> watches_;  // per literal
    std::vector<Value> values_;   // per literal
    std::vector<bool> polarity_;  // saved phases
    /// Per var, side by side because analysis reads both: the clause that
    /// implied it (kNoReason for decisions, assumptions and units) and its
    /// decision level.
    struct VarData {
        CRef reason;
        int level;
    };
    std::vector<VarData> vardata_;
    std::vector<Lit> trail_;
    std::vector<int> trail_lim_;
    std::size_t qhead_ = 0;

    std::vector<double> activity_;
    double var_inc_ = 1.0;
    // Activity-ordered max-heap of branching candidates (indexed binary
    // heap: heap_pos_[v] is v's slot or -1).  Assigned vars are popped
    // lazily and re-inserted on backtrack.
    std::vector<int> heap_;
    std::vector<int> heap_pos_;

    double cla_inc_ = 1.0;
    std::uint64_t num_learned_ = 0;  // learned clauses currently in the DB
    double learned_budget_ = 0.0;    // adaptive limit; grows after each reduce

    mutable std::vector<bool> model_;
    mutable bool model_extended_ = true;   ///< lazy-extension dirty flag
    std::vector<bool> eliminated_;         ///< per var; set by Preprocessor
    std::vector<Elimination> eliminations_;  ///< in elimination order
    bool ok_ = true;
    Stats stats_;
    SolveDelta last_solve_;

    // Scratch buffers, reused so the search does not allocate per clause
    // or per conflict.
    std::vector<std::uint8_t> seen_;  // per var, analyze()/lit_redundant()
    std::vector<Lit> learned_;        // analyze() output
    std::vector<Var> marked_;         // vars analyze() marked seen
    std::vector<Lit> analyze_stack_;  // lit_redundant() DFS
    std::vector<Var> redundant_marks_;  // vars lit_redundant() marked seen
    std::vector<Lit> add_scratch_;    // add_clause() simplification
    std::vector<CRef> reduce_candidates_;
};

}  // namespace mvf::sat
