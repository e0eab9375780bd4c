#pragma once
// SatELite-style CNF preprocessing for the CDCL solver: bounded variable
// elimination (BVE), clause subsumption, and self-subsuming resolution
// (clause strengthening), run on the clause database at decision level 0.
//
// Motivation (ROADMAP): the oracle-guided CEGAR attack stamps hundreds of
// circuit copies into one incremental solver; most of their auxiliary gate
// variables have a handful of occurrences and resolve away, leaving far
// smaller clauses over the selector variables the attack actually branches
// on.  The same pass also shrinks the enumeration instance used for
// surviving-configuration counting.
//
// Incremental soundness contract:
//   - Variables the caller will reference again -- in later add_clause()
//     calls, in assumptions, or by reading model values that must coincide
//     with a specific encoding (e.g. CnfBuilder selector families and its
//     constant variable) -- must be frozen before run().  Eliminated
//     variables must never reappear in clauses or assumptions (enforced by
//     asserts in the solver).
//   - Models are extended back to the original namespace after every SAT
//     answer: model_value() stays valid for eliminated variables, so
//     reading e.g. miter primary inputs does not require freezing them.
//   - Learned clauses survive preprocessing unless they mention an
//     eliminated variable (they are entailed, so keeping them is sound).
//
// run() may be called again later (inprocessing): the CEGAR loop re-runs
// it after stamping many per-pattern circuit copies, which is where the
// bulk of the elimination opportunity appears.

#include <cstdint>
#include <span>
#include <vector>

#include "sat/solver.hpp"

namespace mvf::sat {

/// Bounded-variable-elimination budgets of one Preprocessor.  The attacks
/// run the defaults; the SAT fuzz and golden tests vary them.
struct SolverConfig {
    /// BVE considers only variables with at most this many occurrences in
    /// each polarity.  (Defaults tuned on bench_oracle_attack --quick.)
    int elim_occ_limit = 32;
    /// BVE may grow the clause count by at most this much per elimination
    /// (resolvents already subsumed by an existing clause do not count).
    int elim_growth = 8;
    /// Resolvents longer than this veto the elimination producing them.
    int elim_resolvent_limit = 24;
    /// Alternating subsumption/elimination rounds per run().
    int max_rounds = 4;
};

/// Per-run() counters (cumulative totals also land in Solver::Stats).
struct PreprocessStats {
    std::uint64_t eliminated_vars = 0;
    std::uint64_t subsumed_clauses = 0;
    std::uint64_t strengthened_lits = 0;
    std::uint64_t removed_clauses = 0;  ///< satisfied/eliminated/subsumed
    int rounds = 0;
};

class Preprocessor {
public:
    explicit Preprocessor(Solver* solver, SolverConfig config = {});

    /// Marks a variable as untouchable by elimination.  Frozen status is
    /// per-Preprocessor; re-freeze when constructing a new one.
    void freeze(Var v);
    void freeze_all(std::span<const Var> vars);
    /// Freezes the variables underlying `lits` (convenience for PI vectors).
    void freeze_lits(std::span<const Lit> lits);

    /// Runs simplification to (bounded) fixpoint and commits the reduced
    /// database back into the solver.  Returns false when the instance was
    /// proven UNSAT at level 0 (the solver is then permanently UNSAT).
    /// Requires decision level 0 (always true outside solve()).
    bool run();

    /// Light inprocessing pass: physically removes clauses satisfied at
    /// level 0 and strips falsified literals -- across problem AND learned
    /// clauses -- without subsumption or elimination, so the learned
    /// database survives intact.  The CEGAR loop runs this as its
    /// per-pattern copies get pinned down by propagation (a large share of
    /// the database becomes satisfied at level 0 and only wastes watch
    /// traversals).  Same UNSAT contract as run().
    bool run_light();

    const PreprocessStats& stats() const { return stats_; }

private:
    // Working clause database (problem clauses only, sorted literals).
    bool run_internal(bool full);
    bool snapshot();
    bool propagate_units();
    bool subsume_round(bool* progress);
    bool eliminate_round(bool* progress);
    void commit();

    void kill(int ci);
    void occ_remove(Lit l, int ci);
    bool clause_implied(const std::vector<Lit>& lits);
    int add_work_clause(std::vector<Lit> lits);
    std::uint64_t signature(const std::vector<Lit>& lits) const;
    Value fixed_value(Lit l) const;
    bool assign_unit(Lit l);

    Solver* solver_;
    SolverConfig config_;
    PreprocessStats stats_;

    std::vector<bool> frozen_;

    std::vector<std::vector<Lit>> cls_;
    std::vector<std::uint64_t> sig_;
    std::vector<bool> dead_;
    std::vector<std::vector<int>> occ_;  // per literal
    std::vector<Value> fixed_;           // per var, includes new units
    std::vector<Lit> unit_queue_;
    std::vector<int> subsume_queue_;
    std::vector<bool> queued_;
    std::uint64_t budget_ = 0;  // literal-comparison budget for subsumption
};

}  // namespace mvf::sat
