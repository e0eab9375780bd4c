#pragma once
// Exact projected model counting (#SAT over a projection set), sharpSAT
// style: DPLL-with-counting that branches only on projection variables,
// decomposes the residual formula into variable-disjoint connected
// components, and memoizes component counts in a hashed cache under a
// memory budget.
//
// This is the subsystem that removes the attack layer's survivor-
// enumeration cap (ROADMAP: "a projected model counter ... would remove
// the cap on large spaces").  The enumeration attacker pays one SAT model
// per surviving configuration, so a netlist with 2^40 surviving selector
// assignments only ever reports "at least 2^20"; the projected counter
// instead *counts* them -- summing over branch decisions, multiplying
// across independent components (a dead-cone cell whose support collapsed
// to constants is one tiny component contributing x#choices), and shifting
// by 2^k for projection variables no active clause constrains.
//
// Representation (the part that makes caching work): the clause database
// is immutable; a component is a sorted list of unassigned variables plus
// a sorted list of clause indices that are unsatisfied under the current
// partial assignment.  Those two lists determine the residual subformula
// exactly (a residual clause is its unassigned literals), so they double
// as the cache key -- a few words per clause instead of a copy of it.
//
// Layout (the part that makes a decision cost what it changed): the
// database is one flat literal array plus per-clause offsets, with flat
// per-literal occurrence lists beside it, and the assignment is a
// per-literal value array, so a literal's value is one load.  Unit
// propagation walks the occurrence lists of the literals assigned since the
// branch, never the whole component; that finds the same fixpoint, and the
// same conflict or none, as rescanning the component until nothing
// changes, because (a) after the parent's fixpoint every unsatisfied clause
// keeps two unassigned literals, so only a clause holding the negation of a
// newly assigned literal can turn unit or empty, (b) components are
// variable-disjoint, so a clause outside the component that holds one of
// its unassigned variables is already satisfied, and (c) the fixpoint and
// whether it conflicts do not depend on the visiting order.  The root scans
// every clause once for units first.  Decomposition is one pass over the
// parent's clauses on a per-depth scratch frame whose
// capacity is kept: a component is a pair of spans into the frame of the
// level that split it, clauses in residual order and components in order of
// their first clause; component variables come out sorted by filtering the
// parent's sorted list.
//
// Semantics: count() returns |{ assignments a to `projection` : F|a is
// satisfiable }|.  Components containing no projection variable contribute
// 1 or 0 via a plain DPLL existence check.  Counts are Count128 and
// saturate (flagged, never wrapped) beyond 2^128 - 1.

#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "count/cnf.hpp"
#include "count/count128.hpp"

namespace mvf::count {

struct CounterConfig {
    /// Component-cache memory budget in bytes.  When exceeded, half the
    /// cache is evicted (counted in CounterStats::cache_evictions); the
    /// result stays exact, only the reuse rate degrades.
    std::size_t cache_bytes = 64ull << 20;
    /// Safety valve on branch decisions; 0 = unlimited.  When exceeded the
    /// search aborts and Result::exact is false.
    std::uint64_t max_decisions = 0;
};

struct CounterStats {
    std::uint64_t decisions = 0;      ///< branches taken (counting + existence)
    /// Literals assigned by decisions and unit propagation.  The one
    /// field the search does not fix: on a branch that ends in a conflict,
    /// how many literals are assigned before the conflict shows depends on
    /// the order propagation visits clauses.  Every other field is fixed by
    /// the search alone.
    std::uint64_t propagations = 0;
    std::uint64_t components = 0;     ///< components created by decomposition
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_stores = 0;
    std::uint64_t cache_evictions = 0;  ///< entries dropped by budget sweeps
    std::uint64_t sat_checks = 0;  ///< existence checks on projection-free components
    std::size_t cache_entries = 0;  ///< resident entries after count()
    std::size_t cache_peak_bytes = 0;

    bool operator==(const CounterStats&) const = default;
};

/// A component-cache key: the renamed residual formula of a component (see
/// ProjectedCounter::encode) and its 64-bit FNV-1a hash, computed while the
/// words are written.
struct ComponentKey {
    std::vector<std::uint32_t> words;
    std::size_t hash = 0;

    bool operator==(const ComponentKey& other) const {
        return hash == other.hash && words == other.words;
    }
};

/// Returns the carried hash.  noexcept keeps std::unordered_map from
/// caching the hash a second time in every node.
struct ComponentKeyHash {
    std::size_t operator()(const ComponentKey& key) const noexcept {
        return key.hash;
    }
};

class ProjectedCounter {
public:
    explicit ProjectedCounter(Cnf cnf, CounterConfig config = {});

    struct Result {
        Count128 count;
        /// True for an exact count; false when the count saturated 128
        /// bits or the decision cap aborted the search (the count is then
        /// a lower bound / partial figure respectively).
        bool exact = true;
        CounterStats stats;
    };

    /// Runs the count on the calling thread.  Deterministic: identical Cnf
    /// inputs and configs give identical results, and the count itself does
    /// not depend on the cache budget (which only affects the cache_* and
    /// decision figures and the runtime).
    Result count();

private:
    /// The immutable half of a count: the validated, normalized flat
    /// clause store, its occurrence lists and the projection.
    struct Store {
        explicit Store(Cnf cnf);

        std::span<const sat::Lit> clause(int i) const {
            const std::size_t b = clause_begin[static_cast<std::size_t>(i)];
            const std::size_t e = clause_begin[static_cast<std::size_t>(i) + 1];
            return {lits.data() + b, e - b};
        }
        /// The clauses containing literal l, in increasing index order.
        std::span<const int> occurrences(sat::Lit l) const {
            const std::size_t b = occ_begin[static_cast<std::size_t>(l)];
            const std::size_t e = occ_begin[static_cast<std::size_t>(l) + 1];
            return {occ.data() + b, e - b};
        }
        std::size_t num_clauses() const { return all_clauses.size(); }

        int num_vars = 0;
        /// The input held an empty clause: the count is zero.
        bool root_conflict = false;
        std::size_t max_clause_len = 0;
        /// Clause i is lits[clause_begin[i], clause_begin[i + 1]).
        std::vector<sat::Lit> lits;
        std::vector<std::uint32_t> clause_begin;
        /// Literal l occurs in occ[occ_begin[l], occ_begin[l + 1]).
        std::vector<std::uint32_t> occ_begin;
        std::vector<int> occ;
        std::size_t projection_size = 0;  ///< distinct projection variables
        std::vector<unsigned char> is_proj;
        /// The root component: every clause and every variable.
        std::vector<int> all_clauses;
        std::vector<sat::Var> all_vars;
    };
    /// One decomposition unit: the unassigned variables (sorted) and the
    /// unsatisfied clause indices (sorted) of a variable-connected region,
    /// as spans into the frame of the level that split it off (or into the
    /// store, for the root).
    struct Component {
        std::span<const sat::Var> vars;
        std::span<const int> cls;
    };
    /// count_children's output at one recursion depth: the clause and
    /// variable lists of every component it split off, back to back.
    /// Frames are reused with their capacity, and a deeper level never
    /// writes a shallower frame, so the spans stay valid while the
    /// components are counted.
    struct Frame {
        std::vector<sat::Var> vars;
        std::vector<int> cls;
        std::vector<Component> comps;
    };
    /// A residual clause and a union-find slot of one of its variables
    /// (later the index of its component).
    struct Residual {
        int clause;
        int slot;
    };

    /// -1 unknown, else 0/1 under the current partial assignment.
    int lit_value(sat::Lit l) const {
        return lit_val_[static_cast<std::size_t>(l)];
    }
    void assign(sat::Lit l);
    void undo_to(std::size_t mark);

    /// Assigns the last unassigned literal of clause ci when it is the
    /// only one and nothing satisfies the clause; false when every literal
    /// is false.
    bool propagate_clause(int ci);
    /// Unit propagation from trail_[head] on, through the occurrence lists
    /// of the falsified literals.  False on a conflict.
    bool propagate(std::size_t head);
    /// One scan of every clause for units and conflicts, then propagate.
    bool propagate_root();
    Component root() const;
    Frame& frame(std::size_t depth);
    Count128 count_children(const Component& parent, std::size_t depth);
    Count128 count_component(const Component& comp, std::size_t depth);
    bool exists(std::span<const int> cls);
    /// Writes comp's cache key and its hash into probe_, and each
    /// variable's rank in comp.vars into slot_of_.
    void encode(const Component& comp);
    /// The projection variable count_component branches on (-1: none),
    /// scored from the key encode just wrote.
    sat::Var pick_branch(const Component& comp, const ComponentKey& key);
    void cache_store(ComponentKey key, const Count128& value);
    /// One branch decision booked against the budget; sets aborted_ and
    /// returns true when over it.
    bool decision_over_budget();

    CounterConfig config_;
    CounterStats stats_;
    Store store_;

    /// Per-literal value: -1 unassigned, else 0/1.
    std::vector<signed char> lit_val_;
    std::vector<sat::Lit> trail_;
    /// Scratch stamps for residual-variable membership tests (a fresh
    /// stamp value per use keeps it reentrant across recursion).
    std::vector<int> stamp_;
    /// Variable -> union-find slot in count_children (valid only behind a
    /// matching stamp_, so it is never cleared), or -> rank in the
    /// component encode last wrote.
    std::vector<int> slot_of_;
    int stamp_counter_ = 0;
    bool aborted_ = false;

    /// count_children scratch, all consumed before it recurses.
    std::vector<Residual> residual_;
    std::vector<int> uf_;
    std::vector<int> comp_of_;
    std::vector<std::uint32_t> cls_cursor_;
    std::vector<std::uint32_t> vars_cursor_;
    std::vector<sat::Var> clause_vars_;
    /// count_children output, one frame per recursion depth.
    std::deque<Frame> frames_;
    /// Key of the component being looked up; copied only on a miss.
    ComponentKey probe_;
    std::vector<std::uint64_t> score_;

    std::unordered_map<ComponentKey, Count128, ComponentKeyHash> cache_;
    std::size_t cache_bytes_ = 0;
};

}  // namespace mvf::count
