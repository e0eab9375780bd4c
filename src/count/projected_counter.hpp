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
// per-literal value array, so a literal's value is one load.  The store is
// shared read-only by the cube workers of a parallel count.  Unit
// propagation walks the occurrence lists of the literals assigned since the
// branch, never the whole component; that finds the same fixpoint, and the
// same conflict or none, as rescanning the component until nothing
// changes, because (a) after the parent's fixpoint every unsatisfied clause
// keeps two unassigned literals, so only a clause holding the negation of a
// newly assigned literal can turn unit or empty, (b) components are
// variable-disjoint, so a clause outside the component that holds one of
// its unassigned variables is already satisfied, and (c) the fixpoint and
// whether it conflicts do not depend on the visiting order.  The root (and
// each cube) scans every clause once for units first.  Decomposition is one
// pass over the parent's clauses on a per-depth scratch frame whose
// capacity is kept: a component is a pair of spans into the frame of the
// level that split it, clauses in residual order and components in order of
// their first clause; component variables come out sorted by filtering the
// parent's sorted list.
//
// Semantics: count() returns |{ assignments a to `projection` : F|a is
// satisfiable }|.  Components containing no projection variable contribute
// 1 or 0 via a plain DPLL existence check.  Counts are Count128 and
// saturate (flagged, never wrapped) beyond 2^128 - 1.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "count/cnf.hpp"
#include "count/count128.hpp"

namespace mvf::util {
class ThreadPool;
}  // namespace mvf::util

namespace mvf::count {

struct CounterConfig {
    /// Component-cache memory budget in bytes.  When exceeded, half the
    /// cache is evicted (counted in CounterStats::cache_evictions); the
    /// result stays exact, only the reuse rate degrades.
    std::size_t cache_bytes = 64ull << 20;
    /// Safety valve on branch decisions; 0 = unlimited.  When exceeded the
    /// search aborts and Result::exact is false.  In cube mode the budget
    /// is GLOBAL across all cubes (a shared atomic), so the valve fires at
    /// the same total work as serially -- though not at the same point in
    /// the search, so budget-aborted runs are only comparable via
    /// exact=false, never via the partial count.
    std::uint64_t max_decisions = 0;
    /// Worker threads for cube-and-conquer counting (<= 1 = serial).
    int threads = 1;
    /// Selector-cube width k: the top-level projection is split into 2^k
    /// cubes over the k most-active projection variables, counted
    /// independently and summed.  0 = pick automatically from `threads`
    /// (the smallest k giving >= 4 cubes per worker).  Cube mode engages
    /// when threads > 1 or cube_vars > 0, and is bit-identical to the
    /// serial count: exact projected counts are partition-sums, so any
    /// cube split of the assignment space yields the same total, and
    /// Count128 saturation pins to the same 2^128-1 either way.
    int cube_vars = 0;
    /// Pool to run cube workers on; nullptr = a private pool of
    /// `threads - 1` workers.  Sharing the caller's pool is safe even when
    /// the caller IS a pool worker: the counter drains cubes on the
    /// calling thread too and help-waits (ThreadPool::run_one) on its
    /// futures, so it cannot starve with zero free workers.
    util::ThreadPool* pool = nullptr;
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

/// Mutex-sharded component cache shared by the cube workers of one
/// parallel count: the cube subproblems decompose into the same renamed
/// components, so a component proved by one worker is a hit for every
/// other.  Each shard has its own lock, map and byte budget (total /
/// shards) with the same evict-every-other overflow sweep as the serial
/// cache.  Correctness never depends on cache contents -- a racy
/// lookup/store interleaving costs at most a recount.
class SharedComponentCache {
public:
    SharedComponentCache(std::size_t budget_bytes, int shards);

    /// True and *out filled on a hit.
    bool lookup(const ComponentKey& key, Count128* out) const;
    /// Inserts (first writer wins); *evicted gets the entries dropped by
    /// an overflow sweep.  Returns false when the entry was skipped (too
    /// big for its shard) or already present.
    bool store(ComponentKey key, const Count128& value, std::uint64_t* evicted);

    std::size_t entries() const;
    std::size_t peak_bytes() const;

private:
    struct Shard {
        mutable std::mutex mutex;
        std::unordered_map<ComponentKey, Count128, ComponentKeyHash> map;
        std::size_t bytes = 0;
        std::size_t peak_bytes = 0;
    };
    Shard& shard_for(const ComponentKey& key) const;

    std::size_t shard_budget_;
    mutable std::vector<Shard> shards_;
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

    /// Runs the count.  Deterministic: identical Cnf inputs give identical
    /// counts regardless of the cache budget, thread count or cube width
    /// (which only affect cache_*/decision figures and runtime).
    Result count();

private:
    /// The immutable half of a count: the validated, normalized flat
    /// clause store, its occurrence lists and the projection.
    struct Store;
    /// Fresh search state on `store`.  The cube workers of a parallel
    /// count are built this way on the driver's store, which outlives them.
    ProjectedCounter(std::shared_ptr<const Store> store, CounterConfig config);
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
    /// One branch decision booked against the (possibly shared) budget;
    /// sets aborted_ and returns true when over budget or cube-cancelled.
    bool decision_over_budget();
    /// Counts the root restricted to `cube` (literals assigned before root
    /// propagation); leaves the trail empty again.
    Count128 count_cube(const std::vector<sat::Lit>& cube);
    /// The k most-active unassigned projection variables by the same
    /// clause-length-weighted score count_component branches on (call with
    /// the root trail in place, i.e. after root propagation).
    std::vector<sat::Var> pick_cube_vars(int k);
    /// Cube-and-conquer driver (threads > 1 or cube_vars > 0).
    void count_cubes(Result* result);

    CounterConfig config_;
    CounterStats stats_;
    std::shared_ptr<const Store> store_;

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

    /// Cube-worker shared state (null in serial mode / on the driver).
    SharedComponentCache* shared_cache_ = nullptr;
    std::atomic<std::uint64_t>* shared_decisions_ = nullptr;
    std::atomic<bool>* shared_abort_ = nullptr;
};

}  // namespace mvf::count
