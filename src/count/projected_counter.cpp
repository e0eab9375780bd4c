#include "count/projected_counter.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <future>
#include <span>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace mvf::count {

using sat::Lit;
using sat::Var;

// -------------------------------------------------- SharedComponentCache --

SharedComponentCache::SharedComponentCache(std::size_t budget_bytes,
                                           int shards)
    : shards_(static_cast<std::size_t>(std::max(1, shards))) {
    shard_budget_ = std::max<std::size_t>(budget_bytes / shards_.size(), 4096);
}

SharedComponentCache::Shard& SharedComponentCache::shard_for(
    const ComponentKey& key) const {
    // Decorrelate from the in-shard bucket hash by mixing the high bits.
    const std::uint64_t h = key.hash;
    return shards_[static_cast<std::size_t>((h >> 17) % shards_.size())];
}

bool SharedComponentCache::lookup(const ComponentKey& key,
                                  Count128* out) const {
    Shard& s = shard_for(key);
    std::lock_guard lock(s.mutex);
    const auto it = s.map.find(key);
    if (it == s.map.end()) return false;
    *out = it->second;
    return true;
}

bool SharedComponentCache::store(ComponentKey key, const Count128& value,
                                 std::uint64_t* evicted) {
    const std::size_t bytes = key.words.size() * sizeof(std::uint32_t) + 64;
    if (bytes > shard_budget_ / 4) return false;  // would only thrash
    Shard& s = shard_for(key);
    std::lock_guard lock(s.mutex);
    const auto [it, inserted] = s.map.emplace(std::move(key), value);
    (void)it;
    if (!inserted) return false;  // another worker proved it first
    s.bytes += bytes;
    s.peak_bytes = std::max(s.peak_bytes, s.bytes);
    if (s.bytes <= shard_budget_) return true;
    // Same evict-every-other overflow sweep as the serial cache, per shard.
    bool victim = false;
    for (auto i = s.map.begin(); i != s.map.end();) {
        if (victim) {
            s.bytes -= i->first.words.size() * sizeof(std::uint32_t) + 64;
            i = s.map.erase(i);
            ++*evicted;
        } else {
            ++i;
        }
        victim = !victim;
    }
    return true;
}

std::size_t SharedComponentCache::entries() const {
    std::size_t total = 0;
    for (Shard& s : shards_) {
        std::lock_guard lock(s.mutex);
        total += s.map.size();
    }
    return total;
}

std::size_t SharedComponentCache::peak_bytes() const {
    std::size_t total = 0;
    for (Shard& s : shards_) {
        std::lock_guard lock(s.mutex);
        total += s.peak_bytes;
    }
    return total;
}

// ------------------------------------------------------- ProjectedCounter --

struct ProjectedCounter::Store {
    explicit Store(Cnf cnf);

    std::span<const Lit> clause(int i) const {
        const std::size_t b = clause_begin[static_cast<std::size_t>(i)];
        const std::size_t e = clause_begin[static_cast<std::size_t>(i) + 1];
        return {lits.data() + b, e - b};
    }
    /// The clauses containing literal l, in increasing index order.
    std::span<const int> occurrences(Lit l) const {
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
    std::vector<Lit> lits;
    std::vector<std::uint32_t> clause_begin;
    /// Literal l occurs in occ[occ_begin[l], occ_begin[l + 1]).
    std::vector<std::uint32_t> occ_begin;
    std::vector<int> occ;
    std::size_t projection_size = 0;  ///< distinct projection variables
    std::vector<unsigned char> is_proj;
    /// The root component: every clause and every variable.
    std::vector<int> all_clauses;
    std::vector<Var> all_vars;
};

ProjectedCounter::Store::Store(Cnf cnf) : num_vars(cnf.num_vars) {
    validate(cnf);
    const auto n = static_cast<std::size_t>(num_vars);
    is_proj.assign(n, 0);
    for (const Var v : cnf.projection) {
        if (!is_proj[static_cast<std::size_t>(v)]) {
            is_proj[static_cast<std::size_t>(v)] = 1;
            ++projection_size;
        }
    }
    all_vars.resize(n);
    for (std::size_t v = 0; v < n; ++v) all_vars[v] = static_cast<Var>(v);

    // Normalize into the flat store: sorted deduplicated literals,
    // tautologies dropped, an empty clause marking the whole formula
    // unsatisfiable.
    clause_begin.push_back(0);
    for (std::vector<Lit>& c : cnf.clauses) {
        std::sort(c.begin(), c.end());
        c.erase(std::unique(c.begin(), c.end()), c.end());
        bool tautology = false;
        for (std::size_t j = 0; j + 1 < c.size(); ++j) {
            if (c[j + 1] == sat::lit_not(c[j])) {
                tautology = true;
                break;
            }
        }
        if (tautology) continue;
        if (c.empty()) {
            root_conflict = true;
            break;
        }
        if (lits.size() + c.size() > UINT32_MAX) {
            throw std::length_error("ProjectedCounter: over 2^32 - 1 literals");
        }
        lits.insert(lits.end(), c.begin(), c.end());
        clause_begin.push_back(static_cast<std::uint32_t>(lits.size()));
        max_clause_len = std::max(max_clause_len, c.size());
    }
    const std::size_t m = clause_begin.size() - 1;
    all_clauses.resize(m);
    for (std::size_t i = 0; i < m; ++i) all_clauses[i] = static_cast<int>(i);

    // Occurrence lists by counting sort over the literals.
    occ_begin.assign(2 * n + 1, 0);
    for (const Lit l : lits) ++occ_begin[static_cast<std::size_t>(l) + 1];
    for (std::size_t l = 0; l < 2 * n; ++l) occ_begin[l + 1] += occ_begin[l];
    occ.resize(lits.size());
    std::vector<std::uint32_t> cursor(occ_begin.begin(), occ_begin.end() - 1);
    for (std::size_t i = 0; i < m; ++i) {
        for (const Lit l : clause(static_cast<int>(i))) {
            occ[cursor[static_cast<std::size_t>(l)]++] = static_cast<int>(i);
        }
    }
}

ProjectedCounter::ProjectedCounter(Cnf cnf, CounterConfig config)
    : ProjectedCounter(std::make_shared<const Store>(std::move(cnf)), config) {}

ProjectedCounter::ProjectedCounter(std::shared_ptr<const Store> store,
                                   CounterConfig config)
    : config_(config), store_(std::move(store)) {
    const auto n = static_cast<std::size_t>(store_->num_vars);
    lit_val_.assign(2 * n, -1);
    trail_.reserve(n);
    stamp_.assign(n, 0);
    slot_of_.assign(n, -1);
    clause_vars_.resize(store_->max_clause_len);
}

bool ProjectedCounter::decision_over_budget() {
    ++stats_.decisions;
    if (shared_abort_ && shared_abort_->load(std::memory_order_relaxed)) {
        aborted_ = true;
        return true;
    }
    bool over;
    if (shared_decisions_) {
        // The budget is global across cubes: the valve fires at the same
        // TOTAL work as a serial run would spend.
        over = shared_decisions_->fetch_add(1, std::memory_order_relaxed) +
                   1 >
               config_.max_decisions;
    } else {
        over = config_.max_decisions > 0 &&
               stats_.decisions > config_.max_decisions;
    }
    if (over) {
        aborted_ = true;
        if (shared_abort_) {
            shared_abort_->store(true, std::memory_order_relaxed);
        }
    }
    return over;
}

void ProjectedCounter::assign(Lit l) {
    assert(lit_value(l) == -1);
    lit_val_[static_cast<std::size_t>(l)] = 1;
    lit_val_[static_cast<std::size_t>(sat::lit_not(l))] = 0;
    trail_.push_back(l);
    ++stats_.propagations;
}

void ProjectedCounter::undo_to(std::size_t mark) {
    while (trail_.size() > mark) {
        const Lit l = trail_.back();
        lit_val_[static_cast<std::size_t>(l)] = -1;
        lit_val_[static_cast<std::size_t>(sat::lit_not(l))] = -1;
        trail_.pop_back();
    }
}

bool ProjectedCounter::propagate_clause(int ci) {
    Lit unit = -1;
    int unassigned = 0;
    for (const Lit l : store_->clause(ci)) {
        const int v = lit_value(l);
        if (v == 1) return true;
        if (v == -1) {
            if (++unassigned > 1) return true;
            unit = l;
        }
    }
    if (unassigned == 0) return false;
    assign(unit);
    return true;
}

bool ProjectedCounter::propagate(std::size_t head) {
    const Store& s = *store_;
    while (head < trail_.size()) {
        const Lit falsified = sat::lit_not(trail_[head++]);
        for (const int ci : s.occurrences(falsified)) {
            if (!propagate_clause(ci)) return false;
        }
    }
    return true;
}

bool ProjectedCounter::propagate_root() {
    for (const int ci : store_->all_clauses) {
        if (!propagate_clause(ci)) return false;
    }
    return propagate(0);
}

ProjectedCounter::Component ProjectedCounter::root() const {
    return {store_->all_vars, store_->all_clauses};
}

ProjectedCounter::Frame& ProjectedCounter::frame(std::size_t depth) {
    // A deque: growing it keeps the shallower frames (and the component
    // spans into them) where they are.
    while (frames_.size() <= depth) frames_.emplace_back();
    return frames_[depth];
}

/// Cache key: the residual formula with variables renamed to their rank in
/// the component (plus a bitmask of which ranks are projection variables).
/// Renaming makes isomorphic components collide on purpose -- the CEGAR
/// enumeration instance stamps one circuit copy per I/O pattern, so
/// structurally identical subcircuits recur across copies under different
/// auxiliary variable ids, and equal keys imply a projection-preserving
/// isomorphism, hence equal counts.
void ProjectedCounter::encode(const Component& comp) {
    const Store& s = *store_;
    std::vector<std::uint32_t>& key = probe_.words;
    key.clear();
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a
    const auto put = [&key, &h](std::uint32_t word) {
        key.push_back(word);
        h ^= word;
        h *= 1099511628211ull;
    };
    put(static_cast<std::uint32_t>(comp.vars.size()));
    std::uint32_t word = 0;
    for (std::size_t i = 0; i < comp.vars.size(); ++i) {
        const auto v = static_cast<std::size_t>(comp.vars[i]);
        slot_of_[v] = static_cast<int>(i);
        if (s.is_proj[v]) word |= 1u << (i % 32);
        if (i % 32 == 31) {
            put(word);
            word = 0;
        }
    }
    put(word);
    for (const int ci : comp.cls) {
        for (const Lit l : s.clause(ci)) {
            if (lit_value(l) != -1) continue;
            const int local =
                slot_of_[static_cast<std::size_t>(sat::lit_var(l))];
            put(static_cast<std::uint32_t>(2 * local +
                                           (sat::lit_negated(l) ? 1 : 0) + 1));
        }
        put(0);  // clause separator (literals encode as >= 1)
    }
    probe_.hash = static_cast<std::size_t>(h);
}

void ProjectedCounter::cache_store(ComponentKey key, const Count128& value) {
    if (shared_cache_) {
        std::uint64_t evicted = 0;
        if (shared_cache_->store(std::move(key), value, &evicted)) {
            ++stats_.cache_stores;
        }
        stats_.cache_evictions += evicted;
        return;
    }
    const std::size_t bytes = key.words.size() * sizeof(std::uint32_t) + 64;
    if (bytes > config_.cache_bytes / 4) return;  // would only thrash
    cache_bytes_ += bytes;
    cache_.emplace(std::move(key), value);
    ++stats_.cache_stores;
    stats_.cache_peak_bytes = std::max(stats_.cache_peak_bytes, cache_bytes_);
    if (cache_bytes_ <= config_.cache_bytes) return;
    // Budget exceeded: evict every other entry.  Counts never depend on
    // what is cached, so any victim choice is sound; alternating keeps the
    // sweep cheap and roughly halves the footprint.
    bool victim = false;
    for (auto it = cache_.begin(); it != cache_.end();) {
        if (victim) {
            cache_bytes_ -= it->first.words.size() * sizeof(std::uint32_t) + 64;
            it = cache_.erase(it);
            ++stats_.cache_evictions;
        } else {
            ++it;
        }
        victim = !victim;
    }
}

/// Plain DPLL existence check for components without projection variables.
bool ProjectedCounter::exists(std::span<const int> cls) {
    const Store& s = *store_;
    // Find a branch literal among the still-unsatisfied clauses.
    Lit branch = -1;
    for (const int ci : cls) {
        bool satisfied = false;
        Lit candidate = -1;
        for (const Lit l : s.clause(ci)) {
            const int v = lit_value(l);
            if (v == 1) {
                satisfied = true;
                break;
            }
            if (v == -1 && candidate < 0) candidate = l;
        }
        if (!satisfied && candidate >= 0) {
            branch = candidate;
            break;
        }
    }
    if (branch < 0) return true;  // every clause satisfied
    // The budget applies to existence branching too: a projection-free
    // component can still hide an exponential DPLL.  The unwound result is
    // garbage, so aborted_ gates every consumer.
    if (decision_over_budget()) return false;
    for (int attempt = 0; attempt < 2; ++attempt) {
        const std::size_t mark = trail_.size();
        assign(attempt == 0 ? branch : sat::lit_not(branch));
        const bool found = propagate(mark) && exists(cls);
        undo_to(mark);
        if (found) return true;
    }
    return false;
}

/// Builds the residual of `parent` under the current assignment, splits it
/// into variable-connected components on frame `depth`, and returns the
/// product of their counts times 2^k for the parent's projection variables
/// that came free (unassigned and no longer constrained by any clause).
Count128 ProjectedCounter::count_children(const Component& parent,
                                          std::size_t depth) {
    const Store& s = *store_;
    const auto find = [this](int i) {
        while (uf_[static_cast<std::size_t>(i)] != i) {
            uf_[static_cast<std::size_t>(i)] =
                uf_[static_cast<std::size_t>(uf_[static_cast<std::size_t>(i)])];
            i = uf_[static_cast<std::size_t>(i)];
        }
        return i;
    };

    // One pass over the parent's clauses: drop the satisfied ones and union
    // the unassigned variables of the rest.  slot_of_ maps a variable to its
    // union-find slot and is read only behind a matching stamp, so it never
    // needs clearing between calls.
    const int stamp = ++stamp_counter_;
    residual_.clear();
    uf_.clear();
    for (const int ci : parent.cls) {
        std::size_t n = 0;
        bool satisfied = false;
        for (const Lit l : s.clause(ci)) {
            const int v = lit_value(l);
            if (v == 1) {
                satisfied = true;
                break;
            }
            if (v == -1) clause_vars_[n++] = sat::lit_var(l);
        }
        if (satisfied) continue;
        assert(n > 0);
        int root = -1;
        for (std::size_t i = 0; i < n; ++i) {
            const auto v = static_cast<std::size_t>(clause_vars_[i]);
            if (stamp_[v] != stamp) {
                stamp_[v] = stamp;
                slot_of_[v] = static_cast<int>(uf_.size());
                uf_.push_back(slot_of_[v]);
            }
            const int r = find(slot_of_[v]);
            if (root < 0) {
                root = r;
            } else if (r != root) {
                uf_[static_cast<std::size_t>(r)] = root;
            }
        }
        residual_.push_back({ci, root});
    }

    // Number the components in order of their first residual clause (the
    // zero-product exit below depends on it), then size each one.
    const std::size_t slots = uf_.size();
    comp_of_.assign(slots, -1);
    cls_cursor_.clear();
    for (Residual& r : residual_) {
        int& c = comp_of_[static_cast<std::size_t>(find(r.slot))];
        if (c < 0) {
            c = static_cast<int>(cls_cursor_.size());
            cls_cursor_.push_back(0);
        }
        r.slot = c;
        ++cls_cursor_[static_cast<std::size_t>(c)];
    }
    const std::size_t n_comps = cls_cursor_.size();
    vars_cursor_.assign(n_comps, 0);
    for (std::size_t i = 0; i < slots; ++i) {
        comp_of_[i] = comp_of_[static_cast<std::size_t>(find(static_cast<int>(i)))];
        ++vars_cursor_[static_cast<std::size_t>(comp_of_[i])];
    }

    // Lay the components out on this depth's frame: clauses keep residual
    // order, and filtering the sorted parent.vars keeps each component's
    // variables sorted.
    Frame& f = frame(depth);
    f.cls.resize(residual_.size());
    f.vars.resize(slots);
    f.comps.resize(n_comps);
    std::uint32_t cls_at = 0;
    std::uint32_t vars_at = 0;
    for (std::size_t c = 0; c < n_comps; ++c) {
        const std::uint32_t nc = cls_cursor_[c];
        const std::uint32_t nv = vars_cursor_[c];
        f.comps[c] = {{f.vars.data() + vars_at, nv}, {f.cls.data() + cls_at, nc}};
        cls_cursor_[c] = cls_at;
        vars_cursor_[c] = vars_at;
        cls_at += nc;
        vars_at += nv;
    }
    for (const Residual& r : residual_) {
        f.cls[cls_cursor_[static_cast<std::size_t>(r.slot)]++] = r.clause;
    }
    // Projection variables of the parent that dropped out of every clause
    // multiply the count by 2 each.
    int free_proj = 0;
    for (const Var v : parent.vars) {
        const auto vi = static_cast<std::size_t>(v);
        if (stamp_[vi] == stamp) {
            const auto c = static_cast<std::size_t>(
                comp_of_[static_cast<std::size_t>(slot_of_[vi])]);
            f.vars[vars_cursor_[c]++] = v;
        } else if (s.is_proj[vi] && lit_value(sat::mk_lit(v)) == -1) {
            ++free_proj;
        }
    }

    Count128 total = Count128::one();
    total.shift_left(free_proj);
    for (std::size_t c = 0; c < n_comps; ++c) {
        ++stats_.components;
        total.mul(count_component(f.comps[c], depth));
        if (total.is_zero() && !total.saturated()) break;
        if (aborted_) break;
    }
    return total;
}

// Branch on the projection variable whose occurrences sit in the shortest
// residual clauses (score ~ sum over clauses of 2^-len, like sharpSAT's
// clause-length weighting): on circuit instances that is the propagation
// frontier -- a selector whose cell's pins are already pinned down
// propagates its output through every copy and shatters the component.
// Ties go to the smallest variable id; deterministic.  The key holds each
// residual clause as its literals' ranks, so the score reads it instead of
// the clause store.
Var ProjectedCounter::pick_branch(const Component& comp,
                                  const ComponentKey& key) {
    const std::size_t n = comp.vars.size();
    score_.assign(n, 0);
    const std::uint32_t* mask = key.words.data() + 1;
    const auto is_proj = [mask](std::uint32_t rank) {
        return ((mask[rank / 32] >> (rank % 32)) & 1) != 0;
    };
    std::size_t i = 1 + n / 32 + 1;  // past the size and mask words
    while (i < key.words.size()) {
        std::size_t end = i;
        while (key.words[end] != 0) ++end;
        const std::size_t len = end - i;
        const std::uint64_t w = 1ull << (len < 16 ? 32 - 2 * len : 0);
        for (; i < end; ++i) {
            const std::uint32_t rank = (key.words[i] - 1) / 2;
            if (is_proj(rank)) score_[rank] += w;
        }
        i = end + 1;
    }
    Var branch = -1;
    std::uint64_t best = 0;
    for (std::size_t r = 0; r < n; ++r) {
        if (score_[r] > best) {
            best = score_[r];
            branch = comp.vars[r];
        }
    }
    return branch;
}

Count128 ProjectedCounter::count_component(const Component& comp,
                                           std::size_t depth) {
    if (aborted_) return Count128::zero();
    encode(comp);
    if (shared_cache_) {
        Count128 hit;
        if (shared_cache_->lookup(probe_, &hit)) {
            ++stats_.cache_hits;
            return hit;
        }
    } else if (const auto it = cache_.find(probe_); it != cache_.end()) {
        ++stats_.cache_hits;
        return it->second;
    }
    // The children overwrite probe_, so the miss keeps its own copy.
    ComponentKey key = probe_;

    const Var branch = pick_branch(comp, key);
    if (branch < 0) {
        // No projection variable: the component only gates whether an
        // extension exists.
        ++stats_.sat_checks;
        const Count128 r =
            exists(comp.cls) ? Count128::one() : Count128::zero();
        if (aborted_) return Count128::zero();  // partial: never cache
        cache_store(std::move(key), r);
        return r;
    }

    Count128 total;
    for (int b = 0; b < 2; ++b) {
        if (decision_over_budget()) return Count128::zero();
        const std::size_t mark = trail_.size();
        assign(sat::mk_lit(branch, /*negated=*/b == 0));
        if (propagate(mark)) {
            total.add(count_children(comp, depth + 1));
        }
        undo_to(mark);
        if (aborted_) return Count128::zero();
    }
    cache_store(std::move(key), total);
    return total;
}

Count128 ProjectedCounter::count_cube(const std::vector<Lit>& cube) {
    Count128 total;
    bool consistent = true;
    for (const Lit l : cube) {
        const int v = lit_value(l);
        if (v == 0) {
            consistent = false;
            break;
        }
        if (v == -1) assign(l);
    }
    if (consistent && propagate_root()) {
        total = count_children(root(), 0);
    }
    undo_to(0);
    return total;
}

std::vector<Var> ProjectedCounter::pick_cube_vars(int k) {
    // The same clause-length-weighted activity count_component branches
    // on, computed once over the whole root residual: the k winners are
    // the variables serial search would split on early, so the cubes cut
    // where propagation bites instead of along dead selectors.
    const Store& s = *store_;
    std::vector<std::uint64_t> score(static_cast<std::size_t>(s.num_vars), 0);
    for (const int ci : s.all_clauses) {
        bool satisfied = false;
        int len = 0;
        for (const Lit l : s.clause(ci)) {
            const int v = lit_value(l);
            if (v == 1) {
                satisfied = true;
                break;
            }
            if (v == -1) ++len;
        }
        if (satisfied || len == 0) continue;
        const std::uint64_t w = 1ull << (len < 16 ? 32 - 2 * len : 0);
        for (const Lit l : s.clause(ci)) {
            if (lit_value(l) != -1) continue;
            const auto v = static_cast<std::size_t>(sat::lit_var(l));
            if (s.is_proj[v]) score[v] += w;
        }
    }
    // Only constrained variables qualify (score > 0): splitting on a free
    // projection variable would just mirror every cube.
    std::vector<Var> picked;
    for (Var v = 0; v < s.num_vars; ++v) {
        if (score[static_cast<std::size_t>(v)] > 0) picked.push_back(v);
    }
    std::sort(picked.begin(), picked.end(), [&score](Var a, Var b) {
        const std::uint64_t sa = score[static_cast<std::size_t>(a)];
        const std::uint64_t sb = score[static_cast<std::size_t>(b)];
        if (sa != sb) return sa > sb;
        return a < b;
    });
    if (static_cast<int>(picked.size()) > k) {
        picked.resize(static_cast<std::size_t>(k));
    }
    std::sort(picked.begin(), picked.end());  // deterministic cube bit order
    return picked;
}

void ProjectedCounter::count_cubes(Result* result) {
    if (!propagate_root()) {
        undo_to(0);
        return;  // UNSAT at the root: count stays zero, exact
    }
    int k = config_.cube_vars;
    if (k <= 0) {
        // Auto width: at least 4 cubes per worker so one hard cube cannot
        // serialize the rest of the pool behind it.
        const int workers = std::max(1, config_.threads);
        k = 0;
        while ((1 << k) < 4 * workers && k < 10) ++k;
    }
    k = std::min(k, 16);
    const std::vector<Var> cube_vars = pick_cube_vars(k);
    undo_to(0);
    const int kk = static_cast<int>(cube_vars.size());
    const std::size_t n_cubes = std::size_t{1} << kk;
    const int workers = std::max(
        1, std::min(config_.threads, static_cast<int>(n_cubes)));

    SharedComponentCache shared_cache(config_.cache_bytes,
                                      std::max(16, workers * 4));
    std::atomic<std::uint64_t> shared_decisions{0};
    std::atomic<bool> shared_abort{false};
    std::atomic<std::size_t> next_cube{0};
    std::vector<Count128> cube_counts(n_cubes);
    struct WorkerOut {
        CounterStats stats;
        bool aborted = false;
    };
    std::vector<WorkerOut> outs(static_cast<std::size_t>(workers));

    // Workers are plain serial counters on the driver's store; the shared
    // cache/budget/abort pointers are wired up after construction.
    CounterConfig worker_config = config_;
    worker_config.threads = 1;
    worker_config.cube_vars = 0;
    worker_config.pool = nullptr;
    const auto run_worker = [&](int w) {
        ProjectedCounter child(store_, worker_config);
        child.shared_cache_ = &shared_cache;
        child.shared_abort_ = &shared_abort;
        if (config_.max_decisions > 0) {
            child.shared_decisions_ = &shared_decisions;
        }
        std::vector<Lit> cube(static_cast<std::size_t>(kk));
        while (true) {
            const std::size_t i =
                next_cube.fetch_add(1, std::memory_order_relaxed);
            if (i >= n_cubes) break;
            for (int b = 0; b < kk; ++b) {
                cube[static_cast<std::size_t>(b)] = sat::mk_lit(
                    cube_vars[static_cast<std::size_t>(b)],
                    /*negated=*/((i >> b) & 1) == 0);
            }
            // Each slot is written by exactly one worker; no lock needed.
            cube_counts[i] = child.count_cube(cube);
            if (child.aborted_) break;
        }
        outs[static_cast<std::size_t>(w)] = {child.stats_, child.aborted_};
    };

    // The calling thread is always a member, and waiting on the submitted
    // futures HELPS (ThreadPool::run_one) instead of blocking -- so
    // sharing a pool whose workers are themselves inside count() cannot
    // starve (the nested-submission deadlock regression).
    std::unique_ptr<util::ThreadPool> local_pool;
    util::ThreadPool* pool = config_.pool;
    if (workers > 1 && pool == nullptr) {
        local_pool = std::make_unique<util::ThreadPool>(workers - 1);
        pool = local_pool.get();
    }
    std::vector<std::future<void>> futures;
    futures.reserve(static_cast<std::size_t>(workers - 1));
    for (int w = 1; w < workers; ++w) {
        futures.push_back(pool->submit([&run_worker, w] { run_worker(w); }));
    }
    run_worker(0);
    for (std::future<void>& f : futures) {
        while (f.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready) {
            if (!pool->run_one()) {
                f.wait_for(std::chrono::milliseconds(1));
            }
        }
        f.get();
    }

    // Deterministic merge: cube order is the fixed binary enumeration, and
    // Count128::add saturates stickily, so a saturated cube plus an UNSAT
    // cube renders exactly like the serial count's ">=" lower bound.
    Count128 total;
    for (const Count128& c : cube_counts) total.add(c);
    result->count = total;
    for (const WorkerOut& out : outs) {
        stats_.decisions += out.stats.decisions;
        stats_.propagations += out.stats.propagations;
        stats_.components += out.stats.components;
        stats_.cache_hits += out.stats.cache_hits;
        stats_.cache_stores += out.stats.cache_stores;
        stats_.cache_evictions += out.stats.cache_evictions;
        stats_.sat_checks += out.stats.sat_checks;
        aborted_ = aborted_ || out.aborted;
    }
    stats_.cache_entries = shared_cache.entries();
    stats_.cache_peak_bytes = shared_cache.peak_bytes();
}

ProjectedCounter::Result ProjectedCounter::count() {
    Result result;
    report::Json span_args;
    const bool cube_mode = config_.threads > 1 || config_.cube_vars > 0;
    if (obs::tracing()) {
        span_args = report::Json::object();
        span_args.set("projection",
                      static_cast<std::uint64_t>(store_->projection_size));
        span_args.set("clauses",
                      static_cast<std::uint64_t>(store_->num_clauses()));
        span_args.set("threads", cube_mode ? std::max(1, config_.threads) : 1);
    }
    obs::Span span("projected-count", "count", std::move(span_args));
    if (!store_->root_conflict) {
        if (cube_mode) {
            count_cubes(&result);
        } else {
            if (propagate_root()) {
                result.count = count_children(root(), 0);
            }
            undo_to(0);
            stats_.cache_entries = cache_.size();
        }
    }
    result.exact = !aborted_ && !result.count.saturated();
    result.stats = stats_;
    if (span) {
        report::Json ea = report::Json::object();
        ea.set("count", result.count.to_string());
        ea.set("exact", result.exact);
        ea.set("decisions", stats_.decisions);
        ea.set("components", stats_.components);
        ea.set("cache_hits", stats_.cache_hits);
        ea.set("cache_stores", stats_.cache_stores);
        span.set_end_args(std::move(ea));
    }
    if (obs::metrics_enabled()) {
        obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
        reg.counter("count.exact_runs").add();
        reg.counter("count.decisions").add(stats_.decisions);
        reg.counter("count.components").add(stats_.components);
        reg.counter("count.cache_hits").add(stats_.cache_hits);
        reg.counter("count.cache_stores").add(stats_.cache_stores);
    }
    return result;
}

}  // namespace mvf::count
