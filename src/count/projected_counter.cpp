#include "count/projected_counter.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mvf::count {

using sat::Lit;
using sat::Var;

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
    : config_(config), store_(std::move(cnf)) {
    const auto n = static_cast<std::size_t>(store_.num_vars);
    lit_val_.assign(2 * n, -1);
    trail_.reserve(n);
    stamp_.assign(n, 0);
    slot_of_.assign(n, -1);
    clause_vars_.resize(store_.max_clause_len);
}

bool ProjectedCounter::decision_over_budget() {
    ++stats_.decisions;
    if (config_.max_decisions == 0) return false;
    if (stats_.decisions <= config_.max_decisions) return false;
    aborted_ = true;
    return true;
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
    for (const Lit l : store_.clause(ci)) {
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
    const Store& s = store_;
    while (head < trail_.size()) {
        const Lit falsified = sat::lit_not(trail_[head++]);
        for (const int ci : s.occurrences(falsified)) {
            if (!propagate_clause(ci)) return false;
        }
    }
    return true;
}

bool ProjectedCounter::propagate_root() {
    for (const int ci : store_.all_clauses) {
        if (!propagate_clause(ci)) return false;
    }
    return propagate(0);
}

ProjectedCounter::Component ProjectedCounter::root() const {
    return {store_.all_vars, store_.all_clauses};
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
    const Store& s = store_;
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
    const Store& s = store_;
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
    const Store& s = store_;
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
    if (const auto it = cache_.find(probe_); it != cache_.end()) {
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

ProjectedCounter::Result ProjectedCounter::count() {
    Result result;
    report::Json span_args;
    if (obs::tracing()) {
        span_args = report::Json::object();
        span_args.set("projection",
                      static_cast<std::uint64_t>(store_.projection_size));
        span_args.set("clauses",
                      static_cast<std::uint64_t>(store_.num_clauses()));
    }
    obs::Span span("projected-count", "count", std::move(span_args));
    if (!store_.root_conflict && propagate_root()) {
        result.count = count_children(root(), 0);
    }
    undo_to(0);
    stats_.cache_entries = cache_.size();
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
