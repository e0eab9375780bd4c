#include "sat/simplify.hpp"

#include <algorithm>
#include <cassert>

namespace mvf::sat {

Preprocessor::Preprocessor(Solver* solver, SolverConfig config)
    : solver_(solver), config_(config) {}

void Preprocessor::freeze(Var v) {
    if (static_cast<std::size_t>(v) >= frozen_.size()) {
        frozen_.resize(static_cast<std::size_t>(v) + 1, false);
    }
    frozen_[static_cast<std::size_t>(v)] = true;
}

void Preprocessor::freeze_all(std::span<const Var> vars) {
    for (const Var v : vars) freeze(v);
}

void Preprocessor::freeze_lits(std::span<const Lit> lits) {
    for (const Lit l : lits) freeze(lit_var(l));
}

std::uint64_t Preprocessor::signature(const std::vector<Lit>& lits) const {
    std::uint64_t sig = 0;
    for (const Lit l : lits) sig |= 1ull << (l & 63);
    return sig;
}

Value Preprocessor::fixed_value(Lit l) const {
    const Value v = fixed_[static_cast<std::size_t>(lit_var(l))];
    if (v == Value::kUnknown) return Value::kUnknown;
    return (v == Value::kTrue) != lit_negated(l) ? Value::kTrue : Value::kFalse;
}

void Preprocessor::occ_remove(Lit l, int ci) {
    std::vector<int>& list = occ_[static_cast<std::size_t>(l)];
    for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i] == ci) {
            list[i] = list.back();
            list.pop_back();
            return;
        }
    }
}

void Preprocessor::kill(int ci) {
    if (dead_[static_cast<std::size_t>(ci)]) return;
    dead_[static_cast<std::size_t>(ci)] = true;
    for (const Lit l : cls_[static_cast<std::size_t>(ci)]) occ_remove(l, ci);
}

int Preprocessor::add_work_clause(std::vector<Lit> lits) {
    assert(lits.size() >= 2);
    const int ci = static_cast<int>(cls_.size());
    sig_.push_back(signature(lits));
    for (const Lit l : lits) occ_[static_cast<std::size_t>(l)].push_back(ci);
    cls_.push_back(std::move(lits));
    dead_.push_back(false);
    queued_.push_back(true);
    subsume_queue_.push_back(ci);
    return ci;
}

bool Preprocessor::assign_unit(Lit l) {
    const Var v = lit_var(l);
    const Value cur = fixed_[static_cast<std::size_t>(v)];
    const Value want = lit_negated(l) ? Value::kFalse : Value::kTrue;
    if (cur != Value::kUnknown) return cur == want;
    fixed_[static_cast<std::size_t>(v)] = want;
    unit_queue_.push_back(l);
    return true;
}

bool Preprocessor::snapshot() {
    Solver& s = *solver_;
    const std::size_t nv = static_cast<std::size_t>(s.num_vars());
    frozen_.resize(nv, false);
    fixed_.resize(nv);
    for (Var v = 0; v < static_cast<Var>(nv); ++v) {
        fixed_[static_cast<std::size_t>(v)] = s.var_value(v);
    }
    occ_.assign(2 * nv, {});
    cls_.clear();
    sig_.clear();
    dead_.clear();
    queued_.clear();
    subsume_queue_.clear();
    unit_queue_.clear();

    // Learned clauses stay in the solver's arena until commit().
    std::vector<Lit> tmp;
    for (Solver::CRef cr = 0; cr < s.arena_.size(); cr += s.clause_words(cr)) {
        if (s.clause_learned(cr)) continue;
        tmp.clear();
        bool satisfied = false;
        const Lit* lits = s.lits(cr);
        for (const Lit l : std::span<const Lit>(lits, s.clause_size(cr))) {
            const Value v = fixed_value(l);
            if (v == Value::kTrue) {
                satisfied = true;
                break;
            }
            if (v == Value::kFalse) continue;
            tmp.push_back(l);
        }
        if (satisfied) {
            ++stats_.removed_clauses;
            continue;
        }
        std::sort(tmp.begin(), tmp.end());
        tmp.erase(std::unique(tmp.begin(), tmp.end()), tmp.end());
        if (tmp.empty()) return false;  // conflicting at level 0
        if (tmp.size() == 1) {
            if (!assign_unit(tmp[0])) return false;
            ++stats_.removed_clauses;
            continue;
        }
        add_work_clause(tmp);
    }
    return true;
}

bool Preprocessor::propagate_units() {
    while (!unit_queue_.empty()) {
        const Lit l = unit_queue_.back();
        unit_queue_.pop_back();
        // Clauses containing l are satisfied.
        std::vector<int>& sat_list = occ_[static_cast<std::size_t>(l)];
        while (!sat_list.empty()) {
            ++stats_.removed_clauses;
            kill(sat_list.back());
        }
        // Clauses containing !l lose that literal.
        const std::vector<int> falsified = occ_[static_cast<std::size_t>(lit_not(l))];
        for (const int ci : falsified) {
            if (dead_[static_cast<std::size_t>(ci)]) continue;
            std::vector<Lit>& c = cls_[static_cast<std::size_t>(ci)];
            occ_remove(lit_not(l), ci);
            c.erase(std::remove(c.begin(), c.end(), lit_not(l)), c.end());
            sig_[static_cast<std::size_t>(ci)] = signature(c);
            assert(!c.empty());
            if (c.size() == 1) {
                const Lit unit = c[0];
                dead_[static_cast<std::size_t>(ci)] = true;
                occ_remove(unit, ci);
                if (!assign_unit(unit)) return false;
            } else if (!queued_[static_cast<std::size_t>(ci)]) {
                queued_[static_cast<std::size_t>(ci)] = true;
                subsume_queue_.push_back(ci);
            }
        }
    }
    return true;
}

namespace {

/// sub ⊆ sup, both sorted ascending.
bool subset_of(const std::vector<Lit>& sub, const std::vector<Lit>& sup) {
    std::size_t j = 0;
    for (const Lit l : sub) {
        while (j < sup.size() && sup[j] < l) ++j;
        if (j == sup.size() || sup[j] != l) return false;
        ++j;
    }
    return true;
}

}  // namespace

bool Preprocessor::clause_implied(const std::vector<Lit>& lits) {
    // Is some live clause a subset of `lits`?  Candidates come from the
    // least-occurring literal's list.  Used to discount resolvents during
    // variable elimination: a resolvent subsumed by an existing clause
    // need not be added, so it should not count toward the growth bound
    // (the CnfBuilder one-hot selector exclusions subsume a large share of
    // gate-variable resolvents, which would otherwise block elimination).
    const std::uint64_t sig = signature(lits);
    Lit min_lit = -1;
    std::size_t min_occ = ~std::size_t{0};
    for (const Lit l : lits) {
        const std::size_t n = occ_[static_cast<std::size_t>(l)].size();
        if (n < min_occ) {
            min_occ = n;
            min_lit = l;
        }
    }
    if (min_lit < 0) return false;
    if (budget_ > min_occ * lits.size()) {
        budget_ -= min_occ * lits.size();
    } else {
        budget_ = 0;
        return false;
    }
    for (const int ci : occ_[static_cast<std::size_t>(min_lit)]) {
        const std::vector<Lit>& c = cls_[static_cast<std::size_t>(ci)];
        if (c.size() > lits.size()) continue;
        if ((sig_[static_cast<std::size_t>(ci)] & ~sig) != 0) continue;
        if (subset_of(c, lits)) return true;
    }
    return false;
}

bool Preprocessor::subsume_round(bool* progress) {
    // Queue-driven backward subsumption + self-subsuming resolution: each
    // queued clause kills every clause it subsumes and strengthens every
    // clause it almost-subsumes (equal but for one flipped literal).
    std::vector<Lit> probe;
    while (!subsume_queue_.empty()) {
        const int ci = subsume_queue_.back();
        subsume_queue_.pop_back();
        queued_[static_cast<std::size_t>(ci)] = false;
        if (dead_[static_cast<std::size_t>(ci)]) continue;
        if (budget_ == 0) {
            subsume_queue_.clear();
            std::fill(queued_.begin(), queued_.end(), false);
            break;
        }

        // One probe per literal position: position -1 is plain subsumption
        // (probe == clause), position k flips lit k (self-subsumption).
        const std::vector<Lit> base = cls_[static_cast<std::size_t>(ci)];
        for (int flip = -1; flip < static_cast<int>(base.size()); ++flip) {
            probe = base;
            if (flip >= 0) {
                probe[static_cast<std::size_t>(flip)] =
                    lit_not(probe[static_cast<std::size_t>(flip)]);
                std::sort(probe.begin(), probe.end());
            }
            const std::uint64_t probe_sig = signature(probe);
            // Enumerate candidate superset clauses via the least-occurring
            // literal of the probe.
            const Lit* min_lit = nullptr;
            std::size_t min_occ = ~std::size_t{0};
            for (const Lit& l : probe) {
                const std::size_t n = occ_[static_cast<std::size_t>(l)].size();
                if (n < min_occ) {
                    min_occ = n;
                    min_lit = &l;
                }
            }
            if (!min_lit) continue;
            if (budget_ > min_occ * probe.size()) {
                budget_ -= min_occ * probe.size();
            } else {
                budget_ = 0;
                break;
            }
            // Snapshot: strengthening mutates occurrence lists.
            const std::vector<int> candidates = occ_[static_cast<std::size_t>(*min_lit)];
            for (const int cj : candidates) {
                if (cj == ci || dead_[static_cast<std::size_t>(cj)]) continue;
                std::vector<Lit>& target = cls_[static_cast<std::size_t>(cj)];
                if (target.size() < probe.size()) continue;
                if ((probe_sig & ~sig_[static_cast<std::size_t>(cj)]) != 0) continue;
                if (!subset_of(probe, target)) continue;
                if (flip < 0) {
                    ++stats_.subsumed_clauses;
                    ++stats_.removed_clauses;
                    kill(cj);
                    *progress = true;
                } else {
                    // Self-subsumption: probe ⊆ target where probe is the
                    // clause with lit k flipped, so resolving the clause
                    // with target on that literal yields target minus the
                    // flipped literal; shrink target in place.
                    const Lit f = lit_not(base[static_cast<std::size_t>(flip)]);
                    occ_remove(f, cj);
                    target.erase(std::remove(target.begin(), target.end(), f),
                                 target.end());
                    sig_[static_cast<std::size_t>(cj)] = signature(target);
                    ++stats_.strengthened_lits;
                    *progress = true;
                    if (target.size() == 1) {
                        const Lit unit = target[0];
                        dead_[static_cast<std::size_t>(cj)] = true;
                        occ_remove(unit, cj);
                        if (!assign_unit(unit)) return false;
                        if (!propagate_units()) return false;
                    } else if (!queued_[static_cast<std::size_t>(cj)]) {
                        queued_[static_cast<std::size_t>(cj)] = true;
                        subsume_queue_.push_back(cj);
                    }
                }
            }
            if (dead_[static_cast<std::size_t>(ci)]) break;  // unit cascade
        }
    }
    return true;
}

bool Preprocessor::eliminate_round(bool* progress) {
    Solver& s = *solver_;
    const int nv = s.num_vars();

    // Cheapest-first: occurrence product approximates resolvent work.
    std::vector<std::pair<std::uint64_t, Var>> order;
    for (Var v = 0; v < nv; ++v) {
        const std::size_t sv = static_cast<std::size_t>(v);
        if (frozen_[sv] || s.eliminated_[sv] || fixed_[sv] != Value::kUnknown) {
            continue;
        }
        const std::size_t np = occ_[static_cast<std::size_t>(mk_lit(v))].size();
        const std::size_t nn = occ_[static_cast<std::size_t>(mk_lit(v, true))].size();
        if (np == 0 && nn == 0) continue;  // unreferenced; nothing to gain
        if (np > static_cast<std::size_t>(config_.elim_occ_limit) ||
            nn > static_cast<std::size_t>(config_.elim_occ_limit)) {
            continue;
        }
        order.emplace_back(static_cast<std::uint64_t>(np) * nn, v);
    }
    std::sort(order.begin(), order.end());

    std::vector<Lit> resolvent;
    for (const auto& [cost, v] : order) {
        const std::size_t sv = static_cast<std::size_t>(v);
        if (fixed_[sv] != Value::kUnknown) continue;  // fixed by a cascade
        const Lit pos_lit = mk_lit(v);
        const Lit neg_lit = mk_lit(v, true);
        // Copy: elimination rewrites the lists as it kills/adds clauses.
        const std::vector<int> pos = occ_[static_cast<std::size_t>(pos_lit)];
        const std::vector<int> neg = occ_[static_cast<std::size_t>(neg_lit)];
        if (pos.size() > static_cast<std::size_t>(config_.elim_occ_limit) ||
            neg.size() > static_cast<std::size_t>(config_.elim_occ_limit)) {
            continue;
        }

        // Trial resolution: collect the non-tautological resolvents and
        // abort on growth or length violations.
        std::vector<std::vector<Lit>> resolvents;
        const std::size_t limit =
            pos.size() + neg.size() + static_cast<std::size_t>(config_.elim_growth);
        bool ok = true;
        for (const int pi : pos) {
            if (!ok) break;
            for (const int ni : neg) {
                const std::vector<Lit>& pc = cls_[static_cast<std::size_t>(pi)];
                const std::vector<Lit>& nc = cls_[static_cast<std::size_t>(ni)];
                resolvent.clear();
                bool tautology = false;
                for (const Lit l : pc) {
                    if (l != pos_lit) resolvent.push_back(l);
                }
                for (const Lit l : nc) {
                    if (l != neg_lit) resolvent.push_back(l);
                }
                std::sort(resolvent.begin(), resolvent.end());
                resolvent.erase(std::unique(resolvent.begin(), resolvent.end()),
                                resolvent.end());
                for (std::size_t i = 0; i + 1 < resolvent.size(); ++i) {
                    if (resolvent[i + 1] == lit_not(resolvent[i])) {
                        tautology = true;
                        break;
                    }
                }
                if (tautology) continue;
                // An implied resolvent never has to be added; any subsumer
                // is v-free (resolvents are v-free by construction), so it
                // survives this elimination.
                if (clause_implied(resolvent)) continue;
                if (resolvent.size() >
                    static_cast<std::size_t>(config_.elim_resolvent_limit)) {
                    ok = false;
                    break;
                }
                resolvents.push_back(resolvent);
                if (resolvents.size() > limit) {
                    ok = false;
                    break;
                }
            }
        }
        if (!ok) continue;

        // Commit: record the smaller occurrence side for model extension,
        // drop every clause mentioning v, add the resolvents.
        Solver::Elimination record;
        record.var = v;
        record.negated = pos.size() > neg.size();
        const std::vector<int>& stored = record.negated ? neg : pos;
        record.clauses.reserve(stored.size());
        for (const int ci : stored) {
            record.clauses.push_back(cls_[static_cast<std::size_t>(ci)]);
        }
        s.eliminations_.push_back(std::move(record));
        s.eliminated_[sv] = true;
        ++stats_.eliminated_vars;
        *progress = true;
        for (const int ci : pos) {
            ++stats_.removed_clauses;
            kill(ci);
        }
        for (const int ci : neg) {
            ++stats_.removed_clauses;
            kill(ci);
        }
        for (std::vector<Lit>& r : resolvents) {
            if (r.size() == 1) {
                if (!assign_unit(r[0])) return false;
            } else {
                add_work_clause(std::move(r));
            }
        }
        if (!propagate_units()) return false;
    }
    return true;
}

void Preprocessor::commit() {
    Solver& s = *solver_;
    const std::size_t nv = static_cast<std::size_t>(s.num_vars());

    // The new database is appended behind the old one, which still holds
    // the learned clauses, and the old prefix is erased at the end.
    const Solver::CRef old_end = static_cast<Solver::CRef>(s.arena_.size());
    s.num_clauses_ = 0;
    s.num_learned_ = 0;
    for (std::size_t ci = 0; ci < cls_.size(); ++ci) {
        if (dead_[ci]) continue;
        s.alloc_clause(cls_[ci], /*learned=*/false);
    }
    // Re-admit surviving learned clauses: entailed by the original
    // formula, hence sound alongside the simplified one as long as they
    // avoid eliminated variables.
    std::vector<Lit> learned_units;
    std::vector<Lit> tmp;
    for (Solver::CRef cr = 0; cr < old_end; cr += s.clause_words(cr)) {
        if (!s.clause_learned(cr)) continue;
        tmp.clear();
        bool drop = false;
        const Lit* lits = s.lits(cr);
        for (const Lit l : std::span<const Lit>(lits, s.clause_size(cr))) {
            if (s.eliminated_[static_cast<std::size_t>(lit_var(l))]) {
                drop = true;
                break;
            }
            const Value v = fixed_value(l);
            if (v == Value::kTrue) {
                drop = true;  // satisfied at level 0
                break;
            }
            if (v == Value::kFalse) continue;
            tmp.push_back(l);
        }
        if (drop) continue;
        if (tmp.empty()) {
            s.ok_ = false;  // entailed empty clause
            continue;
        }
        if (tmp.size() == 1) {
            learned_units.push_back(tmp[0]);
            continue;
        }
        s.alloc_clause(tmp, /*learned=*/true, s.activity(cr));
    }
    s.arena_.erase(s.arena_.begin(), s.arena_.begin() + old_end);
    cls_.clear();

    // Rebuild derived state: watches, reasons (everything on the trail is
    // a level-0 fact now), branching heap (without eliminated vars).
    s.attach_all();
    for (Solver::VarData& d : s.vardata_) d.reason = Solver::kNoReason;
    s.heap_.clear();
    std::fill(s.heap_pos_.begin(), s.heap_pos_.end(), -1);
    for (Var v = 0; v < static_cast<int>(nv); ++v) s.heap_insert(v);

    // Publish the newly fixed variables and propagate them against the
    // rebuilt database (any conflict here means the instance is UNSAT).
    // Older trail entries need no re-propagation: every surviving clause
    // had its satisfied/falsified literals stripped, so none mentions an
    // already-assigned variable.
    s.qhead_ = s.trail_.size();
    for (Var v = 0; v < static_cast<int>(nv); ++v) {
        if (fixed_[v] != Value::kUnknown && s.var_value(v) == Value::kUnknown) {
            s.enqueue(mk_lit(v, fixed_[v] == Value::kFalse), Solver::kNoReason);
        }
    }
    for (const Lit l : learned_units) {
        const Value v = s.value(l);
        if (v == Value::kTrue) continue;
        if (v == Value::kFalse) {
            s.ok_ = false;
            return;
        }
        s.enqueue(l, Solver::kNoReason);
    }
    if (s.propagate() != Solver::kNoReason) s.ok_ = false;

    s.stats_.eliminated_vars += stats_.eliminated_vars;
    s.stats_.subsumed_clauses += stats_.subsumed_clauses;
    s.stats_.strengthened_lits += stats_.strengthened_lits;
}

bool Preprocessor::run() { return run_internal(/*full=*/true); }

bool Preprocessor::run_light() { return run_internal(/*full=*/false); }

bool Preprocessor::run_internal(bool full) {
    Solver& s = *solver_;
    if (!s.ok_) return false;
    assert(s.decision_level() == 0);
    ++s.stats_.preprocess_runs;
    stats_ = PreprocessStats{};
    // Budget bounds the subsumption work on pathological instances; sized
    // to be irrelevant for every workload in this repo.
    budget_ = 50'000'000;

    bool sat = snapshot() && propagate_units();
    bool progress = full;
    while (sat && progress && stats_.rounds < config_.max_rounds) {
        ++stats_.rounds;
        progress = false;
        sat = subsume_round(&progress) && eliminate_round(&progress);
    }
    commit();
    if (!sat) s.ok_ = false;
    return s.ok_;
}

}  // namespace mvf::sat
