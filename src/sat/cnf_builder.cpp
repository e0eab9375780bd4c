#include "sat/cnf_builder.hpp"

#include <cassert>

namespace mvf::sat {

using camo::CamoNetlist;
using logic::TruthTable;

CnfBuilder::CnfBuilder(const CamoNetlist& netlist, Solver* solver,
                       const std::vector<bool>* fixed_nominal)
    : netlist_(&netlist), solver_(solver) {
    const_var_ = solver_->new_var();
    solver_->add_unit(lit_true());

    selector_.resize(static_cast<std::size_t>(netlist.num_nodes()));
    fixed_choice_.assign(static_cast<std::size_t>(netlist.num_nodes()), -1);
    cell_first_fn_.assign(
        static_cast<std::size_t>(netlist.library().num_cells()), -1);
    for (int id = 0; id < netlist.num_nodes(); ++id) {
        const CamoNetlist::Node& n = netlist.node(id);
        if (n.kind != CamoNetlist::NodeKind::kCell) continue;
        const camo::CamoCell& cell = netlist.library().cell(n.camo_cell_id);
        int& first_fn = cell_first_fn_[static_cast<std::size_t>(n.camo_cell_id)];
        if (first_fn < 0) {
            first_fn = static_cast<int>(fn_support_.size());
            for (const TruthTable& f : cell.plausible) {
                const std::vector<int> pins = f.support();
                fn_support_.push_back(
                    {static_cast<std::uint32_t>(support_pins_.size()),
                     static_cast<std::uint32_t>(pins.size())});
                support_pins_.insert(support_pins_.end(), pins.begin(), pins.end());
            }
        }
        const bool fixed =
            fixed_nominal && (*fixed_nominal)[static_cast<std::size_t>(id)];
        if (fixed) {
            // The known cell realizes its configured function -- index 0
            // for ordinary camo variants, but a TIE wired to const1 sits
            // at plausible index 1.
            fixed_choice_[static_cast<std::size_t>(id)] =
                n.config_fn.empty() ? 0 : n.config_fn[0];
        }
        const int num_choices = fixed ? 1 : static_cast<int>(cell.plausible.size());
        auto& sel = selector_[static_cast<std::size_t>(id)];
        sel.reserve(static_cast<std::size_t>(num_choices));
        std::vector<Lit> at_least_one;
        for (int j = 0; j < num_choices; ++j) {
            const Var v = solver_->new_var();
            sel.push_back(v);
            at_least_one.push_back(mk_lit(v));
        }
        solver_->add_clause(at_least_one);
        for (std::size_t a = 0; a < sel.size(); ++a) {
            for (std::size_t b = a + 1; b < sel.size(); ++b) {
                solver_->add_binary(mk_lit(sel[a], true), mk_lit(sel[b], true));
            }
        }
    }
}

CnfBuilder::Copy CnfBuilder::add_copy() {
    std::vector<Lit> pi_lits;
    pi_lits.reserve(static_cast<std::size_t>(netlist_->num_pis()));
    for (int i = 0; i < netlist_->num_pis(); ++i) {
        pi_lits.push_back(mk_lit(solver_->new_var()));
    }
    return add_copy(pi_lits);
}

CnfBuilder::Copy CnfBuilder::add_copy(const std::vector<bool>& inputs,
                                      bool fold) {
    assert(static_cast<int>(inputs.size()) == netlist_->num_pis());
    std::vector<Lit> pi_lits;
    pi_lits.reserve(inputs.size());
    for (const bool b : inputs) pi_lits.push_back(b ? lit_true() : lit_false());
    return stamp(pi_lits, fold, nullptr, nullptr, nullptr, nullptr);
}

CnfBuilder::Copy CnfBuilder::add_copy(std::span<const Lit> pi_lits) {
    return stamp(pi_lits, /*fold=*/false, nullptr, nullptr, nullptr, nullptr);
}

CnfBuilder::Copy CnfBuilder::stamp(std::span<const Lit> pi_lits, bool fold,
                                   const ShareSource* share,
                                   std::vector<Lit>* values_out,
                                   std::vector<signed char>* known_out,
                                   int* shared_cells_out) {
    assert(static_cast<int>(pi_lits.size()) == netlist_->num_pis());
    const CamoNetlist& nl = *netlist_;

    // Node ids are topological (fanins precede users by construction), so a
    // single forward sweep assigns every node its value literal.  `known`
    // tracks literals that are constant in every model (the unit-backed
    // constant variable), which lets single-choice cells fold away.
    std::vector<Lit> value(static_cast<std::size_t>(nl.num_nodes()), -1);
    std::vector<signed char> known(static_cast<std::size_t>(nl.num_nodes()), -1);
    for (int i = 0; i < nl.num_pis(); ++i) {
        const Lit pl = pi_lits[static_cast<std::size_t>(i)];
        const std::size_t id = static_cast<std::size_t>(nl.pi(i));
        value[id] = pl;
        if (pl == lit_true()) known[id] = 1;
        if (pl == lit_false()) known[id] = 0;
        if (share && pl == (*share->values)[id]) known[id] = (*share->known)[id];
    }

    std::vector<Lit> clause;
    for (int id = 0; id < nl.num_nodes(); ++id) {
        const CamoNetlist::Node& n = nl.node(id);
        if (n.kind != CamoNetlist::NodeKind::kCell) continue;
        const std::size_t sid = static_cast<std::size_t>(id);
        if (share && (*share->mask)[sid]) {
            // Selector-independent cone cell already encoded by the partner
            // stamp: reuse its literal outright.
            value[sid] = (*share->values)[sid];
            known[sid] = (*share->known)[sid];
            if (shared_cells_out) ++*shared_cells_out;
            continue;
        }
        const camo::CamoCell& cell = nl.library().cell(n.camo_cell_id);
        const auto& sel = selector_[sid];

        if (fold && sel.size() == 1) {
            // Single plausible function: if the support is constant, so is
            // the output -- no variable, no clauses.
            const int fn = plausible_index(id, 0);
            const TruthTable& f0 = cell.plausible[static_cast<std::size_t>(fn)];
            std::uint32_t pins = 0;
            bool all_known = true;
            for (const int pin : support(n.camo_cell_id, fn)) {
                const std::size_t fid = static_cast<std::size_t>(
                    n.fanins[static_cast<std::size_t>(pin)]);
                if (known[fid] < 0) {
                    all_known = false;
                    break;
                }
                if (known[fid]) pins |= 1u << pin;
            }
            if (all_known) {
                const bool fout = f0.bit(pins);
                value[sid] = fout ? lit_true() : lit_false();
                known[sid] = fout ? 1 : 0;
                continue;
            }
        }

        const Lit out = mk_lit(solver_->new_var());
        value[sid] = out;

        // Selecting function j binds the output to f_j of the fanin values,
        // one clause per minterm of f_j's support.
        for (std::size_t j = 0; j < sel.size(); ++j) {
            const int fn = plausible_index(id, j);
            const TruthTable& fj = cell.plausible[static_cast<std::size_t>(fn)];
            const std::span<const int> sup = support(n.camo_cell_id, fn);
            const int k = static_cast<int>(sup.size());
            for (std::uint32_t pp = 0; pp < (1u << k); ++pp) {
                std::uint32_t pins = 0;
                for (int b = 0; b < k; ++b) {
                    if ((pp >> b) & 1) {
                        pins |= 1u << sup[static_cast<std::size_t>(b)];
                    }
                }
                const bool fout = fj.bit(pins);

                clause.clear();
                clause.push_back(mk_lit(sel[j], true));
                for (int b = 0; b < k; ++b) {
                    const int pin = sup[static_cast<std::size_t>(b)];
                    const Lit fl =
                        value[static_cast<std::size_t>(n.fanins[static_cast<std::size_t>(pin)])];
                    const bool want = (pp >> b) & 1;
                    clause.push_back(want ? lit_not(fl) : fl);
                }
                clause.push_back(fout ? out : lit_not(out));
                solver_->add_clause(clause);
            }
        }
    }

    Copy copy;
    copy.pi.assign(pi_lits.begin(), pi_lits.end());
    copy.po.reserve(static_cast<std::size_t>(nl.num_pos()));
    for (int q = 0; q < nl.num_pos(); ++q) {
        copy.po.push_back(value[static_cast<std::size_t>(nl.po(q))]);
    }
    if (values_out) *values_out = std::move(value);
    if (known_out) *known_out = std::move(known);
    return copy;
}

CnfBuilder::SharedCopy CnfBuilder::add_shared_copies(
    CnfBuilder& a, CnfBuilder& b, std::span<const Lit> pi_lits) {
    assert(a.netlist_ == b.netlist_ && a.solver_ == b.solver_);
    const CamoNetlist& nl = *a.netlist_;

    // A node's value is family-independent when its cell has a single
    // plausible choice in both families and its whole fanin cone does too.
    std::vector<bool> mask(static_cast<std::size_t>(nl.num_nodes()), false);
    for (int id = 0; id < nl.num_nodes(); ++id) {
        const CamoNetlist::Node& n = nl.node(id);
        const std::size_t sid = static_cast<std::size_t>(id);
        if (n.kind == CamoNetlist::NodeKind::kPi) {
            mask[sid] = true;
            continue;
        }
        assert(a.selector_[sid].size() == b.selector_[sid].size());
        if (a.selector_[sid].size() != 1) continue;
        bool fanins_shared = true;
        for (const int f : n.fanins) {
            if (!mask[static_cast<std::size_t>(f)]) {
                fanins_shared = false;
                break;
            }
        }
        mask[sid] = fanins_shared;
    }

    SharedCopy sc;
    std::vector<Lit> values;
    std::vector<signed char> known;
    sc.a = a.stamp(pi_lits, /*fold=*/true, nullptr, &values, &known, nullptr);
    const ShareSource source{&values, &known, &mask};
    sc.b = b.stamp(pi_lits, /*fold=*/true, &source, nullptr, nullptr,
                   &sc.shared_cells);
    return sc;
}

CnfBuilder::SharedCopy CnfBuilder::add_shared_copies(
    CnfBuilder& a, CnfBuilder& b, const std::vector<bool>& inputs) {
    assert(static_cast<int>(inputs.size()) == a.netlist_->num_pis());
    std::vector<Lit> pi_lits;
    pi_lits.reserve(inputs.size());
    for (const bool v : inputs) {
        pi_lits.push_back(v ? a.lit_true() : a.lit_false());
    }
    return add_shared_copies(a, b, pi_lits);
}

std::vector<Var> CnfBuilder::frozen_vars() const {
    std::vector<Var> out{const_var_};
    for (const auto& sel : selector_) out.insert(out.end(), sel.begin(), sel.end());
    return out;
}

std::vector<int> CnfBuilder::config_from_model() const {
    std::vector<int> config(static_cast<std::size_t>(netlist_->num_nodes()), -1);
    for (int id = 0; id < netlist_->num_nodes(); ++id) {
        const auto& sel = selector_[static_cast<std::size_t>(id)];
        for (std::size_t j = 0; j < sel.size(); ++j) {
            if (solver_->model_value(sel[j])) {
                config[static_cast<std::size_t>(id)] = plausible_index(id, j);
                break;
            }
        }
    }
    return config;
}

std::vector<Lit> CnfBuilder::config_assumptions(
    const std::vector<int>& config) const {
    std::vector<Lit> out;
    for (int id = 0; id < netlist_->num_nodes(); ++id) {
        const auto& sel = selector_[static_cast<std::size_t>(id)];
        if (sel.empty()) continue;
        int j = config[static_cast<std::size_t>(id)];
        if (fixed_choice_[static_cast<std::size_t>(id)] >= 0) {
            // Fixed cells have one selector, bound to their true function.
            assert(j == fixed_choice_[static_cast<std::size_t>(id)]);
            j = 0;
        }
        assert(j >= 0 && j < static_cast<int>(sel.size()));
        out.push_back(mk_lit(sel[static_cast<std::size_t>(j)]));
    }
    return out;
}

bool CnfBuilder::block_config(const std::vector<int>& config,
                              const std::vector<bool>* only) {
    std::vector<Lit> clause;
    for (int id = 0; id < netlist_->num_nodes(); ++id) {
        const auto& sel = selector_[static_cast<std::size_t>(id)];
        if (sel.empty()) continue;
        if (only && !(*only)[static_cast<std::size_t>(id)]) continue;
        int j = config[static_cast<std::size_t>(id)];
        if (fixed_choice_[static_cast<std::size_t>(id)] >= 0) {
            assert(j == fixed_choice_[static_cast<std::size_t>(id)]);
            j = 0;
        }
        assert(j >= 0 && j < static_cast<int>(sel.size()));
        clause.push_back(mk_lit(sel[static_cast<std::size_t>(j)], true));
    }
    return solver_->add_clause(clause);
}

}  // namespace mvf::sat
