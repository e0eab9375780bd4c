#pragma once
// Tseitin CNF encoding of a camouflaged netlist.
//
// One CnfBuilder owns a *selector family*: a one-hot block of variables per
// camouflaged cell choosing which plausible function the cell implements.
// Any number of circuit *copies* can then be stamped against that family --
// each copy gets fresh node-value variables but shares the selectors, so all
// copies are constrained to the same dopant configuration.  This is the
// common substrate of both attackers:
//
//   - the enumeration attacker (attack/plausibility) stamps one copy per
//     input pattern with constant inputs and asserts the target outputs;
//   - the oracle-guided CEGAR attacker (attack/oracle_attack) stamps two
//     families into one solver, miters them over shared symbolic inputs, and
//     stamps an extra constant-input copy per distinguishing pattern.
//
// Gate consistency is encoded per plausible function over its support pins:
// selecting function j implies output == f_j(pins) minterm-by-minterm
// (cells have <= 4 pins, so at most 16 clauses per function).

#include <span>
#include <vector>

#include "camo/camo_netlist.hpp"
#include "sat/solver.hpp"

namespace mvf::sat {

class CnfBuilder {
public:
    /// Allocates the selector family (with exactly-one constraints) on
    /// `solver`.  `fixed_nominal`, if non-null, marks nodes the attacker
    /// knows are ordinary cells: their selector collapses to the cell's
    /// true function, plausible[config_fn[0]] -- index 0 for ordinary camo
    /// variants, but e.g. 1 for a TIE cell wired to const1.  The builder
    /// stores both references; they must outlive it.
    CnfBuilder(const camo::CamoNetlist& netlist, Solver* solver,
               const std::vector<bool>* fixed_nominal = nullptr);

    /// PI/PO literals of one stamped circuit copy.
    struct Copy {
        std::vector<Lit> pi;
        std::vector<Lit> po;
    };

    /// Stamps a copy over fresh primary-input variables.
    Copy add_copy();

    /// Stamps a copy with caller-supplied PI literals (shared miter inputs,
    /// or lit_true()/lit_false() for a constant pattern).
    Copy add_copy(std::span<const Lit> pi_lits);

    /// Stamps a copy with the constant input pattern `bit i = inputs[i]`.
    /// With `fold`, cells whose single plausible function is fully
    /// determined by constant support pins become constants instead of
    /// fresh variables (no-op on fully camouflaged netlists).
    Copy add_copy(const std::vector<bool>& inputs, bool fold = false);

    /// One copy in each of two selector families over shared PI literals,
    /// with the selector-independent cone encoded once.  A node is shared
    /// when its cell's selector is collapsed to a single choice in BOTH
    /// families (fixed_nominal cells) and all its fanins are shared; the
    /// shared cone gets one set of value variables instead of two, and
    /// cells whose (single) function is fully determined by constant
    /// inputs fold to the constant without allocating anything.  Both
    /// builders must target the same netlist and solver.  `a`'s copy is
    /// stamped first with variable allocation identical to add_copy(), so
    /// with nothing shareable the encoding degenerates to exactly the
    /// legacy two-copy form.
    struct SharedCopy {
        Copy a, b;
        int shared_cells = 0;  ///< cells encoded once instead of twice
    };
    static SharedCopy add_shared_copies(CnfBuilder& a, CnfBuilder& b,
                                        std::span<const Lit> pi_lits);
    static SharedCopy add_shared_copies(CnfBuilder& a, CnfBuilder& b,
                                        const std::vector<bool>& inputs);

    /// Literal that is true/false in every model (backed by a unit clause).
    Lit lit_true() const { return mk_lit(const_var_); }
    Lit lit_false() const { return mk_lit(const_var_, true); }

    const camo::CamoNetlist& netlist() const { return *netlist_; }

    /// Selector variables of cell node `id` (empty for PIs).
    const std::vector<Var>& selectors(int id) const {
        return selector_[static_cast<std::size_t>(id)];
    }

    /// Decodes the solver model into a per-node plausible-index
    /// configuration (-1 for non-cells), as consumed by sim::simulate_camo.
    std::vector<int> config_from_model() const;

    /// Assumption literals pinning the selector family to `config`.
    std::vector<Lit> config_assumptions(const std::vector<int>& config) const;

    /// Adds a clause ruling out exactly `config` (model enumeration).  With
    /// `only`, the clause covers just the cells marked true -- enumeration
    /// then projects onto that subset (e.g. the primary-output cone, with
    /// the freedom of the remaining cells counted by multiplication).
    bool block_config(const std::vector<int>& config,
                      const std::vector<bool>* only = nullptr);

    /// Variables a sat::Preprocessor must not eliminate for this builder to
    /// stay usable: the constant variable and every selector (later stamps
    /// and block_config/config_assumptions reference them).
    std::vector<Var> frozen_vars() const;

private:
    /// Share-source handed from one stamp to its partner stamp.
    struct ShareSource {
        const std::vector<Lit>* values;        ///< per-node value literal
        const std::vector<signed char>* known;  ///< -1 unknown, else 0/1
        const std::vector<bool>* mask;          ///< nodes safe to reuse
    };
    Copy stamp(std::span<const Lit> pi_lits, bool fold,
               const ShareSource* share, std::vector<Lit>* values_out,
               std::vector<signed char>* known_out, int* shared_cells_out);

    /// Support pins of plausible function `fn` of library cell `cell`,
    /// ascending (TruthTable::support, computed once per builder).
    std::span<const int> support(int cell, int fn) const {
        const SupportRange r = fn_support_[static_cast<std::size_t>(
            cell_first_fn_[static_cast<std::size_t>(cell)] + fn)];
        return {support_pins_.data() + r.begin, r.size};
    }

    /// Plausible index encoded by selector `j` of node `id`: fixed cells
    /// have one selector bound to their true function's index, free cells
    /// map selector j to plausible j.
    int plausible_index(int id, std::size_t j) const {
        const int f = fixed_choice_[static_cast<std::size_t>(id)];
        return f >= 0 ? f : static_cast<int>(j);
    }

    const camo::CamoNetlist* netlist_;
    Solver* solver_;
    Var const_var_;
    std::vector<std::vector<Var>> selector_;  // per node; empty for PIs
    /// Per node: the plausible index a fixed_nominal cell is bound to, or
    /// -1 when the cell's selector ranges over the full plausible set.
    std::vector<int> fixed_choice_;
    /// The supports of every plausible function of the library cells the
    /// netlist uses: cell_first_fn_[cell] (-1 if unused) indexes the
    /// cell's function 0 in fn_support_, whose ranges index support_pins_.
    struct SupportRange {
        std::uint32_t begin;
        std::uint32_t size;
    };
    std::vector<int> cell_first_fn_;
    std::vector<SupportRange> fn_support_;
    std::vector<int> support_pins_;
};

}  // namespace mvf::sat
