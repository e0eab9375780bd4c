#include "synth/refactor.hpp"

#include <algorithm>
#include <unordered_map>

#include "net/aig_sim.hpp"
#include "synth/aig_build.hpp"
#include "synth/replace.hpp"

namespace mvf::synth {

using net::Aig;
using net::Lit;

std::vector<int> reconvergence_cut(const Aig& aig, int root, int max_leaves) {
    std::vector<int> leaves;
    const auto add_leaf = [&leaves](int node) {
        if (std::find(leaves.begin(), leaves.end(), node) == leaves.end()) {
            leaves.push_back(node);
        }
    };
    add_leaf(Aig::lit_node(aig.fanin0(root)));
    add_leaf(Aig::lit_node(aig.fanin1(root)));

    while (true) {
        // Pick the expandable leaf with the lowest growth cost.
        int best = -1;
        int best_cost = 1000;
        for (std::size_t i = 0; i < leaves.size(); ++i) {
            const int leaf = leaves[i];
            if (!aig.is_and(leaf)) continue;
            int cost = -1;  // the leaf itself disappears
            for (const Lit f : {aig.fanin0(leaf), aig.fanin1(leaf)}) {
                const int child = Aig::lit_node(f);
                if (std::find(leaves.begin(), leaves.end(), child) == leaves.end()) {
                    ++cost;
                }
            }
            if (cost < best_cost) {
                best_cost = cost;
                best = static_cast<int>(i);
            }
        }
        if (best < 0) break;
        if (static_cast<int>(leaves.size()) + best_cost > max_leaves) break;
        const int leaf = leaves[static_cast<std::size_t>(best)];
        leaves.erase(leaves.begin() + best);
        add_leaf(Aig::lit_node(aig.fanin0(leaf)));
        add_leaf(Aig::lit_node(aig.fanin1(leaf)));
    }
    return leaves;
}

int refactor(Aig* aig, const RefactorParams& params) {
    const int before = aig->count_live_ands();
    GainEstimator estimator(*aig);
    const int min_gain = params.zero_gain ? 0 : 1;

    std::unordered_map<int, Replacement> decisions;
    std::vector<Lit> pis;
    std::vector<Lit> leaf_lits;
    for (int n = aig->num_pis() + 1; n < aig->num_nodes(); ++n) {
        if (estimator.refs(n) == 0) continue;
        const std::vector<int> leaves =
            reconvergence_cut(*aig, n, params.max_leaves);
        if (static_cast<int>(leaves.size()) < 3) continue;  // too small to help

        const logic::TruthTable cone =
            net::evaluate_cone(*aig, Aig::make_lit(n, false), leaves);

        Aig resynthesized(static_cast<int>(leaves.size()));
        pis.clear();
        leaf_lits.clear();
        for (int i = 0; i < resynthesized.num_pis(); ++i) {
            pis.push_back(resynthesized.pi(i));
            leaf_lits.push_back(Aig::make_lit(leaves[static_cast<std::size_t>(i)], false));
        }
        const Lit out = build_from_tt(cone, pis, &resynthesized);
        resynthesized.add_po(out);
        Structure structure(std::move(resynthesized), out);

        if (estimator.gain(n, leaves, structure, leaf_lits) >= min_gain) {
            decisions.emplace(
                n, Replacement{std::make_shared<const Structure>(std::move(structure)),
                               leaf_lits, false});
        }
    }

    if (!decisions.empty()) {
        *aig = apply_replacements(*aig, decisions).cleanup();
    }
    return before - aig->count_live_ands();
}

}  // namespace mvf::synth
