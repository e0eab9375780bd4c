#include "synth/rewrite.hpp"

#include <array>

#include "logic/truth_table.hpp"
#include "synth/aig_build.hpp"

namespace mvf::synth {

using logic::NpnManager;
using logic::NpnRebuildWiring;
using net::Aig;
using net::Cut;
using net::CutSet;
using net::Lit;

const std::shared_ptr<const Structure>& RewriteLibrary::structure_for(
    std::uint16_t canon_tt) {
    const auto it = memo_.find(canon_tt);
    if (it != memo_.end()) return it->second;

    Aig aig(4);
    const std::array<Lit, 4> inputs{aig.pi(0), aig.pi(1), aig.pi(2), aig.pi(3)};
    const Lit out = build_from_tt(logic::TruthTable::from_u64(4, canon_tt), inputs, &aig);
    aig.add_po(out);
    return memo_.emplace(canon_tt, std::make_shared<const Structure>(std::move(aig), out))
        .first->second;
}

int rewrite(Aig* aig, NpnManager& npn, RewriteLibrary& lib,
            const RewriteParams& params) {
    const int before = aig->count_live_ands();
    GainEstimator estimator(*aig);
    const CutSet cuts(*aig, params.cuts);
    const int min_gain = params.zero_gain ? 0 : 1;

    std::unordered_map<int, Replacement> decisions;
    for (int n = aig->num_pis() + 1; n < aig->num_nodes(); ++n) {
        if (estimator.refs(n) == 0) continue;  // dead
        int best_gain = min_gain - 1;
        const std::shared_ptr<const Structure>* best = nullptr;
        std::array<Lit, 4> best_inputs{};
        bool best_output_negated = false;

        for (const Cut& cut : cuts.cuts_of(n)) {
            if (cut.size() == 1 && cut.leaves()[0] == n) continue;  // trivial
            const logic::NpnEntry& canon = npn.canonize(cut.function);
            const std::shared_ptr<const Structure>& structure =
                lib.structure_for(canon.canon);
            const NpnRebuildWiring wiring =
                NpnManager::rebuild_wiring(canon.transform);

            std::array<Lit, 4> inputs;
            for (std::size_t i = 0; i < inputs.size(); ++i) {
                const int leaf_pos = wiring.leaf_of_input[i];
                inputs[i] = leaf_pos < cut.size()
                                ? Aig::make_lit(cut.leaves()[static_cast<std::size_t>(leaf_pos)],
                                                wiring.leaf_negated[i])
                                : Aig::kNoLit;
            }
            const int gain = estimator.gain(n, cut.leaves(), *structure, inputs);
            if (gain >= min_gain && gain > best_gain) {
                best_gain = gain;
                best = &structure;  // library entries never move
                best_inputs = inputs;
                best_output_negated = wiring.output_neg;
            }
        }
        if (best) {
            decisions.emplace(
                n, Replacement{*best, std::vector<Lit>(best_inputs.begin(), best_inputs.end()),
                               best_output_negated});
        }
    }

    if (!decisions.empty()) {
        *aig = apply_replacements(*aig, decisions).cleanup();
    }
    return before - aig->count_live_ands();
}

}  // namespace mvf::synth
