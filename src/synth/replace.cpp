#include "synth/replace.hpp"

#include <cassert>

namespace mvf::synth {

using net::Aig;
using net::Lit;

Structure::Structure(Aig structure, Lit output)
    : aig(std::move(structure)), out(output) {
    std::vector<bool> seen(static_cast<std::size_t>(aig.num_nodes()), false);
    std::vector<int> stack{Aig::lit_node(out)};
    while (!stack.empty()) {
        const int n = stack.back();
        stack.pop_back();
        if (seen[static_cast<std::size_t>(n)]) continue;
        seen[static_cast<std::size_t>(n)] = true;
        if (aig.is_and(n)) {
            stack.push_back(Aig::lit_node(aig.fanin0(n)));
            stack.push_back(Aig::lit_node(aig.fanin1(n)));
        }
    }
    for (int n = 0; n < aig.num_nodes(); ++n) {
        if (seen[static_cast<std::size_t>(n)]) nodes.push_back(n);
    }
}

GainEstimator::GainEstimator(const Aig& aig)
    : aig_(aig),
      refs_(aig.reference_counts()),
      marks_(static_cast<std::size_t>(aig.num_nodes()), 0) {}

int GainEstimator::deref(int node) {
    mffc_.push_back(node);
    int count = 1;
    for (const Lit f : {aig_.fanin0(node), aig_.fanin1(node)}) {
        const auto child = static_cast<std::size_t>(Aig::lit_node(f));
        if (!aig_.is_and(static_cast<int>(child)) || (marks_[child] & kLeaf)) continue;
        if (--refs_[child] == 0) count += deref(static_cast<int>(child));
    }
    return count;
}

int GainEstimator::mffc_size(int root, std::span<const int> leaves) {
    for (const int l : leaves) marks_[static_cast<std::size_t>(l)] |= kLeaf;
    mffc_.clear();
    const int size = deref(root);

    // Restore the reference counts touched above.
    for (const int node : mffc_) {
        for (const Lit f : {aig_.fanin0(node), aig_.fanin1(node)}) {
            const auto child = static_cast<std::size_t>(Aig::lit_node(f));
            if (!aig_.is_and(static_cast<int>(child)) || (marks_[child] & kLeaf)) continue;
            ++refs_[child];
        }
    }
    for (const int l : leaves) marks_[static_cast<std::size_t>(l)] &= ~kLeaf;
    return size;
}

int GainEstimator::gain(int root, std::span<const int> leaves,
                        const Structure& s, std::span<const Lit> inputs) {
    const int freed = mffc_size(root, leaves);
    for (const int n : mffc_) marks_[static_cast<std::size_t>(n)] |= kFreed;
    const int added = count_new_nodes(s, inputs);
    for (const int n : mffc_) marks_[static_cast<std::size_t>(n)] &= ~kFreed;
    return freed - added;
}

int GainEstimator::count_new_nodes(const Structure& s,
                                   std::span<const Lit> inputs) {
    assert(static_cast<int>(inputs.size()) >= s.aig.num_pis());
    if (mapped_.size() < static_cast<std::size_t>(s.aig.num_nodes())) {
        mapped_.resize(static_cast<std::size_t>(s.aig.num_nodes()));
    }
    mapped_[0] = Aig::kConst0;
    for (int i = 0; i < s.aig.num_pis(); ++i) {
        mapped_[static_cast<std::size_t>(i + 1)] = inputs[static_cast<std::size_t>(i)];
    }

    int new_count = 0;
    for (const int n : s.nodes) {
        Lit& slot = mapped_[static_cast<std::size_t>(n)];
        if (!s.aig.is_and(n)) {
            assert(slot != Aig::kNoLit && "structure reads an unmapped input");
            continue;
        }
        const auto resolve = [this](Lit f) {
            const Lit base = mapped_[static_cast<std::size_t>(Aig::lit_node(f))];
            if (base == Aig::kNoLit) return Aig::kNoLit;
            return Aig::lit_complemented(f) ? Aig::lit_not(base) : base;
        };
        const Lit a = resolve(s.aig.fanin0(n));
        const Lit b = resolve(s.aig.fanin1(n));
        // A node built on a new node is new as well (slot stays kNoLit).
        const Lit hit = a == Aig::kNoLit || b == Aig::kNoLit ? Aig::kNoLit
                                                              : aig_.lookup_and(a, b);
        if (hit == Aig::kNoLit ||
            (marks_[static_cast<std::size_t>(Aig::lit_node(hit))] & kFreed)) {
            ++new_count;
            slot = Aig::kNoLit;
        } else {
            slot = hit;
        }
    }
    return new_count;
}

Aig apply_replacements(const Aig& aig,
                       const std::unordered_map<int, Replacement>& decisions) {
    Aig out(aig.num_pis());
    std::vector<Lit> copy(static_cast<std::size_t>(aig.num_nodes()), Aig::kNoLit);
    copy[0] = Aig::kConst0;
    for (int i = 0; i < aig.num_pis(); ++i) {
        copy[static_cast<std::size_t>(i + 1)] = out.pi(i);
    }

    const auto materialize = [&](auto&& self, int node) -> Lit {
        Lit& memo = copy[static_cast<std::size_t>(node)];
        if (memo != Aig::kNoLit) return memo;

        const auto it = decisions.find(node);
        if (it == decisions.end()) {
            const auto resolve = [&](Lit f) {
                const Lit base = self(self, Aig::lit_node(f));
                return Aig::lit_complemented(f) ? Aig::lit_not(base) : base;
            };
            memo = out.and2(resolve(aig.fanin0(node)), resolve(aig.fanin1(node)));
            return memo;
        }

        const Replacement& r = it->second;
        const Structure& s = *r.structure;
        std::vector<Lit> mapped(static_cast<std::size_t>(s.aig.num_nodes()), Aig::kNoLit);
        mapped[0] = Aig::kConst0;
        for (const int sn : s.nodes) {
            if (s.aig.is_pi(sn)) {
                const Lit in = r.inputs[static_cast<std::size_t>(sn - 1)];
                assert(in != Aig::kNoLit && "structure reads an unmapped input");
                const Lit l = self(self, Aig::lit_node(in));
                mapped[static_cast<std::size_t>(sn)] =
                    Aig::lit_complemented(in) ? Aig::lit_not(l) : l;
            }
        }
        for (const int sn : s.nodes) {
            if (!s.aig.is_and(sn)) continue;
            const auto resolve = [&](Lit f) {
                const Lit base = mapped[static_cast<std::size_t>(Aig::lit_node(f))];
                return Aig::lit_complemented(f) ? Aig::lit_not(base) : base;
            };
            mapped[static_cast<std::size_t>(sn)] =
                out.and2(resolve(s.aig.fanin0(sn)), resolve(s.aig.fanin1(sn)));
        }
        Lit result = mapped[static_cast<std::size_t>(Aig::lit_node(s.out))];
        if (Aig::lit_complemented(s.out)) result = Aig::lit_not(result);
        if (r.output_negated) result = Aig::lit_not(result);
        memo = result;
        return memo;
    };

    for (int i = 0; i < aig.num_pos(); ++i) {
        const Lit po = aig.po(i);
        const Lit base = materialize(materialize, Aig::lit_node(po));
        out.add_po(Aig::lit_complemented(po) ? Aig::lit_not(base) : base);
    }
    return out;
}

}  // namespace mvf::synth
