#include "net/cuts.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace mvf::net {
namespace {

// Truth tables of the four cut-leaf variables in the 4-var space.
constexpr std::uint16_t kVarTT[4] = {0xaaaa, 0xcccc, 0xf0f0, 0xff00};

Cut trivial_cut(int node) {
    Cut c;
    c.leaf_ids[0] = node;
    c.num_leaves = 1;
    c.function = kVarTT[0];
    return c;
}

// Re-expresses `tt` (over `from` leaves) in the variable space of `to`
// (a superset of `from`).
std::uint16_t expand_tt(std::uint16_t tt, std::span<const int> from,
                        std::span<const int> to) {
    std::uint16_t out = 0;
    // position of each `from` leaf within `to`
    int pos[Cut::kMaxLeaves];
    for (std::size_t i = 0; i < from.size(); ++i) {
        const auto it = std::lower_bound(to.begin(), to.end(), from[i]);
        assert(it != to.end() && *it == from[i]);
        pos[i] = static_cast<int>(it - to.begin());
    }
    for (std::uint32_t m = 0; m < 16; ++m) {
        std::uint32_t src = 0;
        for (std::size_t i = 0; i < from.size(); ++i) {
            if ((m >> pos[i]) & 1) src |= 1u << i;
        }
        if ((tt >> src) & 1) out |= static_cast<std::uint16_t>(1u << m);
    }
    return out;
}

// Merges two sorted leaf sets into out's leaves; returns false if the union
// exceeds max_leaves.
bool merge_leaves(std::span<const int> a, std::span<const int> b,
                  int max_leaves, Cut* out) {
    int n = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() || j < b.size()) {
        int next;
        if (j >= b.size() || (i < a.size() && a[i] < b[j])) {
            next = a[i++];
        } else if (i >= a.size() || b[j] < a[i]) {
            next = b[j++];
        } else {
            next = a[i++];
            ++j;
        }
        if (n == max_leaves) return false;
        out->leaf_ids[static_cast<std::size_t>(n++)] = next;
    }
    out->num_leaves = static_cast<std::uint8_t>(n);
    return true;
}

bool is_subset(std::span<const int> small, std::span<const int> big) {
    return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

}  // namespace

CutSet::CutSet(const Aig& aig, const CutParams& params) {
    if (params.max_leaves < 1 || params.max_leaves > Cut::kMaxLeaves) {
        throw std::invalid_argument(
            "CutParams::max_leaves must be in 1.." + std::to_string(Cut::kMaxLeaves) +
            ", got " + std::to_string(params.max_leaves));
    }
    if (params.max_cuts_per_node < 1 || params.max_cuts_per_node > kMaxCutsPerNode) {
        throw std::invalid_argument(
            "CutParams::max_cuts_per_node must be in 1.." +
            std::to_string(kMaxCutsPerNode) + ", got " +
            std::to_string(params.max_cuts_per_node));
    }
    slots_ = static_cast<std::size_t>(params.max_cuts_per_node) +
             (params.include_trivial ? 1 : 0);
    const auto num_nodes = static_cast<std::size_t>(aig.num_nodes());
    cuts_.resize(num_nodes * slots_);
    count_.assign(num_nodes, 0);
    const auto append = [this](int node, const Cut& c) {
        const auto n = static_cast<std::size_t>(node);
        cuts_[n * slots_ + count_[n]++] = c;
    };

    // Constant node: single empty-leaf cut with constant-0 function.
    append(0, Cut{});
    for (int i = 0; i < aig.num_pis(); ++i) append(i + 1, trivial_cut(i + 1));

    // Every candidate comes from one fanin-cut pair, so slots_^2 bounds the
    // list and it never reallocates.
    std::vector<Cut> candidates;
    candidates.reserve(slots_ * slots_);
    for (int n = aig.num_pis() + 1; n < aig.num_nodes(); ++n) {
        candidates.clear();
        const Lit f0 = aig.fanin0(n);
        const Lit f1 = aig.fanin1(n);
        const std::span<const Cut> cuts0 = cuts_of(Aig::lit_node(f0));
        const std::span<const Cut> cuts1 = cuts_of(Aig::lit_node(f1));

        for (const Cut& c0 : cuts0) {
            for (const Cut& c1 : cuts1) {
                Cut candidate;
                if (!merge_leaves(c0.leaves(), c1.leaves(), params.max_leaves,
                                  &candidate))
                    continue;
                std::uint16_t t0 = expand_tt(c0.function, c0.leaves(), candidate.leaves());
                std::uint16_t t1 = expand_tt(c1.function, c1.leaves(), candidate.leaves());
                if (Aig::lit_complemented(f0)) t0 = static_cast<std::uint16_t>(~t0);
                if (Aig::lit_complemented(f1)) t1 = static_cast<std::uint16_t>(~t1);
                candidate.function = static_cast<std::uint16_t>(t0 & t1);

                // Dominance filter: skip if an existing cut is a subset.
                const bool dominated =
                    std::any_of(candidates.begin(), candidates.end(), [&](const Cut& c) {
                        return is_subset(c.leaves(), candidate.leaves());
                    });
                if (dominated) continue;
                std::erase_if(candidates, [&candidate](const Cut& c) {
                    return is_subset(candidate.leaves(), c.leaves());
                });
                candidates.push_back(candidate);
            }
        }
        // Keep the smallest cuts when over budget.  A stable insertion sort
        // by size: std::stable_sort would allocate a buffer per node.
        for (std::size_t i = 1; i < candidates.size(); ++i) {
            const Cut c = candidates[i];
            std::size_t j = i;
            for (; j > 0 && candidates[j - 1].size() > c.size(); --j) {
                candidates[j] = candidates[j - 1];
            }
            candidates[j] = c;
        }
        const std::size_t kept = std::min(
            candidates.size(), static_cast<std::size_t>(params.max_cuts_per_node));
        for (std::size_t i = 0; i < kept; ++i) append(n, candidates[i]);
        if (params.include_trivial) append(n, trivial_cut(n));
    }
}

}  // namespace mvf::net
