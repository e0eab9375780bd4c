#pragma once
// K-feasible cut enumeration with cut functions.
//
// Cuts drive both NPN rewriting (4-cuts classified by canonical form) and
// structural technology mapping (cut function matched against library
// cells).  Each cut stores its sorted leaf set and its function as a 16-bit
// truth table over the leaf positions (leaf i = variable i; unused
// variables are don't-cares).
//
// Storage: a cut holds its at most four leaves in a fixed array, and a
// CutSet keeps every node's cuts in one flat array of equal per-node slots
// (max_cuts_per_node, plus one for the trivial cut).  Building a CutSet
// allocates three buffers in all -- the slots, the per-node counts and one
// candidate list reused for every node -- and nothing per node or per cut.
// A node's list is fixed by its fanins' lists: every fanin-cut pair in
// order, a dominance filter, a stable sort by size, truncation to
// max_cuts_per_node, and then the trivial cut.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "net/aig.hpp"

namespace mvf::net {

struct Cut {
    /// Cut functions are 16-bit tables, so a cut has at most 4 leaves.
    static constexpr int kMaxLeaves = 4;

    std::array<int, kMaxLeaves> leaf_ids{};  ///< sorted; first size() valid
    std::uint16_t function = 0;  ///< tt over leaf positions (4-var space)
    std::uint8_t num_leaves = 0;

    int size() const { return num_leaves; }
    std::span<const int> leaves() const { return {leaf_ids.data(), num_leaves}; }
};

struct CutParams {
    int max_leaves = 4;        ///< K, 1..Cut::kMaxLeaves
    int max_cuts_per_node = 8; ///< priority cuts kept per node, 1..CutSet::kMaxCutsPerNode
    bool include_trivial = true;
};

/// All cuts per node, indexed by node id.  PIs get only their trivial cut.
class CutSet {
public:
    /// Largest max_cuts_per_node: a node's cut count, trivial cut included,
    /// is held in one byte.
    static constexpr int kMaxCutsPerNode = 254;

    /// Throws std::invalid_argument if params.max_leaves is outside
    /// 1..Cut::kMaxLeaves or params.max_cuts_per_node is outside
    /// 1..kMaxCutsPerNode.
    CutSet(const Aig& aig, const CutParams& params);

    std::span<const Cut> cuts_of(int node) const {
        const auto n = static_cast<std::size_t>(node);
        return {cuts_.data() + n * slots_, count_[n]};
    }

private:
    std::size_t slots_ = 0;            ///< cut slots per node
    std::vector<Cut> cuts_;            ///< node n: [n * slots_, + count_[n])
    std::vector<std::uint8_t> count_;  ///< cuts held per node
};

}  // namespace mvf::net
