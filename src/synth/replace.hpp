#pragma once
// Shared machinery for DAG-aware resynthesis passes (rewrite / refactor):
// MFFC computation, dry-run gain estimation, and rebuild-with-substitution.
//
// A pass scores every candidate with one GainEstimator: the nodes the
// root's MFFC would free minus the AND nodes instantiating the candidate
// Structure would add.  The estimator owns the pass's reference counts and
// a node-indexed mark array that each call sets and clears again, so
// scoring a candidate allocates nothing once its buffers have grown.  A
// candidate is a Structure plus the old-AIG literal feeding each structure
// input; only the winner at a node becomes a Replacement.
// apply_replacements() then reconstructs the graph from the primary
// outputs, instantiating decided structures through structural hashing so
// shared logic is discovered and dead cones vanish.

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/aig.hpp"

namespace mvf::synth {

/// A small AIG implementing one function, with the nodes reachable from its
/// output listed once, in ascending id (a topological order): the nodes the
/// gain estimate replays and apply_replacements() instantiates.
struct Structure {
    Structure(net::Aig aig, net::Lit out);

    net::Aig aig;
    net::Lit out;
    std::vector<int> nodes;
};

/// A decided resynthesis of one node.
struct Replacement {
    std::shared_ptr<const Structure> structure;
    /// Per structure PI: the old-AIG literal feeding it (kNoLit if the
    /// structure does not read that input).
    std::vector<net::Lit> inputs;
    bool output_negated = false;
};

/// Per-pass gain estimation over one AIG, which must stay unchanged while
/// the estimator is in use.
class GainEstimator {
public:
    explicit GainEstimator(const net::Aig& aig);

    /// Fanout count of `node`, PO references included.
    int refs(int node) const { return refs_[static_cast<std::size_t>(node)]; }

    /// Size of the maximum fanout-free cone of `root` down to `leaves`, by
    /// trial dereferencing (the reference counts are restored).
    int mffc_size(int root, std::span<const int> leaves);

    /// Nodes freed minus AND nodes added if `root`, over the cut `leaves`,
    /// were rebuilt as `s` with structure PI i fed by `inputs[i]`.  The
    /// added count replays `s` against the structural hash table; a hit on
    /// a node of the freed MFFC counts as new.
    int gain(int root, std::span<const int> leaves, const Structure& s,
             std::span<const net::Lit> inputs);

private:
    static constexpr std::uint8_t kLeaf = 1;
    static constexpr std::uint8_t kFreed = 2;

    int deref(int node);
    int count_new_nodes(const Structure& s, std::span<const net::Lit> inputs);

    const net::Aig& aig_;
    std::vector<int> refs_;
    std::vector<std::uint8_t> marks_;  ///< kLeaf | kFreed per node, else 0
    std::vector<int> mffc_;            ///< members of the last MFFC
    std::vector<net::Lit> mapped_;     ///< structure node -> old-AIG literal
};

/// Rebuilds the AIG applying the decided replacements (keyed by old node id).
net::Aig apply_replacements(
    const net::Aig& aig,
    const std::unordered_map<int, Replacement>& decisions);

}  // namespace mvf::synth
