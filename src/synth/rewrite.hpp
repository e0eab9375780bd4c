#pragma once
// DAG-aware NPN cut rewriting (ABC `rewrite` analogue).
//
// Every 4-feasible cut is classified by exact NPN canonization; a memoized
// library provides one optimized replacement structure per canonical class
// (dual-polarity ISOP + algebraic factoring).  A cut is rewritten when the
// structure adds fewer nodes than the cut's MFFC frees.  Rewriting is the
// main engine for discovering logic sharing across merged viable functions.
// Each cut is scored through the pass's GainEstimator (synth/replace.hpp)
// against the library structure directly; only a node's best cut becomes
// a Replacement.

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "logic/npn.hpp"
#include "net/aig.hpp"
#include "net/cuts.hpp"
#include "synth/replace.hpp"

namespace mvf::synth {

/// Memoized canonical-class -> replacement-structure table.  Share one
/// instance across all rewriting calls of a run.
class RewriteLibrary {
public:
    /// Best known structure for a canonical 4-variable function: an AIG
    /// over 4 PIs whose output is also its only PO.  The structure's node
    /// order is computed once, when the entry is filled.
    const std::shared_ptr<const Structure>& structure_for(std::uint16_t canon_tt);

private:
    std::unordered_map<std::uint16_t, std::shared_ptr<const Structure>> memo_;
};

struct RewriteParams {
    net::CutParams cuts{4, 8, true};
    /// Accept replacements of equal size (structure perturbation).
    bool zero_gain = false;
};

/// One rewriting pass; returns the number of AND nodes saved.
int rewrite(net::Aig* aig, logic::NpnManager& npn, RewriteLibrary& lib,
            const RewriteParams& params = {});

}  // namespace mvf::synth
