#pragma once
// Area-oriented structural technology mapping (AIG -> gate netlist).
//
// Matches 4-feasible cut functions against library cells (all input
// permutations and input negations; negated inputs request the negative
// phase of the leaf) by lookup in a table built once per library
// (MatchCache), and covers the AIG by dynamic programming over
// (node, phase) with area-flow costs, followed by cover extraction and
// optional area-recovery iterations using exact usage counts.  This plays
// the role of ABC's standard-cell mapper in the paper's flow: the "GA" and
// "random" columns of Table I are areas of the netlists this pass emits.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "map/gate_library.hpp"
#include "map/netlist.hpp"
#include "net/aig.hpp"
#include "net/cuts.hpp"

namespace mvf::tech {

/// One way of realizing a cut function with a library cell: cell pin p
/// connects to cut leaf position pin_leaf_pos[p], complemented if pin_neg[p].
struct CellMatch {
    int cell_id = -1;
    std::array<std::uint8_t, 4> pin_leaf_pos{};
    std::array<bool, 4> pin_neg{};

    bool operator==(const CellMatch&) const = default;
};

/// Cut-function -> cell-match table.  The constructor enumerates every
/// (cell, ordered leaf subset, input-negation mask) once and files each
/// realization under the 16-bit function it computes; the table is immutable
/// afterwards, so one instance serves every mapping run and thread.
class MatchCache {
public:
    explicit MatchCache(GateLibrary library);

    /// The table over GateLibrary::standard(): one per process, built on
    /// first use.
    static const MatchCache& standard();

    const GateLibrary& library() const { return lib_; }

    /// All single-cell realizations of the given 16-bit cut function whose
    /// pins read exactly the function's support, ordered by cell id, then
    /// lexicographic pin-to-leaf assignment, then negation mask.
    std::span<const CellMatch> matches(std::uint16_t tt) const {
        return {matches_.data() + first_[tt], matches_.data() + first_[tt + 1u]};
    }

private:
    GateLibrary lib_;
    std::vector<std::uint32_t> first_;  ///< 2^16 + 1 offsets into matches_
    std::vector<CellMatch> matches_;
};

struct TechMapParams {
    net::CutParams cuts{4, 8, true};
    /// Area-recovery rounds after the initial area-flow pass.
    int recovery_iterations = 1;
};

/// Maps `aig` onto the cache's library.  `pi_names` / `pi_is_select` (same
/// length as the AIG's PI count, may be empty) annotate the netlist inputs;
/// select flags are consumed later by the camouflage covering.
Netlist tech_map(const net::Aig& aig, const MatchCache& cache,
                 const TechMapParams& params = {},
                 const std::vector<std::string>& pi_names = {},
                 const std::vector<bool>& pi_is_select = {});

/// Support variables (within the first `k`) of a 16-bit cut function.
std::vector<int> tt16_support(std::uint16_t tt, int k);

}  // namespace mvf::tech
