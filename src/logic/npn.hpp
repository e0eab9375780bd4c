#pragma once
// Exact NPN canonization of 4-variable functions (16-bit truth tables).
//
// Rewriting classifies every 4-feasible cut by its NPN class so that one
// precomputed replacement structure per class serves all 768 input/output
// transform variants.  Canonization is exact (minimum 16-bit table over all
// 24 permutations x 16 input negations x 2 output negations, the first
// minimum in that order winning) and memoized in a flat 2^16 table.

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace mvf::logic {

/// The transform taking an original function to its canonical representative:
///   canon(x) = f(y) ^ out_neg   where y_j = x_{perm[j]} ^ neg_j.
struct NpnTransform {
    std::array<std::uint8_t, 4> perm{{0, 1, 2, 3}};
    std::uint8_t input_neg = 0;  ///< bit j set -> input j of f is negated
    bool output_neg = false;
};

struct NpnEntry {
    std::uint16_t canon = 0;
    NpnTransform transform;  ///< maps the *original* function to `canon`
};

/// How to realize the original function given a structure implementing the
/// canonical function: structure input i is fed by original leaf
/// `leaf_of_input[i]`, complemented if `leaf_negated[i]`; the structure
/// output is complemented if `output_neg`.
struct NpnRebuildWiring {
    std::array<std::uint8_t, 4> leaf_of_input{{0, 1, 2, 3}};
    std::array<bool, 4> leaf_negated{{false, false, false, false}};
    bool output_neg = false;
};

class NpnManager {
public:
    NpnManager();

    /// Memoized exact canonization of a 16-bit truth table.
    const NpnEntry& canonize(std::uint16_t tt);

    /// Applies a transform:  result(x) = f(y) ^ out_neg,  y_j = x_{perm[j]} ^ neg_j.
    static std::uint16_t apply(std::uint16_t tt, const NpnTransform& t);

    /// Inverts a canonizing transform into rebuild wiring (see NpnRebuildWiring).
    static NpnRebuildWiring rebuild_wiring(const NpnTransform& t);

    /// All 24 permutations of four elements, in a fixed order.
    static const std::array<std::array<std::uint8_t, 4>, 24>& permutations();

private:
    // Lazily filled; index = truth table.  `computed_` marks valid entries.
    std::vector<NpnEntry> table_;
    std::vector<bool> computed_;
};

}  // namespace mvf::logic
