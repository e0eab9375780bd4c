#include "logic/npn.hpp"

#include <algorithm>
#include <bit>

namespace mvf::logic {
namespace {

std::array<std::array<std::uint8_t, 4>, 24> make_permutations() {
    std::array<std::array<std::uint8_t, 4>, 24> perms{};
    std::array<std::uint8_t, 4> p{{0, 1, 2, 3}};
    int i = 0;
    do {
        perms[static_cast<std::size_t>(i++)] = p;
    } while (std::next_permutation(p.begin(), p.end()));
    return perms;
}

// Low cofactor block of each variable in a 16-bit table.
constexpr std::uint16_t kLow[4] = {0x5555, 0x3333, 0x0f0f, 0x00ff};

// [p][m]: the minterm of f that minterm m of apply(f, {permutations()[p]})
// reads, y_j = m_{perm[j]}.
std::array<std::array<std::uint8_t, 16>, 24> permutation_sources() {
    std::array<std::array<std::uint8_t, 16>, 24> src{};
    for (std::size_t p = 0; p < 24; ++p) {
        for (std::uint32_t m = 0; m < 16; ++m) {
            std::uint32_t y = 0;
            for (std::uint32_t j = 0; j < 4; ++j) {
                y |= ((m >> NpnManager::permutations()[p][j]) & 1u) << j;
            }
            src[p][m] = static_cast<std::uint8_t>(y);
        }
    }
    return src;
}

}  // namespace

const std::array<std::array<std::uint8_t, 4>, 24>& NpnManager::permutations() {
    static const auto perms = make_permutations();
    return perms;
}

NpnManager::NpnManager() : table_(1u << 16), computed_(1u << 16, false) {}

std::uint16_t NpnManager::apply(std::uint16_t tt, const NpnTransform& t) {
    std::uint16_t out = 0;
    for (std::uint32_t m = 0; m < 16; ++m) {
        std::uint32_t y = 0;
        for (int j = 0; j < 4; ++j) {
            const std::uint32_t bit =
                ((m >> t.perm[static_cast<std::size_t>(j)]) & 1) ^
                ((t.input_neg >> j) & 1);
            y |= bit << j;
        }
        std::uint32_t value = (tt >> y) & 1;
        value ^= t.output_neg ? 1u : 0u;
        out |= static_cast<std::uint16_t>(value << m);
    }
    return out;
}

const NpnEntry& NpnManager::canonize(std::uint16_t tt) {
    if (computed_[tt]) return table_[tt];

    // apply(tt, {perm, neg, out_neg}) is the permuted table apply(tt, {perm})
    // with variable perm[j] flipped for every j in neg, complemented when
    // out_neg.  A flip swaps the variable's cofactor blocks, so each of the
    // 16 negation masks costs one shift-and-mask step from a mask with one
    // bit fewer.  Candidates are compared in the order (perm, neg, out_neg)
    // with a strict `<`, so the first minimal transform wins.
    static const auto sources = permutation_sources();
    NpnEntry best;
    best.canon = tt;  // the identity transform comes first
    std::array<std::uint16_t, 16> negated{};
    for (std::size_t p = 0; p < 24; ++p) {
        const auto& perm = permutations()[p];
        std::uint32_t permuted = 0;
        for (std::uint32_t m = 0; m < 16; ++m) {
            permuted |= ((tt >> sources[p][m]) & 1u) << m;
        }
        negated[0] = static_cast<std::uint16_t>(permuted);
        for (std::uint32_t neg = 1; neg < 16; ++neg) {
            const int j = std::countr_zero(neg);
            const int v = perm[static_cast<std::size_t>(j)];
            const std::uint32_t t = negated[neg & (neg - 1)];
            negated[neg] = static_cast<std::uint16_t>(
                ((t & kLow[v]) << (1 << v)) | ((t >> (1 << v)) & kLow[v]));
        }
        for (std::uint32_t neg = 0; neg < 16; ++neg) {
            for (int out_neg = 0; out_neg < 2; ++out_neg) {
                const auto candidate = static_cast<std::uint16_t>(
                    out_neg ? ~negated[neg] : negated[neg]);
                if (candidate < best.canon) {
                    best.canon = candidate;
                    best.transform = {perm, static_cast<std::uint8_t>(neg),
                                      out_neg != 0};
                }
            }
        }
    }
    table_[tt] = best;
    computed_[tt] = true;
    return table_[tt];
}

NpnRebuildWiring NpnManager::rebuild_wiring(const NpnTransform& t) {
    // canon(x) = f(y), y_j = x_{perm[j]} ^ neg_j  and  f = canon after undo:
    // f(z) = canon(x) ^ out_neg  where  x_{perm[j]} = z_j ^ neg_j.
    // Hence structure (canonical) input i = perm[j] reads leaf j = perm^-1(i).
    NpnRebuildWiring w;
    for (int j = 0; j < 4; ++j) {
        const std::uint8_t i = t.perm[static_cast<std::size_t>(j)];
        w.leaf_of_input[i] = static_cast<std::uint8_t>(j);
        w.leaf_negated[i] = ((t.input_neg >> j) & 1) != 0;
    }
    w.output_neg = t.output_neg;
    return w;
}

}  // namespace mvf::logic
