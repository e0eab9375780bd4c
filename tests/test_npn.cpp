// Tests for exact NPN canonization of 4-variable functions.

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <vector>

#include "logic/npn.hpp"
#include "util/rng.hpp"

namespace mvf::logic {
namespace {

TEST(Npn, PermutationTableComplete) {
    const auto& perms = NpnManager::permutations();
    std::set<std::array<std::uint8_t, 4>> unique(perms.begin(), perms.end());
    EXPECT_EQ(unique.size(), 24u);
}

TEST(Npn, ApplyIdentityIsIdentity) {
    NpnTransform id;
    for (std::uint32_t tt = 0; tt < 0x10000; tt += 257) {
        EXPECT_EQ(NpnManager::apply(static_cast<std::uint16_t>(tt), id), tt);
    }
}

TEST(Npn, ApplyOutputNegationComplements) {
    NpnTransform t;
    t.output_neg = true;
    EXPECT_EQ(NpnManager::apply(0x8000, t), static_cast<std::uint16_t>(~0x8000));
}

TEST(Npn, ApplyInputNegationOnAnd2) {
    // f = x0 & x1 (tt 0x8888... over 4 vars: minterms with bits0,1 set).
    std::uint16_t and2 = 0;
    for (std::uint32_t m = 0; m < 16; ++m) {
        if ((m & 3) == 3) and2 |= static_cast<std::uint16_t>(1u << m);
    }
    NpnTransform t;
    t.input_neg = 1;  // negate input 0:  g(x) = f(!x0, x1) = !x0 & x1
    std::uint16_t expected = 0;
    for (std::uint32_t m = 0; m < 16; ++m) {
        if (((m & 1) == 0) && ((m & 2) != 0)) expected |= static_cast<std::uint16_t>(1u << m);
    }
    EXPECT_EQ(NpnManager::apply(and2, t), expected);
}

TEST(Npn, CanonIsInvariantUnderRandomTransforms) {
    NpnManager npn;
    util::Rng rng(7);
    for (int trial = 0; trial < 200; ++trial) {
        const auto tt = static_cast<std::uint16_t>(rng.next_u64());
        NpnTransform t;
        t.perm = NpnManager::permutations()[static_cast<std::size_t>(rng.uniform_int(0, 23))];
        t.input_neg = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
        t.output_neg = rng.coin(0.5);
        const std::uint16_t variant = NpnManager::apply(tt, t);
        EXPECT_EQ(npn.canonize(tt).canon, npn.canonize(variant).canon)
            << "tt=" << tt;
    }
}

TEST(Npn, TransformReachesCanon) {
    NpnManager npn;
    util::Rng rng(11);
    for (int trial = 0; trial < 300; ++trial) {
        const auto tt = static_cast<std::uint16_t>(rng.next_u64());
        const NpnEntry& e = npn.canonize(tt);
        EXPECT_EQ(NpnManager::apply(tt, e.transform), e.canon);
    }
}

TEST(Npn, RebuildWiringInvertsTransform) {
    // original(z) = canon(x)^out_neg with x_i = z_{leaf_of_input[i]} ^ neg.
    NpnManager npn;
    util::Rng rng(13);
    for (int trial = 0; trial < 300; ++trial) {
        const auto tt = static_cast<std::uint16_t>(rng.next_u64());
        const NpnEntry& e = npn.canonize(tt);
        const NpnRebuildWiring w = NpnManager::rebuild_wiring(e.transform);

        std::uint16_t rebuilt = 0;
        for (std::uint32_t z = 0; z < 16; ++z) {
            std::uint32_t x = 0;
            for (int i = 0; i < 4; ++i) {
                std::uint32_t bit = (z >> w.leaf_of_input[static_cast<std::size_t>(i)]) & 1;
                if (w.leaf_negated[static_cast<std::size_t>(i)]) bit ^= 1;
                x |= bit << i;
            }
            std::uint32_t v = (e.canon >> x) & 1;
            if (w.output_neg) v ^= 1;
            rebuilt |= static_cast<std::uint16_t>(v << z);
        }
        EXPECT_EQ(rebuilt, tt);
    }
}

TEST(Npn, KnownClassCountForAllFourVarFunctions) {
    // The number of NPN equivalence classes of 4-variable Boolean functions
    // is a known constant: 222.
    NpnManager npn;
    std::set<std::uint16_t> classes;
    for (std::uint32_t tt = 0; tt < 0x10000; ++tt) {
        classes.insert(npn.canonize(static_cast<std::uint16_t>(tt)).canon);
    }
    EXPECT_EQ(classes.size(), 222u);
}

TEST(Npn, CanonizeMatchesApplyOverAllTransformsForEveryFunction) {
    // The reference: all 768 transforms in the order (perm, neg, out_neg),
    // keeping the first strictly smaller table.  The transform feeds the
    // rewrite wiring, so it must agree too, not just the canon.  Without
    // output negation apply() only moves minterms, so each (perm, neg) is
    // taken from apply() once, as the images of the 16 single-minterm
    // tables, and a table's image is the OR of its minterms' images.
    struct Candidate {
        NpnTransform transform;
        std::array<std::uint16_t, 16> image;
    };
    std::vector<Candidate> candidates;
    for (const auto& perm : NpnManager::permutations()) {
        for (std::uint8_t neg = 0; neg < 16; ++neg) {
            Candidate c{{perm, neg, false}, {}};
            for (std::uint32_t y = 0; y < 16; ++y) {
                c.image[y] =
                    NpnManager::apply(static_cast<std::uint16_t>(1u << y), c.transform);
            }
            candidates.push_back(c);
        }
    }
    NpnManager npn;
    int mismatches = 0;
    for (std::uint32_t f = 0; f < 0x10000; ++f) {
        const auto tt = static_cast<std::uint16_t>(f);
        NpnEntry want;
        bool first = true;
        for (const Candidate& c : candidates) {
            std::uint16_t image = 0;
            for (std::uint32_t rest = f; rest != 0; rest &= rest - 1) {
                image |= c.image[static_cast<std::size_t>(std::countr_zero(rest))];
            }
            for (const bool out_neg : {false, true}) {
                const NpnTransform t{c.transform.perm, c.transform.input_neg, out_neg};
                const auto candidate =
                    static_cast<std::uint16_t>(out_neg ? ~image : image);
                if (f % 4099 == 0) {
                    ASSERT_EQ(candidate, NpnManager::apply(tt, t)) << "tt=" << tt;
                }
                if (first || candidate < want.canon) want = {candidate, t};
                first = false;
            }
        }
        const NpnEntry& got = npn.canonize(tt);
        if (got.canon != want.canon || got.transform.perm != want.transform.perm ||
            got.transform.input_neg != want.transform.input_neg ||
            got.transform.output_neg != want.transform.output_neg) {
            if (++mismatches <= 5) ADD_FAILURE() << "tt=" << tt;
        }
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(Npn, CanonIsMinimal) {
    NpnManager npn;
    util::Rng rng(17);
    for (int trial = 0; trial < 20; ++trial) {
        const auto tt = static_cast<std::uint16_t>(rng.next_u64());
        const std::uint16_t canon = npn.canonize(tt).canon;
        EXPECT_LE(canon, tt);
        // Canon of canon is itself.
        EXPECT_EQ(npn.canonize(canon).canon, canon);
    }
}

TEST(Npn, ConstantsAndProjections) {
    NpnManager npn;
    EXPECT_EQ(npn.canonize(0x0000).canon, 0x0000);
    // Constant 1 negates to constant 0.
    EXPECT_EQ(npn.canonize(0xffff).canon, 0x0000);
    // All single-variable projections share one class.
    const std::uint16_t x0 = 0xaaaa;
    const std::uint16_t x3 = 0xff00;
    EXPECT_EQ(npn.canonize(x0).canon, npn.canonize(x3).canon);
    EXPECT_EQ(npn.canonize(static_cast<std::uint16_t>(~x0)).canon,
              npn.canonize(x3).canon);
}

}  // namespace
}  // namespace mvf::logic
