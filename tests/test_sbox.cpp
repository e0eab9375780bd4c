// Tests for S-box data and cryptographic property analysis.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "sbox/sbox_data.hpp"

namespace mvf::sbox {
namespace {

TEST(Sbox, OutputTruthTablesMatchLookup) {
    const Sbox& s = present_sbox();
    for (int j = 0; j < 4; ++j) {
        const logic::TruthTable t = s.output_tt(j);
        for (std::uint32_t x = 0; x < 16; ++x) {
            EXPECT_EQ(t.bit(x), ((s.lookup(x) >> j) & 1) != 0);
        }
    }
    EXPECT_EQ(s.output_tts().size(), 4u);
}

TEST(LeanderPoschmann, SixteenDistinctTables) {
    const auto& all = leander_poschmann_16();
    ASSERT_EQ(all.size(), 16u);
    // 16 nibbles pack one 4-bit table into one word.
    std::set<std::uint64_t> unique;
    for (const Sbox& s : all) {
        ASSERT_EQ(s.table.size(), 16u) << s.name;
        std::uint64_t packed = 0;
        for (const std::uint8_t v : s.table) {
            ASSERT_LT(v, 16u) << s.name;
            packed = packed << 4 | v;
        }
        unique.insert(packed);
    }
    EXPECT_EQ(unique.size(), 16u);
}

TEST(LeanderPoschmann, AllBijective) {
    for (const Sbox& s : leander_poschmann_16()) {
        EXPECT_TRUE(s.is_bijective()) << s.name;
    }
}

TEST(LeanderPoschmann, AllOptimal) {
    // Optimal 4-bit S-boxes: Lin(S) = 8 and Diff(S) = 4 (Leander-Poschmann).
    for (const Sbox& s : leander_poschmann_16()) {
        EXPECT_EQ(linearity(s), 8) << s.name;
        EXPECT_EQ(differential_uniformity(s), 4) << s.name;
        EXPECT_TRUE(is_optimal_4bit(s)) << s.name;
    }
}

TEST(LeanderPoschmann, SharedClassPrefix) {
    for (const Sbox& s : leander_poschmann_16()) {
        const std::vector<std::uint8_t> prefix(s.table.begin(), s.table.begin() + 9);
        EXPECT_EQ(prefix, (std::vector<std::uint8_t>{0, 1, 2, 13, 4, 7, 15, 6, 8}))
            << s.name;
    }
}

TEST(Present, KnownTableAndOptimality) {
    const Sbox& s = present_sbox();
    EXPECT_EQ(s.lookup(0x0), 0xC);
    EXPECT_EQ(s.lookup(0x5), 0x0);
    EXPECT_EQ(s.lookup(0xF), 0x2);
    EXPECT_TRUE(s.is_bijective());
    EXPECT_TRUE(is_optimal_4bit(s));
}

TEST(Des, EightBoxesWithRowPermutationStructure) {
    const auto& all = des_all();
    ASSERT_EQ(all.size(), 8u);
    for (const Sbox& s : all) {
        EXPECT_EQ(s.num_inputs, 6);
        EXPECT_EQ(s.num_outputs, 4);
        // In every DES S-box, each of the four rows is a permutation of 0..15.
        for (int row = 0; row < 4; ++row) {
            std::uint32_t mask = 0;
            for (int col = 0; col < 16; ++col) {
                const std::uint32_t x = static_cast<std::uint32_t>(
                    ((row >> 1) << 5) | (col << 1) | (row & 1));
                mask |= 1u << s.lookup(x);
            }
            EXPECT_EQ(mask, 0xffffu) << s.name << " row " << row;
        }
    }
}

TEST(Des, KnownSpotValues) {
    // S1 row 0 col 0 = 14; S1 row 3 col 15 = 13.
    EXPECT_EQ(des_sbox(0).lookup(0), 14);
    // row=3 -> x5=1,x0=1; col=15 -> x4..x1=1111 -> x = 0b111111 = 63.
    EXPECT_EQ(des_sbox(0).lookup(63), 13);
    // S8 row 0 col 0 = 13.
    EXPECT_EQ(des_sbox(7).lookup(0), 13);
    // S5 row 1 col 0: x5=0,x0=1 -> x=1 -> 14.
    EXPECT_EQ(des_sbox(4).lookup(1), 14);
}

TEST(Ddt, RowZeroIsDeltaFunction) {
    for (const Sbox& s : {present_sbox(), des_sbox(2)}) {
        const auto ddt = difference_distribution_table(s);
        EXPECT_EQ(ddt[0][0], 1 << s.num_inputs);
        for (std::size_t dy = 1; dy < ddt[0].size(); ++dy) {
            EXPECT_EQ(ddt[0][dy], 0);
        }
    }
}

TEST(Ddt, RowsSumToInputCount) {
    const Sbox& s = present_sbox();
    const auto ddt = difference_distribution_table(s);
    for (const auto& row : ddt) {
        int sum = 0;
        for (const int v : row) sum += v;
        EXPECT_EQ(sum, 16);
    }
}

TEST(Ddt, EntriesAreEven) {
    // DDT entries of any function are even (x and x^dx pair up).
    const auto ddt = difference_distribution_table(leander_poschmann_16()[3]);
    for (std::size_t dx = 1; dx < ddt.size(); ++dx) {
        for (const int v : ddt[dx]) EXPECT_EQ(v % 2, 0);
    }
}

TEST(Lat, ZeroMasksRow) {
    const Sbox& s = present_sbox();
    const auto lat = linear_approximation_table(s);
    // <0,x> = <0,S(x)> always: bias = 2^(n-1).
    EXPECT_EQ(lat[0][0], 8);
    // For bijective S-boxes, lat[0][b] = 0 for b != 0 (balancedness).
    for (std::size_t b = 1; b < lat[0].size(); ++b) {
        EXPECT_EQ(lat[0][b], 0);
    }
}

TEST(Lat, ParsevalPerOutputMask) {
    // sum_a LAT[a][b]^2 = 2^(2n-2) for every fixed b != 0 (Parseval).
    const Sbox& s = leander_poschmann_16()[0];
    const auto lat = linear_approximation_table(s);
    for (std::size_t b = 1; b < 16; ++b) {
        long long sum = 0;
        for (std::size_t a = 0; a < 16; ++a) {
            sum += static_cast<long long>(lat[a][b]) * lat[a][b];
        }
        EXPECT_EQ(sum, 64) << "b=" << b;
    }
}

TEST(Des, NotOptimal4BitPredicate) {
    // The 6->4 DES boxes must be rejected by the 4-bit optimality predicate.
    EXPECT_FALSE(is_optimal_4bit(des_sbox(0)));
}

TEST(ViableSets, SubsetsComeInOrder) {
    const auto p8 = present_viable_set(8);
    ASSERT_EQ(p8.size(), 8u);
    EXPECT_EQ(p8[0].name, "G0");
    EXPECT_EQ(p8[7].name, "G7");
    const auto d4 = des_viable_set(4);
    ASSERT_EQ(d4.size(), 4u);
    EXPECT_EQ(d4[3].name, "DES_S4");
}

TEST(NonBijective, DetectedAsSuch) {
    Sbox s;
    s.num_inputs = 2;
    s.num_outputs = 2;
    s.table = {0, 1, 1, 3};
    EXPECT_FALSE(s.is_bijective());
}

}  // namespace
}  // namespace mvf::sbox
