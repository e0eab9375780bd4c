// Unit tests for the TruthTable substrate.

#include "logic/truth_table.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace mvf::logic {
namespace {

TEST(TruthTable, ConstantsAndSizes) {
    for (int n = 0; n <= 10; ++n) {
        const TruthTable z = TruthTable::zeros(n);
        const TruthTable o = TruthTable::ones(n);
        EXPECT_TRUE(z.is_zero());
        EXPECT_TRUE(o.is_ones());
        EXPECT_FALSE(z.is_ones()) << n;
        EXPECT_FALSE(o.is_zero());
        EXPECT_EQ(z.num_bits(), 1u << n);
        EXPECT_EQ(o.count_ones(), 1 << n);
        EXPECT_EQ(~z, o);
    }
}

TEST(TruthTable, VarProjection) {
    for (int n = 1; n <= 9; ++n) {
        for (int v = 0; v < n; ++v) {
            const TruthTable t = TruthTable::var(v, n);
            for (std::uint32_t m = 0; m < t.num_bits(); ++m) {
                EXPECT_EQ(t.bit(m), ((m >> v) & 1) != 0);
            }
            EXPECT_EQ(t.count_ones(), 1 << (n - 1));
        }
    }
}

TEST(TruthTable, BitwiseOperators) {
    const int n = 7;
    const TruthTable a = TruthTable::var(2, n);
    const TruthTable b = TruthTable::var(6, n);
    const TruthTable both = a & b;
    const TruthTable either = a | b;
    const TruthTable diff = a ^ b;
    for (std::uint32_t m = 0; m < both.num_bits(); ++m) {
        const bool ba = (m >> 2) & 1;
        const bool bb = (m >> 6) & 1;
        EXPECT_EQ(both.bit(m), ba && bb);
        EXPECT_EQ(either.bit(m), ba || bb);
        EXPECT_EQ(diff.bit(m), ba != bb);
    }
}

TEST(TruthTable, NormalizationKeepsEqualityExact) {
    // ~zeros over 3 vars must not leave garbage above bit 7.
    const TruthTable o = ~TruthTable::zeros(3);
    EXPECT_EQ(o.as_u64(), 0xffull);
    EXPECT_EQ(o, TruthTable::ones(3));
}

TEST(TruthTable, CofactorSmallVar) {
    const int n = 5;
    util::Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        TruthTable f = TruthTable::from_u64(n, rng.next_u64());
        for (int v = 0; v < n; ++v) {
            const TruthTable c0 = f.cofactor(v, false);
            const TruthTable c1 = f.cofactor(v, true);
            EXPECT_FALSE(c0.depends_on(v));
            EXPECT_FALSE(c1.depends_on(v));
            for (std::uint32_t m = 0; m < f.num_bits(); ++m) {
                EXPECT_EQ(c0.bit(m), f.bit(m & ~(1u << v)));
                EXPECT_EQ(c1.bit(m), f.bit(m | (1u << v)));
            }
            // Shannon expansion reconstructs f.
            const TruthTable xv = TruthTable::var(v, n);
            EXPECT_EQ((xv & c1) | (~xv & c0), f);
        }
    }
}

TEST(TruthTable, CofactorLargeVar) {
    const int n = 9;
    util::Rng rng(13);
    TruthTable f = TruthTable::from_function(
        n, [&rng](std::uint32_t) { return rng.coin(0.5); });
    for (int v = 0; v < n; ++v) {
        const TruthTable c0 = f.cofactor(v, false);
        const TruthTable c1 = f.cofactor(v, true);
        const TruthTable xv = TruthTable::var(v, n);
        EXPECT_EQ((xv & c1) | (~xv & c0), f) << "var " << v;
        EXPECT_FALSE(c0.depends_on(v));
    }
}

TEST(TruthTable, SupportDetection) {
    const int n = 8;
    // f = x1 & x6 | x3
    const TruthTable f = (TruthTable::var(1, n) & TruthTable::var(6, n)) |
                         TruthTable::var(3, n);
    EXPECT_EQ(f.support(), (std::vector<int>{1, 3, 6}));
    EXPECT_TRUE(TruthTable::zeros(n).support().empty());
}

TEST(TruthTable, PermuteRoundTrip) {
    const int n = 6;
    util::Rng rng(99);
    for (int trial = 0; trial < 10; ++trial) {
        const TruthTable f = TruthTable::from_u64(n, rng.next_u64());
        const std::vector<int> perm = rng.permutation(n);
        const TruthTable g = f.permute(perm);
        // g(x) must equal f with input i bound to x_{perm[i]}.
        for (std::uint32_t m = 0; m < f.num_bits(); ++m) {
            std::uint32_t src = 0;
            for (int i = 0; i < n; ++i) {
                if ((m >> perm[static_cast<std::size_t>(i)]) & 1) src |= 1u << i;
            }
            EXPECT_EQ(g.bit(m), f.bit(src));
        }
        // Inverse permutation restores the original.
        std::vector<int> inv(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) inv[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] = i;
        EXPECT_EQ(g.permute(inv), f);
    }
}

TEST(TruthTable, ExtendAddsDontCareVars) {
    const TruthTable f = TruthTable::var(0, 2) & TruthTable::var(1, 2);
    const TruthTable g = f.extend(5);
    EXPECT_EQ(g.num_vars(), 5);
    for (std::uint32_t m = 0; m < g.num_bits(); ++m) {
        EXPECT_EQ(g.bit(m), ((m & 3) == 3));
    }
    EXPECT_EQ(g.support(), (std::vector<int>{0, 1}));
}

TEST(TruthTable, ProjectExtractsSupport) {
    const int n = 7;
    const TruthTable f = TruthTable::var(2, n) ^ TruthTable::var(5, n);
    const std::vector<int> vars{2, 5};
    const TruthTable g = f.project(vars);
    EXPECT_EQ(g.num_vars(), 2);
    EXPECT_EQ(g, TruthTable::var(0, 2) ^ TruthTable::var(1, 2));
}

TEST(TruthTable, ProjectThenExtendPreservesFunction) {
    util::Rng rng(5);
    const int n = 8;
    for (int trial = 0; trial < 10; ++trial) {
        TruthTable f(n);
        // Random function over a random 3-var subspace.
        std::vector<int> vars = rng.permutation(n);
        vars.resize(3);
        std::sort(vars.begin(), vars.end());
        const TruthTable base = TruthTable::from_u64(3, rng.next_u64());
        for (std::uint32_t m = 0; m < f.num_bits(); ++m) {
            std::uint32_t idx = 0;
            for (std::size_t j = 0; j < vars.size(); ++j) {
                if ((m >> vars[j]) & 1) idx |= 1u << j;
            }
            f.set_bit(m, base.bit(idx));
        }
        EXPECT_EQ(f.project(vars), base);
    }
}

TEST(TruthTable, HashDistinguishesAndMatches) {
    const TruthTable a = TruthTable::var(0, 4);
    const TruthTable b = TruthTable::var(1, 4);
    EXPECT_NE(a, b);
    EXPECT_EQ(a.hash(), TruthTable::var(0, 4).hash());
}

TEST(TruthTable, ToHexFormatting) {
    EXPECT_EQ(TruthTable::from_u64(4, 0x8421).to_hex(), "8421");
    EXPECT_EQ(TruthTable::var(0, 2).to_hex(), "a");
    EXPECT_EQ(TruthTable::ones(6).to_hex(), "ffffffffffffffff");
}

TEST(TruthTable, FromFunctionMatchesBitAccess) {
    const TruthTable t = TruthTable::from_function(
        5, [](std::uint32_t m) { return __builtin_popcount(m) % 2 == 1; });
    for (std::uint32_t m = 0; m < 32; ++m) {
        EXPECT_EQ(t.bit(m), __builtin_popcount(m) % 2 == 1);
    }
}

// ---- Inline/heap storage boundary: tables of up to 6 variables live in
// the object, wider ones on the heap; copies and moves cross the boundary.

constexpr int kWidths[] = {0, 5, 6, 7, 10, 16};

TruthTable random_table(int num_vars, util::Rng& rng) {
    TruthTable t(num_vars);
    for (std::uint32_t m = 0; m < t.num_bits(); ++m) t.set_bit(m, rng.coin(0.5));
    return t;
}

// Flips one minterm: used to show two tables do not share storage.
void flip(TruthTable* t, std::uint32_t minterm) {
    t->set_bit(minterm % t->num_bits(), !t->bit(minterm % t->num_bits()));
}

TEST(TruthTableStorage, OneInlineWord) {
    // Vars count, data pointer, inline word.
    if constexpr (sizeof(void*) == 8) {
        EXPECT_EQ(sizeof(TruthTable), 24u);
    }
}

TEST(TruthTableStorage, CopyConstructionAcrossWidths) {
    util::Rng rng(31);
    for (const int n : kWidths) {
        const TruthTable src = random_table(n, rng);
        const TruthTable saved = src;
        TruthTable copy(src);
        EXPECT_EQ(copy, src) << n;
        EXPECT_EQ(copy.hash(), src.hash()) << n;
        flip(&copy, 3);
        EXPECT_NE(copy, src) << n;
        EXPECT_EQ(src, saved) << n;
    }
}

TEST(TruthTableStorage, MoveConstructionAcrossWidths) {
    util::Rng rng(32);
    for (const int n : kWidths) {
        TruthTable src = random_table(n, rng);
        const TruthTable saved = src;
        const TruthTable moved(std::move(src));
        EXPECT_EQ(moved, saved) << n;
        // The moved-from table is still a table and takes new contents.
        src = TruthTable::var(0, 3);
        EXPECT_EQ(src, TruthTable::var(0, 3)) << n;
    }
}

TEST(TruthTableStorage, CopyAssignmentEveryDirection) {
    util::Rng rng(33);
    for (const int to : kWidths) {
        for (const int from : kWidths) {
            TruthTable dst = random_table(to, rng);
            const TruthTable src = random_table(from, rng);
            const TruthTable saved = src;
            dst = src;
            EXPECT_EQ(dst.num_vars(), from) << to << "<-" << from;
            EXPECT_EQ(dst, src) << to << "<-" << from;
            EXPECT_EQ(dst.hash(), src.hash()) << to << "<-" << from;
            flip(&dst, 5);
            EXPECT_NE(dst, src) << to << "<-" << from;
            EXPECT_EQ(src, saved) << to << "<-" << from;
        }
    }
}

TEST(TruthTableStorage, MoveAssignmentEveryDirection) {
    util::Rng rng(34);
    for (const int to : kWidths) {
        for (const int from : kWidths) {
            TruthTable dst = random_table(to, rng);
            TruthTable src = random_table(from, rng);
            const TruthTable saved = src;
            dst = std::move(src);
            EXPECT_EQ(dst, saved) << to << "<-" << from;
            // Reuse the moved-from table at the other width.
            const TruthTable fresh = random_table(to, rng);
            src = fresh;
            EXPECT_EQ(src, fresh) << to << "<-" << from;
            src = std::move(dst);
            EXPECT_EQ(src, saved) << to << "<-" << from;
        }
    }
}

TEST(TruthTableStorage, SelfAssignmentKeepsContents) {
    util::Rng rng(35);
    for (const int n : kWidths) {
        TruthTable t = random_table(n, rng);
        const TruthTable saved = t;
        TruthTable& alias = t;
        t = alias;
        EXPECT_EQ(t, saved) << n;
        t = std::move(alias);
        EXPECT_EQ(t, saved) << n;
    }
}

TEST(TruthTableStorage, MovedFromTableIsReusable) {
    util::Rng rng(36);
    for (const int n : kWidths) {
        TruthTable t = random_table(n, rng);
        TruthTable sink(std::move(t));
        // Every operation works on the moved-from table ...
        EXPECT_EQ(t, t);
        EXPECT_EQ(t.num_bits(), 1u << t.num_vars());
        TruthTable inverted = ~t;
        EXPECT_EQ(inverted.count_ones() + t.count_ones(), static_cast<int>(t.num_bits()));
        // ... and it takes any width afterwards.
        for (const int m : kWidths) {
            const TruthTable fresh = random_table(m, rng);
            t = fresh;
            EXPECT_EQ(t, fresh) << n << "->" << m;
            t &= fresh;
            EXPECT_EQ(t, fresh) << n << "->" << m;
            sink = std::move(t);
            EXPECT_EQ(sink, fresh) << n << "->" << m;
        }
    }
}

TEST(TruthTableStorage, EqualityAndHashAcrossWidths) {
    for (const int a : kWidths) {
        for (const int b : kWidths) {
            // Constant tables agree bit for bit on their common minterms, so
            // only the width tells them apart.
            EXPECT_EQ(TruthTable::zeros(a) == TruthTable::zeros(b), a == b) << a << " " << b;
            EXPECT_EQ(TruthTable::ones(a) == TruthTable::ones(b), a == b) << a << " " << b;
            if (a != b) {
                EXPECT_NE(TruthTable::zeros(a).hash(), TruthTable::zeros(b).hash())
                    << a << " " << b;
            }
        }
        // Equal tables reached by different paths hash alike.
        if (a > 0) {
            const TruthTable x = TruthTable::var(a - 1, a);
            const TruthTable y = ~~x;
            TruthTable z(a);
            z |= x;
            EXPECT_EQ(x, y) << a;
            EXPECT_EQ(x, z) << a;
            EXPECT_EQ(x.hash(), y.hash()) << a;
            EXPECT_EQ(x.hash(), z.hash()) << a;
        }
    }
}

TEST(TruthTableStorage, UnusedHighBitsStayZeroBelowSixVariables) {
    util::Rng rng(37);
    for (int n = 0; n < 6; ++n) {
        const std::uint64_t used = (1ull << (1 << n)) - 1;
        EXPECT_EQ(TruthTable::ones(n).as_u64(), used) << n;
        EXPECT_EQ((~TruthTable::zeros(n)).as_u64(), used) << n;
        EXPECT_EQ(TruthTable::from_u64(n, ~0ull).as_u64(), used) << n;
        EXPECT_TRUE(TruthTable::from_u64(n, ~0ull).is_ones()) << n;
        for (int v = 0; v < n; ++v) {
            EXPECT_EQ(TruthTable::var(v, n).as_u64() & ~used, 0u) << n << " " << v;
            const TruthTable f = TruthTable::from_u64(n, rng.next_u64());
            EXPECT_EQ(f.cofactor(v, true).as_u64() & ~used, 0u) << n << " " << v;
            EXPECT_EQ(f.cofactor(v, false).as_u64() & ~used, 0u) << n << " " << v;
        }
        // Narrowing through assignment leaves no bits of the wider table.
        for (const int wide : {6, 7, 10}) {
            TruthTable t = TruthTable::ones(wide);
            t = TruthTable::ones(n);
            EXPECT_EQ(t.as_u64(), used) << wide << "->" << n;
            TruthTable u = TruthTable::ones(wide);
            u = TruthTable::zeros(n);
            EXPECT_TRUE(u.is_zero()) << wide << "->" << n;
            EXPECT_EQ(u, TruthTable::zeros(n)) << wide << "->" << n;
        }
    }
}

TEST(TruthTableStorage, InPlaceQueriesMatchCofactorDefinitions) {
    util::Rng rng(38);
    for (const int n : kWidths) {
        for (int trial = 0; trial < 4; ++trial) {
            TruthTable f = random_table(n, rng);
            if (trial == 1) f = TruthTable::ones(n);
            if (trial == 2 && n > 0) f = TruthTable::var(n - 1, n);
            EXPECT_EQ(f.is_ones(), f == ~TruthTable::zeros(n)) << n;
            for (int v = 0; v < n; ++v) {
                EXPECT_EQ(f.depends_on(v), f.cofactor(v, false) != f.cofactor(v, true))
                    << n << " var " << v;
            }
        }
    }
}

}  // namespace
}  // namespace mvf::logic
