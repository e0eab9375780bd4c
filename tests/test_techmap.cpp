// Tests for the gate library and the structural technology mapper.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>

#include "map/tech_map.hpp"
#include "net/aig_sim.hpp"
#include "util/stats.hpp"
#include "sbox/sbox_data.hpp"
#include "sim/netlist_sim.hpp"
#include "synth/aig_build.hpp"
#include "util/rng.hpp"

namespace mvf::tech {
namespace {

using logic::TruthTable;
using net::Aig;
using net::Lit;

TEST(GateLibrary, StandardContentsAndAreas) {
    const GateLibrary lib = GateLibrary::standard();
    EXPECT_EQ(lib.num_cells(), 14);
    EXPECT_DOUBLE_EQ(lib.cell(lib.find("NAND2")).area, 1.00);
    EXPECT_DOUBLE_EQ(lib.inv_area(), 0.67);
    EXPECT_EQ(lib.find("NAND5"), -1);
    // Functions: NAND3 is the complement of AND3.
    const GateCell& nand3 = lib.cell(lib.find("NAND3"));
    const GateCell& and3 = lib.cell(lib.find("AND3"));
    EXPECT_EQ(~nand3.function, and3.function);
    for (int i = 0; i < lib.num_cells(); ++i) {
        EXPECT_EQ(lib.cell(i).function.num_vars(), lib.cell(i).num_inputs);
        EXPECT_GT(lib.cell(i).area, 0.0);
    }
}

// The 16-bit cut function a match computes: cell pin p reads cut variable
// pin_leaf_pos[p], complemented if pin_neg[p].
std::uint16_t realized_tt(const GateCell& cell, const CellMatch& m) {
    std::uint16_t got = 0;
    for (std::uint32_t x = 0; x < 16; ++x) {
        std::uint32_t pins = 0;
        for (int p = 0; p < cell.num_inputs; ++p) {
            std::uint32_t bit = (x >> m.pin_leaf_pos[static_cast<std::size_t>(p)]) & 1;
            if (m.pin_neg[static_cast<std::size_t>(p)]) bit ^= 1;
            pins |= bit << p;
        }
        if (cell.function.bit(pins)) got |= static_cast<std::uint16_t>(1u << x);
    }
    return got;
}

// Brute-force per-function search, the reference for the precomputed table:
// every cell whose arity equals the size of the function's support, over
// every permutation of the support (lexicographic) and every negation mask.
// Permuting and negating inputs preserves the number of true minterms, so a
// cell whose on-set, scaled to four variables, differs in size from tt's is
// skipped without changing the result; this keeps the exhaustive sweep fast
// enough for the sanitizer builds.
std::vector<CellMatch> search_matches(const GateLibrary& lib, std::uint16_t tt) {
    std::vector<CellMatch> result;
    const std::vector<int> support = tt16_support(tt, 4);
    const int k = static_cast<int>(support.size());
    for (int cell_id = 0; cell_id < lib.num_cells(); ++cell_id) {
        const GateCell& cell = lib.cell(cell_id);
        if (cell.num_inputs != k || k == 0) continue;
        if (cell.function.count_ones() << (4 - k) != std::popcount(tt)) continue;
        std::vector<int> perm(support.begin(), support.end());
        do {
            for (std::uint32_t neg = 0; neg < (1u << k); ++neg) {
                CellMatch m;
                m.cell_id = cell_id;
                for (int p = 0; p < k; ++p) {
                    m.pin_leaf_pos[static_cast<std::size_t>(p)] =
                        static_cast<std::uint8_t>(perm[static_cast<std::size_t>(p)]);
                    m.pin_neg[static_cast<std::size_t>(p)] = (neg >> p) & 1;
                }
                if (realized_tt(cell, m) == tt) result.push_back(m);
            }
        } while (std::next_permutation(perm.begin(), perm.end()));
    }
    return result;
}

TEST(MatchCache, MatchesRealizeTheFunction) {
    MatchCache cache(GateLibrary::standard());
    util::Rng rng(3);
    for (int t = 0; t < 200; ++t) {
        const auto tt = static_cast<std::uint16_t>(rng.next_u64());
        for (const CellMatch& m : cache.matches(tt)) {
            EXPECT_EQ(realized_tt(cache.library().cell(m.cell_id), m), tt);
        }
    }
}

TEST(MatchCache, TableEqualsPerFunctionSearchForEveryFunction) {
    // Same matches in the same order: the mapper keeps the first strictly
    // cheaper match, so the order decides ties.
    const MatchCache& cache = MatchCache::standard();
    int mismatches = 0;
    int with_matches = 0;
    for (std::uint32_t f = 0; f < 0x10000; ++f) {
        const auto tt = static_cast<std::uint16_t>(f);
        const std::vector<CellMatch> want = search_matches(cache.library(), tt);
        const std::span<const CellMatch> got = cache.matches(tt);
        if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
            if (++mismatches <= 5) ADD_FAILURE() << "tt=" << tt;
        }
        if (!want.empty()) ++with_matches;
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(with_matches, 152);
}

TEST(MatchCache, CustomLibraryTableEqualsPerFunctionSearch) {
    // A cell that ignores one of its pins is never filed under the narrower
    // function it computes; XOR2 exercises a match set closed under negation.
    GateLibrary lib = GateLibrary::standard();
    lib.add_cell({"XOR2", 2, 2.33,
                  TruthTable::var(0, 2) ^ TruthTable::var(1, 2)});
    lib.add_cell({"PASS3", 3, 1.5,
                  TruthTable::var(0, 3) & TruthTable::var(1, 3)});
    const MatchCache cache(lib);
    for (std::uint32_t f = 0; f < 0x10000; ++f) {
        const auto tt = static_cast<std::uint16_t>(f);
        const std::vector<CellMatch> want = search_matches(lib, tt);
        const std::span<const CellMatch> got = cache.matches(tt);
        EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
            << "tt=" << tt;
    }
}

TEST(MatchCache, SimpleFunctionsHaveExpectedMatches) {
    MatchCache cache(GateLibrary::standard());
    // x0 & x1 in the 4-var space.
    std::uint16_t and2 = 0;
    for (std::uint32_t m = 0; m < 16; ++m) {
        if ((m & 3) == 3) and2 |= static_cast<std::uint16_t>(1u << m);
    }
    bool found_and2 = false;
    bool found_nand_with_negs = false;
    for (const CellMatch& m : cache.matches(and2)) {
        const std::string& name = cache.library().cell(m.cell_id).name;
        if (name == "AND2") found_and2 = true;
        if (name == "NOR2") found_nand_with_negs = true;  // NOR(!a,!b) = a&b
    }
    EXPECT_TRUE(found_and2);
    EXPECT_TRUE(found_nand_with_negs);
    EXPECT_TRUE(cache.matches(0x0000).empty());  // constants: no cell
}

Aig sbox_aig(const sbox::Sbox& s) {
    Aig aig(s.num_inputs);
    std::vector<Lit> inputs;
    for (int i = 0; i < s.num_inputs; ++i) inputs.push_back(aig.pi(i));
    for (int j = 0; j < s.num_outputs; ++j) {
        aig.add_po(synth::build_from_tt(s.output_tt(j), inputs, &aig));
    }
    return aig;
}

TEST(TechMap, PreservesSboxFunctions) {
    MatchCache cache(GateLibrary::standard());
    for (int idx : {0, 3, 7, 15}) {
        const sbox::Sbox& s =
            sbox::leander_poschmann_16()[static_cast<std::size_t>(idx)];
        const Aig aig = sbox_aig(s);
        const Netlist nl = tech_map(aig, cache);
        EXPECT_TRUE(nl.validate());
        const auto aig_out = net::simulate_full(aig);
        const auto nl_out = sim::simulate_full(nl);
        ASSERT_EQ(aig_out.size(), nl_out.size());
        for (std::size_t q = 0; q < aig_out.size(); ++q) {
            EXPECT_EQ(aig_out[q], nl_out[q]) << s.name << " output " << q;
        }
    }
}

TEST(TechMap, PreservesRandomGraphFunctions) {
    MatchCache cache(GateLibrary::standard());
    util::Rng rng(7);
    for (int t = 0; t < 15; ++t) {
        Aig aig(5);
        std::vector<Lit> pool;
        for (int i = 0; i < 5; ++i) pool.push_back(aig.pi(i));
        for (int i = 0; i < 50; ++i) {
            const Lit a = pool[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
            const Lit b = pool[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
            pool.push_back(aig.and2(rng.coin(0.5) ? Aig::lit_not(a) : a,
                                    rng.coin(0.5) ? Aig::lit_not(b) : b));
        }
        aig.add_po(pool.back());
        aig.add_po(Aig::lit_not(pool[pool.size() - 2]));
        const Netlist nl = tech_map(aig, cache);
        EXPECT_EQ(net::simulate_full(aig), sim::simulate_full(nl)) << "trial " << t;
    }
}

TEST(TechMap, AreaIsPlausibleForSboxes) {
    // Leander-Poschmann S-boxes need "around 30 GE" per the paper.
    MatchCache cache(GateLibrary::standard());
    util::RunningStats stats;
    for (const auto& s : sbox::leander_poschmann_16()) {
        const Netlist nl = tech_map(sbox_aig(s), cache);
        stats.add(nl.area());
    }
    EXPECT_GT(stats.mean(), 15.0);
    EXPECT_LT(stats.mean(), 60.0);
}

TEST(TechMap, SelectFlagsPropagate) {
    Aig aig(3);
    aig.add_po(aig.mux(aig.pi(2), aig.pi(0), aig.pi(1)));
    MatchCache cache(GateLibrary::standard());
    const Netlist nl = tech_map(aig, cache, {}, {"a", "b", "s"},
                                {false, false, true});
    EXPECT_EQ(nl.num_pis(), 3);
    EXPECT_EQ(nl.num_selects(), 1);
    EXPECT_EQ(nl.node(nl.pi(2)).name, "s");
    EXPECT_TRUE(nl.node(nl.pi(2)).is_select);
}

TEST(TechMap, ConstantOutputBecomesConstNode) {
    Aig aig(2);
    aig.add_po(Aig::kConst1);
    aig.add_po(Aig::kConst0);
    MatchCache cache(GateLibrary::standard());
    const Netlist nl = tech_map(aig, cache);
    EXPECT_EQ(nl.node(nl.po(0)).kind, Netlist::NodeKind::kConst1);
    EXPECT_EQ(nl.node(nl.po(1)).kind, Netlist::NodeKind::kConst0);
}

TEST(TechMap, PiPassThroughOutput) {
    Aig aig(2);
    aig.add_po(aig.pi(1));
    aig.add_po(Aig::lit_not(aig.pi(0)));
    MatchCache cache(GateLibrary::standard());
    const Netlist nl = tech_map(aig, cache);
    const auto out = sim::simulate_full(nl);
    EXPECT_EQ(out[0], TruthTable::var(1, 2));
    EXPECT_EQ(out[1], ~TruthTable::var(0, 2));
}

TEST(TechMap, RejectsUnrepresentableCutParams) {
    // Cut functions are 16-bit tables: a 5-leaf cut cannot be represented.
    Aig aig(3);
    aig.add_po(aig.and2(aig.and2(aig.pi(0), aig.pi(1)), aig.pi(2)));
    TechMapParams params;
    params.cuts.max_leaves = 5;
    EXPECT_THROW(tech_map(aig, MatchCache::standard(), params), std::invalid_argument);
    params.cuts.max_leaves = 4;
    params.cuts.max_cuts_per_node = net::CutSet::kMaxCutsPerNode + 1;
    EXPECT_THROW(tech_map(aig, MatchCache::standard(), params), std::invalid_argument);
}

TEST(Netlist, FanoutAndAreaAccounting) {
    GateLibrary lib = GateLibrary::standard();
    Netlist nl(lib);
    const int a = nl.add_pi("a");
    const int b = nl.add_pi("b");
    const int g = nl.add_cell(lib.find("NAND2"), {a, b});
    const int h = nl.add_cell(lib.find("INV"), {g});
    nl.add_po(h, "o");
    nl.add_po(g, "o2");
    EXPECT_TRUE(nl.validate());
    EXPECT_DOUBLE_EQ(nl.area(), 1.67);
    EXPECT_EQ(nl.num_cells(), 2);
    const auto fan = nl.fanout_counts();
    EXPECT_EQ(fan[static_cast<std::size_t>(g)], 2);  // INV + PO
    EXPECT_EQ(fan[static_cast<std::size_t>(h)], 1);
}

TEST(Netlist, Tt16SupportHelper) {
    EXPECT_TRUE(tt16_support(0x0000, 4).empty());
    EXPECT_TRUE(tt16_support(0xffff, 4).empty());
    EXPECT_EQ(tt16_support(0xaaaa, 4), (std::vector<int>{0}));
    EXPECT_EQ(tt16_support(0xff00, 4), (std::vector<int>{3}));
    std::uint16_t and01 = 0;
    for (std::uint32_t m = 0; m < 16; ++m) {
        if ((m & 3) == 3) and01 |= static_cast<std::uint16_t>(1u << m);
    }
    EXPECT_EQ(tt16_support(and01, 4), (std::vector<int>{0, 1}));
}

}  // namespace
}  // namespace mvf::tech
