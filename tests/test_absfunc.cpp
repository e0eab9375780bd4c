// Tests for subtree enumeration and the ABSFUNC select abstraction.

#include <gtest/gtest.h>

#include <algorithm>

#include "camo/absfunc.hpp"
#include "map/gate_library.hpp"

namespace mvf::camo {
namespace {

using logic::TruthTable;
using tech::GateLibrary;
using tech::Netlist;

// Builds the canonical Phase-III test subject: a 2:1 mux out = s? a : b
// decomposed into gates  n1 = AND(a, s), n2 = INV(s), n3 = AND(b, n2),
// out = OR(n1, n3); s is a select input.
struct MuxNetlist {
    Netlist nl;
    int a, b, s, n_and1, n_inv, n_and2, n_or;

    MuxNetlist() : nl(GateLibrary::standard()) {
        const GateLibrary& lib = nl.library();
        a = nl.add_pi("a");
        b = nl.add_pi("b");
        s = nl.add_pi("s", /*is_select=*/true);
        n_and1 = nl.add_cell(lib.find("AND2"), {a, s});
        n_inv = nl.add_cell(lib.find("INV"), {s});
        n_and2 = nl.add_cell(lib.find("AND2"), {b, n_inv});
        n_or = nl.add_cell(lib.find("OR2"), {n_and1, n_and2});
        nl.add_po(n_or, "out");
    }
};

TEST(Compose, EvaluatesCellOverPinFunctions) {
    const GateLibrary lib = GateLibrary::standard();
    const TruthTable x = TruthTable::var(0, 3);
    const TruthTable y = TruthTable::var(1, 3);
    const TruthTable z = TruthTable::var(2, 3);
    const TruthTable nand2 =
        compose(lib.cell(lib.find("NAND2")).function, {x & y, z});
    EXPECT_EQ(nand2, ~((x & y) & z));
    const TruthTable inv = compose(lib.cell(lib.find("INV")).function, {x ^ y});
    EXPECT_EQ(inv, ~(x ^ y));
}

TEST(Subtree, Depth1LeavesAreFanins) {
    MuxNetlist m;
    const auto fanouts = m.nl.fanout_counts();
    SubtreeParams params;
    params.max_depth = 1;
    const auto subtrees = enumerate_subtrees(m.nl, m.n_or, fanouts, params);
    ASSERT_EQ(subtrees.size(), 1u);
    EXPECT_EQ(subtrees[0].internal, (std::vector<int>{m.n_or}));
    EXPECT_EQ(subtrees[0].signal_leaves,
              (std::vector<int>{m.n_and1, m.n_and2}));
    EXPECT_TRUE(subtrees[0].select_leaves.empty());
}

TEST(Subtree, DeeperEnumerationReachesSelects) {
    MuxNetlist m;
    const auto fanouts = m.nl.fanout_counts();
    SubtreeParams params;
    params.max_depth = 3;
    const auto subtrees = enumerate_subtrees(m.nl, m.n_or, fanouts, params);
    EXPECT_GT(subtrees.size(), 1u);
    // The full-mux subtree must be among the candidates: internal nodes all
    // four gates, signal leaves {a, b}, select leaves {s}.
    const auto full = std::find_if(
        subtrees.begin(), subtrees.end(), [&](const Subtree& t) {
            return t.internal.size() == 4 &&
                   t.signal_leaves == std::vector<int>{m.a, m.b} &&
                   t.select_leaves == std::vector<int>{m.s};
        });
    ASSERT_NE(full, subtrees.end());
}

TEST(Subtree, NeverExpandsMultiFanoutNodes) {
    // Make n_and1 multi-fanout by adding a second consumer.
    MuxNetlist m;
    // (rebuild with an extra consumer)
    Netlist nl(GateLibrary::standard());
    const GateLibrary& lib = nl.library();
    const int a = nl.add_pi("a");
    const int b = nl.add_pi("b");
    const int x = nl.add_cell(lib.find("AND2"), {a, b});
    const int y = nl.add_cell(lib.find("INV"), {x});
    const int z = nl.add_cell(lib.find("OR2"), {x, y});
    nl.add_po(z, "o");
    const auto fanouts = nl.fanout_counts();
    SubtreeParams params;
    params.max_depth = 3;
    for (const Subtree& t : enumerate_subtrees(nl, z, fanouts, params)) {
        // x has fanout 2 -> can only ever appear as a leaf.
        EXPECT_EQ(std::find(t.internal.begin(), t.internal.end(), x),
                  t.internal.end());
    }
}

TEST(Subtree, RespectsSignalLeafBudget) {
    Netlist nl(GateLibrary::standard());
    const GateLibrary& lib = nl.library();
    std::vector<int> pis;
    for (int i = 0; i < 8; ++i) pis.push_back(nl.add_pi('i' + std::to_string(i)));
    const int g1 = nl.add_cell(lib.find("AND4"), {pis[0], pis[1], pis[2], pis[3]});
    const int g2 = nl.add_cell(lib.find("AND4"), {pis[4], pis[5], pis[6], pis[7]});
    const int g3 = nl.add_cell(lib.find("AND2"), {g1, g2});
    nl.add_po(g3, "o");
    const auto fanouts = nl.fanout_counts();
    SubtreeParams params;
    params.max_depth = 3;
    params.max_signal_leaves = 4;
    for (const Subtree& t : enumerate_subtrees(nl, g3, fanouts, params)) {
        EXPECT_LE(static_cast<int>(t.signal_leaves.size()), 4);
    }
}

TEST(AbsFunc, MuxAbstractsToBothDataInputs) {
    MuxNetlist m;
    const auto fanouts = m.nl.fanout_counts();
    SubtreeParams params;
    params.max_depth = 3;
    const auto subtrees = enumerate_subtrees(m.nl, m.n_or, fanouts, params);
    const auto full = std::find_if(
        subtrees.begin(), subtrees.end(),
        [&](const Subtree& t) { return t.internal.size() == 4; });
    ASSERT_NE(full, subtrees.end());

    const TruthTable f = subtree_function(m.nl, *full);
    // Variables: 0 = a, 1 = b, 2 = s; f = s? a : b.
    const TruthTable expected =
        (TruthTable::var(2, 3) & TruthTable::var(0, 3)) |
        (~TruthTable::var(2, 3) & TruthTable::var(1, 3));
    EXPECT_EQ(f, expected);

    const auto fns = abs_func(*full, f);
    // ABSFUNC({mux}) = { a, b } over the two signal leaves.
    ASSERT_EQ(fns.size(), 2u);
    EXPECT_NE(std::find(fns.begin(), fns.end(), TruthTable::var(0, 2)), fns.end());
    EXPECT_NE(std::find(fns.begin(), fns.end(), TruthTable::var(1, 2)), fns.end());
}

TEST(AbsFunc, NoSelectsYieldsSingleton) {
    MuxNetlist m;
    const auto fanouts = m.nl.fanout_counts();
    SubtreeParams params;
    params.max_depth = 1;
    const auto subtrees = enumerate_subtrees(m.nl, m.n_and1, fanouts, params);
    // n_and1 = AND(a, s): the select is a direct fanin.
    ASSERT_EQ(subtrees.size(), 1u);
    const Subtree& t = subtrees[0];
    EXPECT_EQ(t.select_leaves, std::vector<int>{m.s});
    const TruthTable f = subtree_function(m.nl, t);
    const auto fns = abs_func(t, f);
    // {a & 1, a & 0} = {a, 0}.
    ASSERT_EQ(fns.size(), 2u);
    EXPECT_NE(std::find(fns.begin(), fns.end(), TruthTable::var(0, 1)), fns.end());
    EXPECT_NE(std::find(fns.begin(), fns.end(), TruthTable::zeros(1)), fns.end());
}

TEST(AbsFunc, SelectOnlyConeAbstractsToConstants) {
    Netlist nl(GateLibrary::standard());
    const GateLibrary& lib = nl.library();
    nl.add_pi("a");
    const int s0 = nl.add_pi("s0", true);
    const int s1 = nl.add_pi("s1", true);
    const int g = nl.add_cell(lib.find("NAND2"), {s0, s1});
    nl.add_po(g, "o");
    const auto fanouts = nl.fanout_counts();
    SubtreeParams params;
    const auto subtrees = enumerate_subtrees(nl, g, fanouts, params);
    ASSERT_FALSE(subtrees.empty());
    const Subtree& t = subtrees[0];
    EXPECT_TRUE(t.signal_leaves.empty());
    const auto fns = abs_func(t, subtree_function(nl, t));
    ASSERT_EQ(fns.size(), 2u);  // {0, 1} over zero variables
    for (const TruthTable& f : fns) EXPECT_EQ(f.num_vars(), 0);
}

TEST(AbsFunc, ConstantFaninsFoldIntoFunction) {
    Netlist nl(GateLibrary::standard());
    const GateLibrary& lib = nl.library();
    const int a = nl.add_pi("a");
    const int one = nl.add_const(true);
    const int g = nl.add_cell(lib.find("NAND2"), {a, one});
    nl.add_po(g, "o");
    const auto fanouts = nl.fanout_counts();
    const auto subtrees = enumerate_subtrees(nl, g, fanouts, SubtreeParams{});
    ASSERT_FALSE(subtrees.empty());
    const Subtree& t = subtrees[0];
    EXPECT_EQ(t.signal_leaves, std::vector<int>{a});
    EXPECT_EQ(subtree_function(nl, t), ~TruthTable::var(0, 1));
}

}  // namespace
}  // namespace mvf::camo
