// Tests for the AIG manager, simulation, and cut enumeration.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "flow/merged_spec.hpp"
#include "net/aig.hpp"
#include "net/aig_sim.hpp"
#include "net/cuts.hpp"
#include "sbox/sbox_data.hpp"
#include "util/rng.hpp"

namespace mvf::net {
namespace {

using logic::TruthTable;

TEST(Aig, ConstantFolding) {
    Aig aig(2);
    const Lit a = aig.pi(0);
    const Lit b = aig.pi(1);
    EXPECT_EQ(aig.and2(Aig::kConst0, a), Aig::kConst0);
    EXPECT_EQ(aig.and2(a, Aig::kConst0), Aig::kConst0);
    EXPECT_EQ(aig.and2(Aig::kConst1, b), b);
    EXPECT_EQ(aig.and2(a, a), a);
    EXPECT_EQ(aig.and2(a, Aig::lit_not(a)), Aig::kConst0);
    EXPECT_EQ(aig.num_ands(), 0);
}

TEST(Aig, StructuralHashingSharesNodes) {
    Aig aig(2);
    const Lit a = aig.pi(0);
    const Lit b = aig.pi(1);
    const Lit x = aig.and2(a, b);
    const Lit y = aig.and2(b, a);  // commuted
    EXPECT_EQ(x, y);
    EXPECT_EQ(aig.num_ands(), 1);
    const Lit z = aig.and2(Aig::lit_not(a), b);
    EXPECT_NE(x, z);
    EXPECT_EQ(aig.num_ands(), 2);
}

TEST(Aig, LookupAndDoesNotCreate) {
    Aig aig(2);
    const Lit a = aig.pi(0);
    const Lit b = aig.pi(1);
    EXPECT_EQ(aig.lookup_and(a, b), Aig::kNoLit);
    const Lit x = aig.and2(a, b);
    EXPECT_EQ(aig.lookup_and(a, b), x);
    EXPECT_EQ(aig.lookup_and(b, a), x);
    EXPECT_EQ(aig.num_ands(), 1);
}

TEST(Aig, XorMuxSemantics) {
    Aig aig(3);
    const Lit a = aig.pi(0);
    const Lit b = aig.pi(1);
    const Lit s = aig.pi(2);
    aig.add_po(aig.xor2(a, b));
    aig.add_po(aig.mux(s, a, b));
    const auto tts = simulate_full(aig);
    EXPECT_EQ(tts[0], TruthTable::var(0, 3) ^ TruthTable::var(1, 3));
    const TruthTable sel = TruthTable::var(2, 3);
    EXPECT_EQ(tts[1], (sel & TruthTable::var(0, 3)) | (~sel & TruthTable::var(1, 3)));
}

TEST(Aig, AndOrManyOverEmptyAndSingle) {
    Aig aig(1);
    EXPECT_EQ(aig.and_many({}), Aig::kConst1);
    EXPECT_EQ(aig.or_many({}), Aig::kConst0);
    const std::vector<Lit> one{aig.pi(0)};
    EXPECT_EQ(aig.and_many(one), aig.pi(0));
}

TEST(Aig, ReferenceCountsIncludePos) {
    Aig aig(2);
    const Lit x = aig.and2(aig.pi(0), aig.pi(1));
    aig.add_po(x);
    aig.add_po(x);
    const auto refs = aig.reference_counts();
    EXPECT_EQ(refs[static_cast<std::size_t>(Aig::lit_node(x))], 2);
    EXPECT_EQ(refs[1], 1);  // pi0 feeds one AND
}

TEST(Aig, LevelsAreDepths) {
    Aig aig(3);
    const Lit x = aig.and2(aig.pi(0), aig.pi(1));
    const Lit y = aig.and2(x, aig.pi(2));
    const auto lv = aig.levels();
    EXPECT_EQ(lv[static_cast<std::size_t>(Aig::lit_node(x))], 1);
    EXPECT_EQ(lv[static_cast<std::size_t>(Aig::lit_node(y))], 2);
}

TEST(Aig, CleanupDropsDeadNodes) {
    Aig aig(3);
    const Lit x = aig.and2(aig.pi(0), aig.pi(1));
    aig.and2(aig.pi(1), aig.pi(2));  // dead
    aig.add_po(Aig::lit_not(x));
    EXPECT_EQ(aig.num_ands(), 2);
    EXPECT_EQ(aig.count_live_ands(), 1);
    const Aig clean = aig.cleanup();
    EXPECT_EQ(clean.num_ands(), 1);
    const auto before = simulate_full(aig);
    const auto after = simulate_full(clean);
    EXPECT_EQ(before[0], after[0]);
}

// Random AIG generator shared by several test files via this pattern.
Aig random_aig(int num_pis, int num_nodes, util::Rng& rng, int num_pos = 2) {
    Aig aig(num_pis);
    std::vector<Lit> pool;
    for (int i = 0; i < num_pis; ++i) pool.push_back(aig.pi(i));
    for (int i = 0; i < num_nodes; ++i) {
        const Lit a = pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
        const Lit b = pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
        const Lit an = rng.coin(0.5) ? Aig::lit_not(a) : a;
        const Lit bn = rng.coin(0.5) ? Aig::lit_not(b) : b;
        pool.push_back(aig.and2(an, bn));
    }
    for (int i = 0; i < num_pos; ++i) {
        const Lit po = pool[pool.size() - 1 - static_cast<std::size_t>(i) % pool.size()];
        aig.add_po(rng.coin(0.5) ? Aig::lit_not(po) : po);
    }
    return aig;
}

TEST(Aig, CleanupPreservesFunctionOnRandomGraphs) {
    util::Rng rng(3);
    for (int t = 0; t < 20; ++t) {
        const Aig aig = random_aig(5, 40, rng);
        const Aig clean = aig.cleanup();
        EXPECT_EQ(simulate_full(aig), simulate_full(clean));
        EXPECT_LE(clean.num_ands(), aig.num_ands());
    }
}

TEST(AigSim, EvaluateConeMatchesProjection) {
    util::Rng rng(5);
    for (int t = 0; t < 20; ++t) {
        Aig aig = random_aig(4, 25, rng, 1);
        const Lit po = aig.po(0);
        if (!aig.is_and(Aig::lit_node(po))) continue;
        std::vector<int> leaves;
        for (int i = 0; i < 4; ++i) leaves.push_back(i + 1);  // all PIs
        const TruthTable cone = evaluate_cone(aig, po, leaves);
        EXPECT_EQ(cone, simulate_full(aig)[0]);
    }
}

TEST(AigSim, SimulateComposesPiFunctions) {
    Aig aig(2);
    aig.add_po(aig.and2(aig.pi(0), aig.pi(1)));
    // Bind PI0 = x0^x1, PI1 = x2 in a 3-var space.
    std::vector<TruthTable> pis{TruthTable::var(0, 3) ^ TruthTable::var(1, 3),
                                TruthTable::var(2, 3)};
    const auto out = simulate(aig, pis);
    EXPECT_EQ(out[0], (TruthTable::var(0, 3) ^ TruthTable::var(1, 3)) &
                          TruthTable::var(2, 3));
}

TEST(Cuts, TrivialAndBaseCutsExist) {
    Aig aig(2);
    const Lit x = aig.and2(aig.pi(0), aig.pi(1));
    aig.add_po(x);
    const CutSet cuts(aig, CutParams{});
    const auto& node_cuts = cuts.cuts_of(Aig::lit_node(x));
    ASSERT_GE(node_cuts.size(), 2u);
    bool has_base = false;
    bool has_trivial = false;
    for (const Cut& c : node_cuts) {
        if (std::ranges::equal(c.leaves(), std::vector<int>{1, 2})) has_base = true;
        if (std::ranges::equal(c.leaves(), std::vector<int>{Aig::lit_node(x)})) {
            has_trivial = true;
        }
    }
    EXPECT_TRUE(has_base);
    EXPECT_TRUE(has_trivial);
}

TEST(Cuts, CutFunctionsMatchConeEvaluation) {
    util::Rng rng(9);
    for (int t = 0; t < 15; ++t) {
        const Aig aig = random_aig(5, 30, rng, 1);
        const CutSet cuts(aig, CutParams{4, 8, true});
        for (int n = aig.num_pis() + 1; n < aig.num_nodes(); ++n) {
            for (const Cut& c : cuts.cuts_of(n)) {
                if (c.size() == 1 && c.leaves()[0] == n) continue;  // trivial
                const TruthTable cone =
                    evaluate_cone(aig, Aig::make_lit(n, false), c.leaves());
                // Compare against the 16-bit cut function restricted to the
                // cut arity.
                for (std::uint32_t m = 0; m < cone.num_bits(); ++m) {
                    EXPECT_EQ(cone.bit(m), ((c.function >> m) & 1) != 0)
                        << "node " << n << " cut size " << c.size();
                }
            }
        }
    }
}

TEST(Cuts, RespectsLeafLimit) {
    util::Rng rng(11);
    const Aig aig = random_aig(8, 60, rng, 1);
    const CutParams params{3, 6, true};
    const CutSet cuts(aig, params);
    for (int n = 0; n < aig.num_nodes(); ++n) {
        for (const Cut& c : cuts.cuts_of(n)) {
            EXPECT_LE(c.size(), 3);
        }
    }
}

TEST(Cuts, RejectsMaxLeavesOutsideOneToFour) {
    util::Rng rng(3);
    const Aig aig = random_aig(5, 20, rng, 1);
    for (const int k : {-1, 0, 5, 16}) {
        EXPECT_THROW(CutSet(aig, CutParams{k, 8, true}), std::invalid_argument) << k;
    }
    for (const int k : {1, 2, 3, 4}) {
        EXPECT_NO_THROW(CutSet(aig, CutParams{k, 8, true})) << k;
    }
}

TEST(Cuts, RejectsMaxCutsPerNodeOutsideSlotRange) {
    util::Rng rng(4);
    const Aig aig = random_aig(5, 20, rng, 1);
    for (const int m : {-3, 0, CutSet::kMaxCutsPerNode + 1, 1 << 20}) {
        EXPECT_THROW(CutSet(aig, CutParams{4, m, true}), std::invalid_argument) << m;
        EXPECT_THROW(CutSet(aig, CutParams{4, m, false}), std::invalid_argument) << m;
    }
    for (const int m : {1, CutSet::kMaxCutsPerNode}) {
        EXPECT_NO_THROW(CutSet(aig, CutParams{4, m, true})) << m;
    }
}

// The vector-per-cut enumerator the flat CutSet replaced, kept as the
// reference: same merge order, dominance filter, stable size sort and
// truncation.
struct ReferenceCut {
    std::vector<int> leaves;
    std::uint16_t function = 0;
};

std::uint16_t reference_expand_tt(std::uint16_t tt, const std::vector<int>& from,
                                  const std::vector<int>& to) {
    std::uint16_t out = 0;
    int pos[4];
    for (std::size_t i = 0; i < from.size(); ++i) {
        pos[i] = static_cast<int>(std::lower_bound(to.begin(), to.end(), from[i]) -
                                  to.begin());
    }
    for (std::uint32_t m = 0; m < 16; ++m) {
        std::uint32_t src = 0;
        for (std::size_t i = 0; i < from.size(); ++i) {
            if ((m >> pos[i]) & 1) src |= 1u << i;
        }
        if ((tt >> src) & 1) out |= static_cast<std::uint16_t>(1u << m);
    }
    return out;
}

bool reference_merge(const std::vector<int>& a, const std::vector<int>& b,
                     int max_leaves, std::vector<int>* out) {
    out->clear();
    std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(*out));
    return static_cast<int>(out->size()) <= max_leaves;
}

bool reference_subset(const std::vector<int>& small, const std::vector<int>& big) {
    return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

std::vector<std::vector<ReferenceCut>> reference_cuts(const Aig& aig,
                                                      const CutParams& params) {
    std::vector<std::vector<ReferenceCut>> cuts(static_cast<std::size_t>(aig.num_nodes()));
    cuts[0].push_back(ReferenceCut{{}, 0});
    for (int i = 0; i < aig.num_pis(); ++i) {
        cuts[static_cast<std::size_t>(i + 1)].push_back(ReferenceCut{{i + 1}, 0xaaaa});
    }
    std::vector<int> merged;
    for (int n = aig.num_pis() + 1; n < aig.num_nodes(); ++n) {
        auto& node_cuts = cuts[static_cast<std::size_t>(n)];
        const Lit f0 = aig.fanin0(n);
        const Lit f1 = aig.fanin1(n);
        for (const ReferenceCut& c0 : cuts[static_cast<std::size_t>(Aig::lit_node(f0))]) {
            for (const ReferenceCut& c1 : cuts[static_cast<std::size_t>(Aig::lit_node(f1))]) {
                if (!reference_merge(c0.leaves, c1.leaves, params.max_leaves, &merged)) continue;
                std::uint16_t t0 = reference_expand_tt(c0.function, c0.leaves, merged);
                std::uint16_t t1 = reference_expand_tt(c1.function, c1.leaves, merged);
                if (Aig::lit_complemented(f0)) t0 = static_cast<std::uint16_t>(~t0);
                if (Aig::lit_complemented(f1)) t1 = static_cast<std::uint16_t>(~t1);
                const ReferenceCut candidate{merged, static_cast<std::uint16_t>(t0 & t1)};
                bool dominated = false;
                for (const ReferenceCut& c : node_cuts) {
                    if (reference_subset(c.leaves, candidate.leaves)) dominated = true;
                }
                if (dominated) continue;
                std::erase_if(node_cuts, [&candidate](const ReferenceCut& c) {
                    return reference_subset(candidate.leaves, c.leaves);
                });
                node_cuts.push_back(candidate);
            }
        }
        std::stable_sort(node_cuts.begin(), node_cuts.end(),
                         [](const ReferenceCut& a, const ReferenceCut& b) {
                             return a.leaves.size() < b.leaves.size();
                         });
        if (static_cast<int>(node_cuts.size()) > params.max_cuts_per_node) {
            node_cuts.resize(static_cast<std::size_t>(params.max_cuts_per_node));
        }
        if (params.include_trivial) node_cuts.push_back(ReferenceCut{{n}, 0xaaaa});
    }
    return cuts;
}

// Every node's cut list equals the reference element by element.
void expect_cuts_match_reference(const Aig& aig, const std::string& what) {
    const CutParams params_list[] = {{4, 8, true}, {4, 8, false}, {4, 1, true},
                                     {4, 1, false}, {3, 5, true}, {3, 5, false},
                                     {2, 3, true},  {2, 3, false}};
    for (const CutParams& params : params_list) {
        const CutSet cuts(aig, params);
        const auto want = reference_cuts(aig, params);
        const std::string label = what + " K=" + std::to_string(params.max_leaves) +
                                  " C=" + std::to_string(params.max_cuts_per_node) +
                                  (params.include_trivial ? " trivial" : "");
        for (int n = 0; n < aig.num_nodes(); ++n) {
            const std::span<const Cut> got = cuts.cuts_of(n);
            const auto& ref = want[static_cast<std::size_t>(n)];
            ASSERT_EQ(got.size(), ref.size()) << label << " node " << n;
            for (std::size_t i = 0; i < got.size(); ++i) {
                ASSERT_TRUE(std::ranges::equal(got[i].leaves(), ref[i].leaves))
                    << label << " node " << n << " cut " << i;
                ASSERT_EQ(got[i].function, ref[i].function)
                    << label << " node " << n << " cut " << i;
            }
        }
    }
}

TEST(Cuts, FlatStoreMatchesReferenceOnRandomGraphs) {
    util::Rng rng(21);
    for (int t = 0; t < 12; ++t) {
        const Aig aig = random_aig(4 + t % 5, 30 + 10 * t, rng, 1 + t % 3);
        expect_cuts_match_reference(aig, "random " + std::to_string(t));
    }
}

TEST(Cuts, FlatStoreMatchesReferenceOnMergedSboxes) {
    struct Merge {
        const char* family;
        int n;
    };
    for (const Merge& m : {Merge{"present", 2}, Merge{"present", 3}, Merge{"present", 8},
                           Merge{"des", 2}, Merge{"des", 4}}) {
        const auto fns = flow::from_sboxes(std::string(m.family) == "present"
                                               ? sbox::present_viable_set(m.n)
                                               : sbox::des_viable_set(m.n));
        const int inputs = fns.front().num_inputs;
        const int outputs = fns.front().num_outputs;
        util::Rng rng(static_cast<std::uint64_t>(100 + m.n));
        const ga::PinAssignment assignments[] = {
            ga::PinAssignment::identity(m.n, inputs, outputs),
            ga::PinAssignment::random(m.n, inputs, outputs, rng),
            ga::PinAssignment::random(m.n, inputs, outputs, rng),
        };
        for (std::size_t a = 0; a < std::size(assignments); ++a) {
            const Aig aig = flow::MergedSpec(fns, assignments[a]).build_aig();
            expect_cuts_match_reference(aig, std::string(m.family) + ":" +
                                                 std::to_string(m.n) + " pins " +
                                                 std::to_string(a));
        }
    }
}

}  // namespace
}  // namespace mvf::net
