// Equivalence and size properties of the synthesis passes.

#include <gtest/gtest.h>

#include <stdexcept>

#include "flow/merged_spec.hpp"
#include "map/tech_map.hpp"
#include "net/aig_sim.hpp"
#include "sbox/sbox_data.hpp"
#include "synth/aig_build.hpp"
#include "synth/balance.hpp"
#include "synth/optimize.hpp"
#include "synth/refactor.hpp"
#include "synth/replace.hpp"
#include "synth/rewrite.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace mvf::synth {
namespace {

using logic::TruthTable;
using net::Aig;
using net::Lit;

Aig random_aig(int num_pis, int num_nodes, util::Rng& rng, int num_pos = 2) {
    Aig aig(num_pis);
    std::vector<Lit> pool;
    for (int i = 0; i < num_pis; ++i) pool.push_back(aig.pi(i));
    for (int i = 0; i < num_nodes; ++i) {
        const Lit a = pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
        const Lit b = pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
        pool.push_back(aig.and2(rng.coin(0.5) ? Aig::lit_not(a) : a,
                                rng.coin(0.5) ? Aig::lit_not(b) : b));
    }
    for (int i = 0; i < num_pos; ++i) {
        const Lit po = pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
        aig.add_po(rng.coin(0.5) ? Aig::lit_not(po) : po);
    }
    return aig;
}

TEST(AigBuild, FromTruthTableIsExact) {
    util::Rng rng(2);
    for (int n = 1; n <= 8; ++n) {
        for (int t = 0; t < 10; ++t) {
            TruthTable f(n);
            for (std::uint32_t m = 0; m < f.num_bits(); ++m) {
                if (rng.coin(0.5)) f.set_bit(m, true);
            }
            Aig aig(n);
            std::vector<Lit> inputs;
            for (int i = 0; i < n; ++i) inputs.push_back(aig.pi(i));
            aig.add_po(build_from_tt(f, inputs, &aig));
            EXPECT_EQ(net::simulate_full(aig)[0], f) << "n=" << n;
        }
    }
}

TEST(AigBuild, MuxTreeSelectsCorrectInput) {
    Aig aig(6);  // 4 data + 2 selects
    std::vector<Lit> data{aig.pi(0), aig.pi(1), aig.pi(2), aig.pi(3)};
    std::vector<Lit> sel{aig.pi(4), aig.pi(5)};
    aig.add_po(build_mux_tree(sel, data, &aig));
    const TruthTable out = net::simulate_full(aig)[0];
    for (std::uint32_t m = 0; m < 64; ++m) {
        const int code = static_cast<int>((m >> 4) & 3);
        EXPECT_EQ(out.bit(m), ((m >> code) & 1) != 0);
    }
}

TEST(Balance, PreservesFunction) {
    util::Rng rng(3);
    for (int t = 0; t < 30; ++t) {
        const Aig aig = random_aig(6, 60, rng);
        const Aig balanced = balance(aig);
        EXPECT_EQ(net::simulate_full(aig), net::simulate_full(balanced));
    }
}

TEST(Balance, ReducesDepthOfChain) {
    // A long AND chain must become a log-depth tree.
    Aig aig(8);
    Lit acc = aig.pi(0);
    for (int i = 1; i < 8; ++i) acc = aig.and2(acc, aig.pi(i));
    aig.add_po(acc);
    const auto depth_of = [](const Aig& a) {
        int d = 0;
        const auto lv = a.levels();
        for (int i = 0; i < a.num_pos(); ++i) {
            d = std::max(d, lv[static_cast<std::size_t>(Aig::lit_node(a.po(i)))]);
        }
        return d;
    };
    EXPECT_EQ(depth_of(aig), 7);
    const Aig b = balance(aig);
    EXPECT_EQ(depth_of(b), 3);
    EXPECT_EQ(net::simulate_full(aig), net::simulate_full(b));
}

TEST(Replace, MffcOfPrivateConeIsWholeConeSize) {
    Aig aig(4);
    const Lit x = aig.and2(aig.pi(0), aig.pi(1));
    const Lit y = aig.and2(aig.pi(2), aig.pi(3));
    const Lit z = aig.and2(x, y);
    aig.add_po(z);
    GainEstimator estimator(aig);
    const std::vector<int> leaves{1, 2, 3, 4};
    EXPECT_EQ(estimator.mffc_size(Aig::lit_node(z), leaves), 3);
    // Reference counts restored.
    const std::vector<int> refs = aig.reference_counts();
    for (int n = 0; n < aig.num_nodes(); ++n) {
        EXPECT_EQ(estimator.refs(n), refs[static_cast<std::size_t>(n)]) << n;
    }
}

TEST(Replace, MffcStopsAtSharedNodes) {
    Aig aig(4);
    const Lit x = aig.and2(aig.pi(0), aig.pi(1));
    const Lit z = aig.and2(x, aig.pi(2));
    aig.add_po(z);
    aig.add_po(x);  // x shared with another output
    GainEstimator estimator(aig);
    const std::vector<int> leaves{1, 2, 3};
    EXPECT_EQ(estimator.mffc_size(Aig::lit_node(z), leaves), 1);
}

TEST(Rewrite, PreservesFunctionOnRandomGraphs) {
    util::Rng rng(5);
    SynthContext ctx;
    for (int t = 0; t < 20; ++t) {
        Aig aig = random_aig(6, 80, rng);
        const auto before = net::simulate_full(aig);
        rewrite(&aig, ctx.npn, ctx.rewrite_lib);
        EXPECT_EQ(before, net::simulate_full(aig)) << "trial " << t;
    }
}

TEST(Rewrite, NeverIncreasesSize) {
    util::Rng rng(7);
    SynthContext ctx;
    for (int t = 0; t < 20; ++t) {
        Aig aig = random_aig(6, 80, rng);
        const int before = aig.count_live_ands();
        rewrite(&aig, ctx.npn, ctx.rewrite_lib);
        EXPECT_LE(aig.count_live_ands(), before);
    }
}

TEST(Rewrite, CollapsesRedundantStructure) {
    // f = (a & b) & (a & (b & c)) == a & b & c: rewriting should shrink it.
    Aig aig(3);
    const Lit ab = aig.and2(aig.pi(0), aig.pi(1));
    const Lit bc = aig.and2(aig.pi(1), aig.pi(2));
    const Lit abc = aig.and2(aig.pi(0), bc);
    aig.add_po(aig.and2(ab, abc));
    SynthContext ctx;
    rewrite(&aig, ctx.npn, ctx.rewrite_lib);
    EXPECT_LE(aig.count_live_ands(), 2);
    const TruthTable want = TruthTable::var(0, 3) & TruthTable::var(1, 3) &
                            TruthTable::var(2, 3);
    EXPECT_EQ(net::simulate_full(aig)[0], want);
}

TEST(Refactor, PreservesFunctionOnRandomGraphs) {
    util::Rng rng(11);
    for (int t = 0; t < 20; ++t) {
        Aig aig = random_aig(8, 100, rng);
        const auto before = net::simulate_full(aig);
        refactor(&aig);
        EXPECT_EQ(before, net::simulate_full(aig)) << "trial " << t;
    }
}

TEST(Refactor, ReconvergenceCutIsAValidCut) {
    util::Rng rng(13);
    const Aig aig = random_aig(6, 50, rng, 1);
    for (int n = aig.num_pis() + 1; n < aig.num_nodes(); ++n) {
        const std::vector<int> leaves = reconvergence_cut(aig, n, 8);
        EXPECT_LE(static_cast<int>(leaves.size()), 8);
        // The cone must evaluate without escaping the leaves (would assert).
        const TruthTable t =
            net::evaluate_cone(aig, Aig::make_lit(n, false), leaves);
        EXPECT_EQ(t.num_vars(), static_cast<int>(leaves.size()));
    }
}

TEST(Optimize, SboxCircuitsShrinkAndStayCorrect) {
    SynthContext ctx;
    for (int idx : {0, 5, 11}) {
        const sbox::Sbox& s = sbox::leander_poschmann_16()[static_cast<std::size_t>(idx)];
        Aig aig(4);
        std::vector<Lit> inputs;
        for (int i = 0; i < 4; ++i) inputs.push_back(aig.pi(i));
        for (int j = 0; j < 4; ++j) {
            aig.add_po(build_from_tt(s.output_tt(j), inputs, &aig));
        }
        const auto before = net::simulate_full(aig);
        const int size_before = aig.count_live_ands();
        optimize(&aig, ctx, Effort::kDefault);
        EXPECT_LE(aig.count_live_ands(), size_before);
        EXPECT_EQ(before, net::simulate_full(aig)) << s.name;
    }
}

TEST(Optimize, NeverReturnsWorseThanInput) {
    // optimize() keeps a best-seen snapshot, so even the perturbing kHigh
    // effort can never hand back a larger network than it was given.
    util::Rng rng(23);
    SynthContext ctx;
    for (int t = 0; t < 10; ++t) {
        Aig aig = random_aig(6, 90, rng);
        const int before = aig.count_live_ands();
        for (const Effort e : {Effort::kFast, Effort::kDefault, Effort::kHigh}) {
            Aig copy = aig;
            optimize(&copy, ctx, e);
            EXPECT_LE(copy.num_ands(), before) << "effort " << static_cast<int>(e);
        }
    }
}

TEST(Optimize, EffortLevelsAllPreserveFunction) {
    util::Rng rng(17);
    SynthContext ctx;
    for (const Effort e : {Effort::kFast, Effort::kDefault, Effort::kHigh}) {
        Aig aig = random_aig(7, 120, rng);
        const auto before = net::simulate_full(aig);
        optimize(&aig, ctx, e);
        EXPECT_EQ(before, net::simulate_full(aig));
    }
}

// Property sweep: rewriting all 4-var functions built from ISOP is exact.
class RewriteAllNpnClasses : public ::testing::TestWithParam<int> {};

TEST_P(RewriteAllNpnClasses, StructureLibraryIsExact) {
    SynthContext ctx;
    // Sample the 16-bit function space in strides.
    for (std::uint32_t tt = static_cast<std::uint32_t>(GetParam()); tt < 0x10000;
         tt += 64) {
        const std::uint16_t canon = ctx.npn.canonize(static_cast<std::uint16_t>(tt)).canon;
        const Structure& s = *ctx.rewrite_lib.structure_for(canon);
        const auto outs = net::simulate_full(s.aig);
        for (std::uint32_t m = 0; m < 16; ++m) {
            EXPECT_EQ(outs[0].bit(m), ((canon >> m) & 1) != 0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Strided, RewriteAllNpnClasses, ::testing::Range(0, 64, 8));

TEST(Rewrite, RejectsUnrepresentableCutParams) {
    util::Rng rng(29);
    Aig aig = random_aig(5, 40, rng);
    SynthContext ctx;
    RewriteParams params;
    params.cuts.max_leaves = 5;
    EXPECT_THROW(rewrite(&aig, ctx.npn, ctx.rewrite_lib, params), std::invalid_argument);
    params.cuts.max_leaves = 4;
    params.cuts.max_cuts_per_node = 0;
    EXPECT_THROW(rewrite(&aig, ctx.npn, ctx.rewrite_lib, params), std::invalid_argument);
}

// FNV-1a over the structure: PI count, node count, every AND's fanin
// literals, and the POs.
std::uint64_t structure_hash(const Aig& aig) {
    std::uint64_t h = util::kFnvOffset;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= util::kFnvPrime;
        }
    };
    mix(static_cast<std::uint64_t>(aig.num_pis()));
    mix(static_cast<std::uint64_t>(aig.num_nodes()));
    for (int n = aig.num_pis() + 1; n < aig.num_nodes(); ++n) {
        mix(aig.fanin0(n));
        mix(aig.fanin1(n));
    }
    mix(static_cast<std::uint64_t>(aig.num_pos()));
    for (int i = 0; i < aig.num_pos(); ++i) mix(aig.po(i));
    return h;
}

TEST(Synth, GoldenStructureAtFixedInputs) {
    // Recorded from the vector-backed truth tables, vector-leaf cuts and
    // per-candidate Replacement gain estimate.  Their allocation-free
    // replacements must visit cuts and break ties the same way, so every
    // optimized AIG repeats node for node, not just in size and area.
    struct Golden {
        const char* family;
        int num_functions;
        bool random_pins;  ///< else the identity assignment
        Effort effort;
        std::uint64_t hash;
        int ands;
        double area;
    };
    const Golden golden[] = {
        {"present", 2, false, synth::Effort::kFast, 0xccfd6fdda0a77e05ull, 65, 69.999999999999986},
        {"present", 2, false, synth::Effort::kDefault, 0x432fc3248d494a9cull, 49, 50.329999999999991},
        {"present", 2, false, synth::Effort::kHigh, 0x92c0164d2dbd388eull, 49, 50.329999999999991},
        {"present", 2, true, synth::Effort::kFast, 0x84c04c8b48cb4280ull, 64, 69.97999999999999},
        {"present", 2, true, synth::Effort::kDefault, 0x48fa8d098529aa77ull, 64, 68},
        {"present", 2, true, synth::Effort::kHigh, 0x48fa8d098529aa77ull, 64, 68},
        {"present", 3, false, synth::Effort::kFast, 0x69cf6f4100403363ull, 93, 92.649999999999977},
        {"present", 3, false, synth::Effort::kDefault, 0xf8caf00d30896a89ull, 67, 67.639999999999986},
        {"present", 3, false, synth::Effort::kHigh, 0x256d6372f32f579bull, 67, 67.639999999999986},
        {"present", 3, true, synth::Effort::kFast, 0xed8632ee87f07679ull, 97, 105.94999999999997},
        {"present", 3, true, synth::Effort::kDefault, 0x6a1f37ac722f9b43ull, 95, 103.60999999999997},
        {"present", 3, true, synth::Effort::kHigh, 0x0abdc2e1faac607aull, 95, 103.97999999999999},
        {"present", 8, false, synth::Effort::kFast, 0xb3c419e787256ca4ull, 195, 204.32000000000008},
        {"present", 8, false, synth::Effort::kDefault, 0x027fef48978f68baull, 168, 175.67000000000007},
        {"present", 8, false, synth::Effort::kHigh, 0x284800b92c6916bfull, 171, 180.00000000000009},
        {"present", 8, true, synth::Effort::kFast, 0x247d16803fb6c778ull, 235, 246.30000000000007},
        {"present", 8, true, synth::Effort::kDefault, 0x71137a05d6dd6143ull, 235, 246.97000000000008},
        {"present", 8, true, synth::Effort::kHigh, 0xe4289f363f9215afull, 235, 246.97000000000008},
        {"des", 2, false, synth::Effort::kFast, 0xa40bb213299e29ceull, 290, 291.24000000000007},
        {"des", 2, false, synth::Effort::kDefault, 0x32fe32fe4823b5f8ull, 274, 276.58000000000015},
        {"des", 2, false, synth::Effort::kHigh, 0x2c74700215ea61b9ull, 271, 273.57000000000028},
        {"des", 2, true, synth::Effort::kFast, 0xfd1fad860eb4943bull, 293, 300.24000000000018},
        {"des", 2, true, synth::Effort::kDefault, 0x19b8f9493fd57b8full, 287, 294.25000000000017},
        {"des", 2, true, synth::Effort::kHigh, 0x1d7aed15f6d20cc5ull, 287, 293.91000000000025},
        {"des", 4, false, synth::Effort::kFast, 0x822a03343ca4d33bull, 533, 530.77999999999975},
        {"des", 4, false, synth::Effort::kDefault, 0x20bbf7a64914046bull, 507, 510.48999999999967},
        {"des", 4, false, synth::Effort::kHigh, 0xd1c05b204870906cull, 511, 517.46999999999957},
        {"des", 4, true, synth::Effort::kFast, 0x5ad822103a701d25ull, 562, 569.49000000000012},
        {"des", 4, true, synth::Effort::kDefault, 0x5b1231a1f7d030f6ull, 549, 562.81999999999971},
        {"des", 4, true, synth::Effort::kHigh, 0xa386a786521d3e01ull, 543, 555.12999999999943},
    };
    SynthContext ctx;
    for (const Golden& g : golden) {
        const auto fns = flow::from_sboxes(std::string(g.family) == "present"
                                               ? sbox::present_viable_set(g.num_functions)
                                               : sbox::des_viable_set(g.num_functions));
        const int m = fns.front().num_inputs;
        const int o = fns.front().num_outputs;
        util::Rng rng(2017);
        const ga::PinAssignment pins =
            g.random_pins ? ga::PinAssignment::random(g.num_functions, m, o, rng)
                          : ga::PinAssignment::identity(g.num_functions, m, o);
        Aig aig = flow::MergedSpec(fns, pins).build_aig();
        optimize(&aig, ctx, g.effort);
        const std::string what = std::string(g.family) + ":" +
                                 std::to_string(g.num_functions) +
                                 (g.random_pins ? " random" : " identity") + " effort " +
                                 std::to_string(static_cast<int>(g.effort));
        EXPECT_EQ(structure_hash(aig), g.hash) << what;
        EXPECT_EQ(aig.num_ands(), g.ands) << what;
        EXPECT_DOUBLE_EQ(tech::tech_map(aig, tech::MatchCache::standard()).area(), g.area)
            << what;
    }
}

}  // namespace
}  // namespace mvf::synth
