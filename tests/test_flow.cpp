// End-to-end integration tests of the three-phase obfuscation flow.

#include <gtest/gtest.h>

#include "flow/obfuscation_flow.hpp"
#include "sbox/sbox_data.hpp"
#include "sim/netlist_sim.hpp"

namespace mvf::flow {
namespace {

FlowParams tiny_params(std::uint64_t seed = 1) {
    FlowParams p;
    p.ga.population = 8;
    p.ga.generations = 4;
    p.seed = seed;
    return p;
}

TEST(Flow, EndToEndTwoPresentSboxes) {
    ObfuscationFlow flow;
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    const FlowResult r = flow.run(fns, tiny_params());
    EXPECT_GT(r.random_avg, 0.0);
    EXPECT_GT(r.random_best, 0.0);
    EXPECT_LE(r.random_best, r.random_avg);
    EXPECT_GT(r.ga_area, 0.0);
    EXPECT_GT(r.ga_tm_area, 0.0);
    EXPECT_TRUE(r.verified);
    ASSERT_TRUE(r.synthesized.has_value());
    ASSERT_TRUE(r.camouflaged.has_value());
    EXPECT_TRUE(r.synthesized->validate());
    EXPECT_TRUE(r.camouflaged->validate());
    // Selects gone in the camouflaged netlist.
    EXPECT_EQ(r.camouflaged->num_pis(), 4);
}

TEST(Flow, GaNeverLosesToItsOwnPopulationHistory) {
    ObfuscationFlow flow;
    const auto fns = from_sboxes(sbox::present_viable_set(4));
    const FlowResult r = flow.run(fns, tiny_params(7));
    const auto& hist = r.ga.history.best_per_generation;
    ASSERT_FALSE(hist.empty());
    EXPECT_DOUBLE_EQ(hist.back(), r.ga.best_area);
    for (std::size_t g = 1; g < hist.size(); ++g) {
        EXPECT_LE(hist[g], hist[g - 1]);
    }
}

TEST(Flow, EqualBudgetBaselineCountsMatch) {
    ObfuscationFlow flow;
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    const FlowResult r = flow.run(fns, tiny_params(3));
    EXPECT_EQ(static_cast<int>(r.random_areas.size()),
              r.ga.history.evaluations);
}

TEST(Flow, CamoAreaNeverExceedsSynthesizedArea) {
    ObfuscationFlow flow;
    for (int n : {2, 4}) {
        const auto fns = from_sboxes(sbox::present_viable_set(n));
        const FlowResult r = flow.run(fns, tiny_params(11));
        EXPECT_LE(r.ga_tm_area, r.synthesized->area() + 1e-9) << "n=" << n;
        EXPECT_GT(r.improvement_percent(), -100.0);
    }
}

TEST(Flow, VerifiedConfigurationsMatchEveryViableFunction) {
    ObfuscationFlow flow;
    const int n = 4;
    const auto fns = from_sboxes(sbox::present_viable_set(n));
    const FlowResult r = flow.run(fns, tiny_params(13));
    ASSERT_TRUE(r.verified);
    const MergedSpec spec(fns, r.ga.best);
    for (int code = 0; code < n; ++code) {
        const auto config = r.camouflaged->configuration_for_code(code);
        const auto got = sim::simulate_camo_full(*r.camouflaged, config);
        const auto want = spec.expected_outputs_for_code(code);
        for (std::size_t q = 0; q < want.size(); ++q) {
            EXPECT_EQ(got[q], want[q]) << "code " << code << " output " << q;
        }
    }
}

TEST(Flow, DeterministicForFixedSeed) {
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    ObfuscationFlow f1;
    ObfuscationFlow f2;
    const FlowResult a = f1.run(fns, tiny_params(21));
    const FlowResult b = f2.run(fns, tiny_params(21));
    EXPECT_DOUBLE_EQ(a.ga_area, b.ga_area);
    EXPECT_DOUBLE_EQ(a.ga_tm_area, b.ga_tm_area);
    EXPECT_DOUBLE_EQ(a.random_best, b.random_best);
    EXPECT_EQ(a.ga.best, b.ga.best);
}

TEST(Flow, EvaluateAreaIsConsistentWithSynthesize) {
    ObfuscationFlow flow;
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    const auto pa = ga::PinAssignment::identity(2, 4, 4);
    const double area = flow.evaluate_area(fns, pa, synth::Effort::kFast);
    const MergedSpec spec(fns, pa);
    const tech::Netlist nl = flow.synthesize(spec, synth::Effort::kFast);
    EXPECT_DOUBLE_EQ(area, nl.area());
}

TEST(Flow, MappedNetlistImplementsTheMergedSpec) {
    ObfuscationFlow flow;
    const auto fns = from_sboxes(sbox::present_viable_set(4));
    const auto pa = ga::PinAssignment::identity(4, 4, 4);
    const MergedSpec spec(fns, pa);
    const tech::Netlist nl = flow.synthesize(spec, synth::Effort::kDefault);
    EXPECT_EQ(sim::simulate_full(nl), spec.reference_tts());
}

TEST(Flow, SkippingPhasesWorks) {
    ObfuscationFlow flow;
    FlowParams p = tiny_params(5);
    p.run_random_baseline = false;
    p.run_camo_mapping = false;
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    const FlowResult r = flow.run(fns, p);
    EXPECT_EQ(r.random_areas.size(), 0u);
    EXPECT_FALSE(r.camouflaged.has_value());
    EXPECT_DOUBLE_EQ(r.ga_tm_area, 0.0);
    EXPECT_GT(r.ga_area, 0.0);
}

TEST(Flow, DesPairEndToEnd) {
    ObfuscationFlow flow;
    FlowParams p = tiny_params(9);
    p.ga.population = 6;
    p.ga.generations = 2;
    const auto fns = from_sboxes(sbox::des_viable_set(2));
    const FlowResult r = flow.run(fns, p);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.camouflaged->num_pis(), 6);
    EXPECT_GT(r.ga_tm_area, 0.0);
}

TEST(Flow, GoldenResultsAtFixedSeed) {
    // Recorded from the flow with a per-function cell-match search and a
    // per-minterm NPN canonizer.  Their table-driven replacements must pick
    // the same matches and rewrite wirings, so every figure repeats exactly.
    struct Golden {
        const char* family;
        double ga_tm_area;
        double ga_best_area;
        double random_best;
        int synthesized_cells;
        int camouflaged_cells;
    };
    const Golden golden[] = {
        {"present", 58.319999999999986, 65.309999999999988, 66.670000000000002, 61, 57},
        {"des", 279.26000000000016, 284.91000000000025, 280.93000000000012, 267, 263},
    };
    for (const Golden& g : golden) {
        ObfuscationFlow flow;
        FlowParams p = tiny_params(4);
        p.ga.population = 6;
        p.ga.generations = 2;
        const auto fns = from_sboxes(std::string(g.family) == "present"
                                         ? sbox::present_viable_set(2)
                                         : sbox::des_viable_set(2));
        const FlowResult r = flow.run(fns, p);
        ASSERT_TRUE(r.synthesized.has_value());
        ASSERT_TRUE(r.camouflaged.has_value());
        EXPECT_DOUBLE_EQ(r.ga_tm_area, g.ga_tm_area) << g.family;
        EXPECT_DOUBLE_EQ(r.ga.best_area, g.ga_best_area) << g.family;
        EXPECT_DOUBLE_EQ(r.random_best, g.random_best) << g.family;
        EXPECT_EQ(r.synthesized->num_cells(), g.synthesized_cells) << g.family;
        EXPECT_EQ(r.camouflaged->num_cells(), g.camouflaged_cells) << g.family;
    }
}

TEST(Flow, BestOfBuildsNeverWorseThanFactored) {
    ObfuscationFlow flow;
    for (int n : {4, 8}) {
        const auto fns = from_sboxes(sbox::present_viable_set(n));
        const auto pa = ga::PinAssignment::identity(n, 4, 4);
        const MergedSpec spec(fns, pa);
        const double factored =
            flow.synthesize(spec, synth::Effort::kDefault).area();
        const tech::Netlist best =
            flow.synthesize_best(spec, synth::Effort::kDefault);
        EXPECT_LE(best.area(), factored + 1e-9) << "n=" << n;
        // Either way the result must implement the merged specification.
        EXPECT_EQ(sim::simulate_full(best), spec.reference_tts()) << "n=" << n;
    }
}

TEST(Flow, ConfigSpaceBitsReported) {
    ObfuscationFlow flow;
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    const FlowResult r = flow.run(fns, tiny_params(2));
    EXPECT_GT(r.camo_stats.config_space_bits, 0.0);
    EXPECT_EQ(r.camo_stats.num_cells, r.camouflaged->num_cells());
    EXPECT_EQ(r.camo_stats.selects_eliminated, 1);
}

}  // namespace
}  // namespace mvf::flow
