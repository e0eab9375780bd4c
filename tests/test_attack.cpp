// Tests for the SAT-based de-camouflaging attacker and the random-
// camouflaging baseline (paper sections I/II claims).

#include <gtest/gtest.h>

#include "attack/plausibility.hpp"
#include "attack/random_camo.hpp"
#include "flow/obfuscation_flow.hpp"
#include "sbox/sbox_data.hpp"
#include "sim/netlist_sim.hpp"

namespace mvf::attack {
namespace {

using camo::CamoLibrary;
using camo::CamoNetlist;
using logic::TruthTable;

CamoNetlist single_cell_netlist(const CamoLibrary& lib, const char* cell_name) {
    CamoNetlist nl(lib);
    const int camo_id = lib.camo_of_nominal(lib.gate_library().find(cell_name));
    const int pins = lib.cell(camo_id).num_pins;
    CamoNetlist::Node cell;
    cell.kind = CamoNetlist::NodeKind::kCell;
    cell.camo_cell_id = camo_id;
    for (int i = 0; i < pins; ++i) {
        cell.fanins.push_back(nl.add_pi('p' + std::to_string(i)));
    }
    cell.used_pin_mask = (1u << pins) - 1;
    cell.config_fn = {0};
    nl.add_po(nl.add_cell(std::move(cell)), "o");
    return nl;
}

TEST(Plausibility, SingleNand2MatchesFig1b) {
    const CamoLibrary lib =
        CamoLibrary::from_gate_library(tech::GateLibrary::standard());
    const CamoNetlist nl = single_cell_netlist(lib, "NAND2");
    const TruthTable a = TruthTable::var(0, 2);
    const TruthTable b = TruthTable::var(1, 2);
    for (const TruthTable& f : {~(a & b), ~a, ~b, TruthTable::zeros(2),
                                TruthTable::ones(2)}) {
        std::vector<TruthTable> t{f};
        EXPECT_TRUE(is_plausible(nl, t).plausible) << f.to_hex();
    }
    for (const TruthTable& f : {a & b, a | b, a ^ b, a, b}) {
        std::vector<TruthTable> t{f};
        EXPECT_FALSE(is_plausible(nl, t).plausible) << f.to_hex();
    }
}

TEST(Plausibility, WitnessConfigReplaysInSimulation) {
    const CamoLibrary lib =
        CamoLibrary::from_gate_library(tech::GateLibrary::standard());
    const CamoNetlist nl = single_cell_netlist(lib, "NAND3");
    const std::vector<TruthTable> target{~TruthTable::var(1, 3)};
    const PlausibilityResult r = is_plausible(nl, target);
    ASSERT_TRUE(r.plausible);
    const auto got = sim::simulate_camo_full(nl, r.config);
    EXPECT_EQ(got[0], target[0]);
}

TEST(Plausibility, FixedMaskRestrictsToNominal) {
    const CamoLibrary lib =
        CamoLibrary::from_gate_library(tech::GateLibrary::standard());
    const CamoNetlist nl = single_cell_netlist(lib, "NAND2");
    std::vector<bool> fixed(static_cast<std::size_t>(nl.num_nodes()), true);
    const TruthTable a = TruthTable::var(0, 2);
    const TruthTable b = TruthTable::var(1, 2);
    std::vector<TruthTable> nand{~(a & b)};
    std::vector<TruthTable> nota{~a};
    EXPECT_TRUE(is_plausible(nl, nand, &fixed).plausible);
    EXPECT_FALSE(is_plausible(nl, nota, &fixed).plausible);
}

TEST(Plausibility, AgreesWithExhaustiveOnSmallCircuits) {
    // Two-cell circuit: NAND2(INV(a), b).
    const CamoLibrary lib =
        CamoLibrary::from_gate_library(tech::GateLibrary::standard());
    CamoNetlist nl(lib);
    const int a = nl.add_pi("a");
    const int b = nl.add_pi("b");
    CamoNetlist::Node inv;
    inv.kind = CamoNetlist::NodeKind::kCell;
    inv.camo_cell_id = lib.camo_of_nominal(lib.gate_library().find("INV"));
    inv.fanins = {a};
    inv.used_pin_mask = 1;
    inv.config_fn = {0};
    const int ai = nl.add_cell(std::move(inv));
    CamoNetlist::Node nand;
    nand.kind = CamoNetlist::NodeKind::kCell;
    nand.camo_cell_id = lib.camo_of_nominal(lib.gate_library().find("NAND2"));
    nand.fanins = {ai, b};
    nand.used_pin_mask = 3;
    nand.config_fn = {0};
    nl.add_po(nl.add_cell(std::move(nand)), "o");

    // Exhaustively compare the two deciders on all 16 single-output targets.
    for (std::uint32_t bits = 0; bits < 16; ++bits) {
        std::vector<TruthTable> target{TruthTable::from_u64(2, bits)};
        const bool sat_says = is_plausible(nl, target).plausible;
        bool exhausted = false;
        const auto cfg = find_config_exhaustive(nl, target, 1u << 20, &exhausted);
        ASSERT_TRUE(exhausted);
        EXPECT_EQ(sat_says, cfg.has_value()) << "target " << bits;
        if (cfg) {
            EXPECT_EQ(sim::simulate_camo_full(nl, *cfg)[0], target[0]);
        }
    }
}

struct FlowFixture {
    flow::ObfuscationFlow flow;
    flow::FlowResult result;
    std::vector<flow::ViableFunction> fns;

    explicit FlowFixture(int n) {
        flow::FlowParams p;
        p.ga.population = 8;
        p.ga.generations = 3;
        p.run_random_baseline = false;
        p.seed = 5;
        fns = flow::from_sboxes(sbox::present_viable_set(n));
        result = flow.run(fns, p);
    }
};

TEST(Plausibility, AllViableFunctionsPlausibleAfterFlow) {
    FlowFixture fx(4);
    ASSERT_TRUE(fx.result.verified);
    const flow::MergedSpec spec(fx.fns, fx.result.ga.best);
    for (int k = 0; k < 4; ++k) {
        const auto targets = spec.expected_outputs_for_code(k);
        const PlausibilityResult r = is_plausible(*fx.result.camouflaged, targets);
        EXPECT_TRUE(r.plausible) << "viable function " << k;
        if (r.plausible) {
            // The witness really implements the function.
            const auto got = sim::simulate_camo_full(*fx.result.camouflaged, r.config);
            for (std::size_t q = 0; q < targets.size(); ++q) {
                EXPECT_EQ(got[q], targets[q]);
            }
        }
    }
}

TEST(Plausibility, NonViableFunctionRuledOut) {
    FlowFixture fx(2);
    // G9 was not merged; under the flow's own pin interpretation it should
    // not be plausible (overwhelmingly likely for a random non-member).
    const auto g9 = flow::from_sbox(sbox::leander_poschmann_16()[9]);
    const PlausibilityResult r = is_plausible(*fx.result.camouflaged, g9.outputs);
    EXPECT_FALSE(r.plausible);
}

TEST(RandomCamo, PreservesTrueFunctionAndStructure) {
    flow::ObfuscationFlow f;
    const auto fns = flow::from_sboxes(sbox::present_viable_set(1));
    const flow::MergedSpec spec(fns, ga::PinAssignment::identity(1, 4, 4));
    const tech::Netlist mapped = f.synthesize(spec, synth::Effort::kDefault);
    util::Rng rng(3);
    const RandomCamoResult rc =
        random_camouflage(mapped, f.camo_library(), 0.5, rng);
    EXPECT_TRUE(rc.netlist.validate());
    EXPECT_EQ(rc.netlist.num_cells(), mapped.num_cells());
    EXPECT_GE(rc.camouflaged_cells, 1);
    EXPECT_LT(rc.camouflaged_cells, rc.netlist.num_cells());
    // Config code 0 = all nominal = the true function.
    const auto config = rc.netlist.configuration_for_code(0);
    const auto got = sim::simulate_camo_full(rc.netlist, config);
    for (int q = 0; q < 4; ++q) {
        EXPECT_EQ(got[static_cast<std::size_t>(q)],
                  fns[0].outputs[static_cast<std::size_t>(q)]);
    }
}

TEST(RandomCamo, TrueFunctionPlausibleOthersNot) {
    // The paper's core motivation: random camouflaging keeps the true
    // function plausible but almost surely no other viable function.
    flow::ObfuscationFlow f;
    const auto fns = flow::from_sboxes(sbox::present_viable_set(1));
    const flow::MergedSpec spec(fns, ga::PinAssignment::identity(1, 4, 4));
    const tech::Netlist mapped = f.synthesize(spec, synth::Effort::kDefault);
    util::Rng rng(11);
    const RandomCamoResult rc =
        random_camouflage(mapped, f.camo_library(), 0.6, rng);
    const PlausibilityResult self =
        is_plausible(rc.netlist, fns[0].outputs, &rc.fixed_nominal);
    EXPECT_TRUE(self.plausible);
    int others_plausible = 0;
    for (int k = 1; k <= 4; ++k) {
        const auto other = flow::from_sbox(
            sbox::leander_poschmann_16()[static_cast<std::size_t>(k)]);
        if (is_plausible(rc.netlist, other.outputs, &rc.fixed_nominal).plausible) {
            ++others_plausible;
        }
    }
    EXPECT_EQ(others_plausible, 0);
}

TEST(RandomCamo, FractionZeroCamouflagesNothing) {
    flow::ObfuscationFlow f;
    const auto fns = flow::from_sboxes(sbox::present_viable_set(1));
    const flow::MergedSpec spec(fns, ga::PinAssignment::identity(1, 4, 4));
    const tech::Netlist mapped = f.synthesize(spec, synth::Effort::kFast);
    util::Rng rng(5);
    const RandomCamoResult rc =
        random_camouflage(mapped, f.camo_library(), 0.0, rng);
    EXPECT_EQ(rc.camouflaged_cells, 0);
    for (int id = 0; id < rc.netlist.num_nodes(); ++id) {
        if (rc.netlist.node(id).kind == CamoNetlist::NodeKind::kCell) {
            EXPECT_TRUE(rc.fixed_nominal[static_cast<std::size_t>(id)]);
        }
    }
}

TEST(AnyPins, FindsPlausibilityUnderReinterpretation) {
    // Build a circuit implementing G0 with a *scrambled* pin assignment; the
    // identity-pin check may fail but the any-pins attacker must succeed.
    flow::ObfuscationFlow f;
    const auto fns = flow::from_sboxes(sbox::present_viable_set(1));
    ga::PinAssignment pa = ga::PinAssignment::identity(1, 4, 4);
    pa.input_perms[0] = {2, 0, 3, 1};
    pa.output_perms[0] = {1, 3, 0, 2};
    const flow::MergedSpec spec(fns, pa);
    const tech::Netlist mapped = f.synthesize(spec, synth::Effort::kFast);
    util::Rng rng(7);
    const RandomCamoResult rc =
        random_camouflage(mapped, f.camo_library(), 0.3, rng);
    int tried = 0;
    EXPECT_TRUE(is_plausible_any_pins(rc.netlist, fns[0].outputs, &tried));
    EXPECT_GE(tried, 1);
}

}  // namespace
}  // namespace mvf::attack
