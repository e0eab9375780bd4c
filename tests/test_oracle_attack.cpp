// Tests for the oracle-guided CEGAR de-camouflaging attack.
//
// The anchor is the differential against exhaustive configuration
// enumeration on 4-bit circuits: both attackers must report the same
// surviving-configuration count (the number of dopant configurations
// functionally equivalent to the hidden one), across >= 100 randomized
// netlists.  Beyond that, scalability smoke tests exercise input widths the
// enumeration encoding cannot touch.

#include <gtest/gtest.h>

#include "attack/adversary.hpp"
#include "attack/oracle_attack.hpp"
#include "attack/plausibility.hpp"
#include "attack/random_camo.hpp"
#include "flow/obfuscation_flow.hpp"
#include "sbox/sbox_data.hpp"
#include "sim/netlist_sim.hpp"
#include "util/rng.hpp"

namespace mvf::attack {
namespace {

using camo::CamoLibrary;
using camo::CamoNetlist;
using logic::TruthTable;

CamoLibrary standard_camo_library() {
    return CamoLibrary::from_gate_library(tech::GateLibrary::standard());
}

/// Exhaustively counts configurations whose full-input-space simulation
/// matches `targets`; returns nullopt when the space exceeds `max_configs`.
std::optional<std::uint64_t> count_matching_configs_exhaustive(
    const CamoNetlist& nl, const std::vector<TruthTable>& targets,
    std::uint64_t max_configs) {
    std::vector<int> cells;
    std::uint64_t space = 1;
    for (int id = 0; id < nl.num_nodes(); ++id) {
        const CamoNetlist::Node& n = nl.node(id);
        if (n.kind != CamoNetlist::NodeKind::kCell) continue;
        cells.push_back(id);
        space *= nl.library().cell(n.camo_cell_id).plausible.size();
        if (space > max_configs) return std::nullopt;
    }
    std::vector<int> config(static_cast<std::size_t>(nl.num_nodes()), -1);
    for (const int id : cells) config[static_cast<std::size_t>(id)] = 0;
    std::uint64_t count = 0;
    while (true) {
        if (sim::simulate_camo_full(nl, config) == targets) ++count;
        std::size_t i = 0;
        for (; i < cells.size(); ++i) {
            const int id = cells[i];
            const int limit = static_cast<int>(
                nl.library().cell(nl.node(id).camo_cell_id).plausible.size());
            if (++config[static_cast<std::size_t>(id)] < limit) break;
            config[static_cast<std::size_t>(id)] = 0;
        }
        if (i == cells.size()) return count;
    }
}

TEST(OracleAttack, SingleNand2RecoversExactFunction) {
    const CamoLibrary lib = standard_camo_library();
    CamoNetlist nl(lib);
    const int camo_id = lib.camo_of_nominal(lib.gate_library().find("NAND2"));
    CamoNetlist::Node cell;
    cell.kind = CamoNetlist::NodeKind::kCell;
    cell.camo_cell_id = camo_id;
    cell.fanins = {nl.add_pi("a"), nl.add_pi("b")};
    cell.used_pin_mask = 3;
    cell.config_fn = {0};
    nl.add_po(nl.add_cell(std::move(cell)), "o");

    SimOracle oracle(nl, nl.configuration_for_code(0));
    const OracleAttackResult r = oracle_attack(nl, oracle);
    ASSERT_TRUE(r.solved());
    // Fig. 1b: the plausible set {NAND, !A, !B, 0, 1} contains NAND once.
    EXPECT_EQ(r.surviving_configs, 1u);
    EXPECT_GE(r.queries, 1);
    const auto got = sim::simulate_camo_full(nl, r.witness_config);
    EXPECT_EQ(got[0], ~(TruthTable::var(0, 2) & TruthTable::var(1, 2)));
}

TEST(OracleAttack, AgreesWithExhaustiveCountOn100RandomNetlists) {
    const CamoLibrary lib = standard_camo_library();
    int cases = 0;
    for (std::uint64_t seed = 0; seed < 400 && cases < 100; ++seed) {
        util::Rng rng(seed * 7919 + 3);
        const CamoNetlist nl = attack::random_camo_netlist(
            lib, 4, 1 + rng.uniform_int(0, 1), 4 + rng.uniform_int(0, 2), rng);
        // Keep the exhaustive side tractable.
        const std::vector<int> hidden = nl.configuration_for_code(0);
        const std::vector<TruthTable> oracle_fn = sim::simulate_camo_full(nl, hidden);
        const auto exhaustive =
            count_matching_configs_exhaustive(nl, oracle_fn, 20000);
        if (!exhaustive) continue;
        ++cases;

        SimOracle oracle(nl, hidden);
        OracleAttackParams params;
        params.max_survivors = 1u << 20;
        const OracleAttackResult r = oracle_attack(nl, oracle, params);
        ASSERT_TRUE(r.solved()) << "seed " << seed;
        EXPECT_EQ(r.surviving_configs, *exhaustive) << "seed " << seed;
        // The witness is itself a survivor.
        ASSERT_FALSE(r.witness_config.empty()) << "seed " << seed;
        EXPECT_EQ(sim::simulate_camo_full(nl, r.witness_config), oracle_fn)
            << "seed " << seed;
    }
    ASSERT_GE(cases, 100) << "generator produced too few tractable netlists";
}

TEST(OracleAttack, DistinguishingInputsNeverRepeat) {
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(11);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 4, 2, 6, rng);
    SimOracle oracle(nl, nl.configuration_for_code(0));
    const OracleAttackResult r = oracle_attack(nl, oracle);
    ASSERT_TRUE(r.solved());
    for (std::size_t i = 0; i < r.distinguishing_inputs.size(); ++i) {
        for (std::size_t j = i + 1; j < r.distinguishing_inputs.size(); ++j) {
            EXPECT_NE(r.distinguishing_inputs[i], r.distinguishing_inputs[j]);
        }
    }
    // 4-bit input space bounds the query count.
    EXPECT_LE(r.queries, 16);
}

TEST(OracleAttack, ScalesBeyondEnumerableInputSpace) {
    // 12 PIs: the is_plausible encoding would need 2^12 copies; the CEGAR
    // attack needs a handful of queries.  The witness must reproduce the
    // oracle's function across the whole input space.
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(23);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 12, 3, 20, rng);
    const std::vector<int> hidden = nl.configuration_for_code(0);
    SimOracle oracle(nl, hidden);
    OracleAttackParams params;
    // This test is about the CEGAR loop scaling with input width, not
    // about counting: the instance is dense and decomposition-resistant
    // (the exact counter would burn its whole decision budget before
    // falling back), so pin the capped legacy count it was written for.
    params.count_mode = CountMode::kEnumerate;
    params.max_survivors = 1u << 10;
    const OracleAttackResult r = oracle_attack(nl, oracle, params);
    ASSERT_NE(r.status, OracleAttackResult::Status::kIterationLimit);
    ASSERT_NE(r.status, OracleAttackResult::Status::kNoSurvivor);
    ASSERT_FALSE(r.witness_config.empty());
    EXPECT_EQ(sim::simulate_camo_full(nl, r.witness_config),
              sim::simulate_camo_full(nl, hidden));
}

TEST(OracleAttack, IterationLimitReportsCleanly) {
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(31);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 6, 2, 10, rng);
    SimOracle oracle(nl, nl.configuration_for_code(0));
    OracleAttackParams params;
    params.max_iterations = 1;
    const OracleAttackResult r = oracle_attack(nl, oracle, params);
    // Either the attack finished within one query or it reports the cap.
    if (!r.solved()) {
        EXPECT_EQ(r.status, OracleAttackResult::Status::kIterationLimit);
        EXPECT_EQ(r.queries, 1);
        EXPECT_EQ(r.surviving_configs, 0u);
    }
}

TEST(OracleAttack, FixedNominalRestrictsSurvivors) {
    // With every cell pinned to its nominal function there is exactly one
    // admissible configuration.
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(17);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 5, 2, 8, rng);
    std::vector<bool> fixed(static_cast<std::size_t>(nl.num_nodes()), true);
    SimOracle oracle(nl, nl.configuration_for_code(0));
    OracleAttackParams params;
    params.fixed_nominal = &fixed;
    const OracleAttackResult r = oracle_attack(nl, oracle, params);
    ASSERT_TRUE(r.solved());
    EXPECT_EQ(r.surviving_configs, 1u);
    EXPECT_EQ(r.queries, 0);  // no pair of configs to distinguish
}

TEST(OracleAttack, FlowIntegrationReportsAttack) {
    flow::ObfuscationFlow obfuscator;
    flow::FlowParams params;
    params.ga.population = 6;
    params.ga.generations = 2;
    params.run_random_baseline = false;
    params.adversaries = {"cegar"};
    // Capped enumeration: this flow netlist is dense, so the exact counter
    // would spend its whole decision budget before falling back to it.
    params.oracle.count_mode = CountMode::kEnumerate;
    params.oracle.max_survivors = 1u << 10;
    params.seed = 9;
    const auto fns = flow::from_sboxes(sbox::present_viable_set(2));
    const flow::FlowResult r = obfuscator.run(fns, params);
    ASSERT_EQ(r.attack_reports.size(), 1u);
    ASSERT_TRUE(r.camouflaged.has_value());
    const AdversaryReport& report = r.attack_reports[0];
    EXPECT_EQ(report.adversary, "cegar");

    // The same attack run directly on the camouflaged netlist reproduces
    // the flow's report and yields a witness configuration.
    CegarAdversary cegar(params.oracle);
    SimOracle oracle(*r.camouflaged, r.camouflaged->configuration_for_code(0));
    const AdversaryReport direct = cegar.attack(*r.camouflaged, &oracle);
    EXPECT_EQ(direct.outcome, report.outcome);
    EXPECT_EQ(direct.queries, report.queries);
    EXPECT_EQ(direct.survivors_str, report.survivors_str);
    ASSERT_TRUE(cegar.last_result().has_value());
    const OracleAttackResult& res = *cegar.last_result();
    ASSERT_NE(res.status, OracleAttackResult::Status::kNoSurvivor);
    ASSERT_FALSE(res.witness_config.empty());
    // The recovered function is viable function 0 (select code 0).
    const flow::MergedSpec spec(fns, r.ga.best);
    const auto expected = spec.expected_outputs_for_code(0);
    const auto got = sim::simulate_camo_full(*r.camouflaged, res.witness_config);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t q = 0; q < got.size(); ++q) EXPECT_EQ(got[q], expected[q]);
}

TEST(OracleAttack, AgreesWithIsPlausibleOnRecoveredFunction) {
    // Consistency between the two attackers: the function recovered by the
    // CEGAR attack must be judged plausible by the enumeration attacker,
    // and a function the CEGAR attack eliminated... is still *plausible*
    // in general (plausibility asks for ANY config, the oracle pins one),
    // so only the positive direction is checked.
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(29);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 4, 2, 6, rng);
    const std::vector<int> hidden = nl.configuration_for_code(0);
    SimOracle oracle(nl, hidden);
    const OracleAttackResult r = oracle_attack(nl, oracle);
    ASSERT_TRUE(r.solved());
    const auto fn = sim::simulate_camo_full(nl, r.witness_config);
    EXPECT_TRUE(is_plausible(nl, fn).plausible);
}

}  // namespace
}  // namespace mvf::attack
