// Exhaustive differential proof for the structure-shared CEGAR miter.
//
// The shared encoding (CnfBuilder::add_shared_copies: selector-independent
// cone cells encoded once, constant cones folded) must not change WHAT the
// attack computes, only how much CNF it takes.  With canonical
// (lexicographically minimal) distinguishing inputs the whole attack
// outcome is a function of the problem, not the encoding, so this harness
// runs every generator-family camouflaged netlist up to 6 primary inputs
// (and bench_oracle_attack's 8-input rand8 netlist)
// through both encodings -- legacy two-copy (PR-1) and shared, each with
// preprocessing off and on -- and asserts identical distinguishing-input
// SEQUENCES and surviving-configuration counts across all four.
//
// Netlists with fixed_nominal masks are included so sharing actually
// triggers (on fully camouflaged netlists the shared encoding degenerates
// to the legacy one by construction).
//
// Labeled "slow" in CMake: excluded from the sanitizer CI job.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "attack/oracle_attack.hpp"
#include "attack/random_camo.hpp"
#include "sat/cnf_builder.hpp"
#include "sim/netlist_sim.hpp"
#include "util/rng.hpp"

namespace mvf::attack {
namespace {

using camo::CamoLibrary;
using camo::CamoNetlist;

struct Variant {
    const char* name;
    bool shared;
    bool preprocess;
};

constexpr Variant kVariants[] = {
    {"legacy", false, false},
    {"legacy+pre", false, true},
    {"shared", true, false},
    {"shared+pre", true, true},
};

/// Runs the attack under `variant` with canonical inputs on.
OracleAttackResult run_variant(const CamoNetlist& nl,
                               const std::vector<bool>* fixed_nominal,
                               const Variant& variant) {
    SimOracle oracle(nl, nl.configuration_for_code(0));
    OracleAttackParams params;
    // Loosely constrained netlists can have millions of survivors; a small
    // cap keeps the enumeration bounded while the clamped counts still
    // have to agree across encodings.  Enumerate mode is pinned because
    // this test compares CNF ENCODINGS: the exact counter's budget
    // fallback may trigger on one encoding and not another, which is
    // legitimate (and reported via count_mode) but not what is under test
    // here.  test_count covers encoding-independence of completed exact
    // counts.
    params.count_mode = CountMode::kEnumerate;
    params.max_survivors = 1u << 9;
    params.fixed_nominal = fixed_nominal;
    params.canonical_inputs = true;
    params.shared_miter = variant.shared;
    params.solver.preprocess = variant.preprocess;
    return oracle_attack(nl, oracle, params);
}

void expect_identical(const CamoNetlist& nl,
                      const std::vector<bool>* fixed_nominal,
                      const std::string& tag) {
    const OracleAttackResult reference =
        run_variant(nl, fixed_nominal, kVariants[0]);
    for (std::size_t v = 1; v < std::size(kVariants); ++v) {
        const OracleAttackResult got = run_variant(nl, fixed_nominal, kVariants[v]);
        ASSERT_EQ(got.status, reference.status)
            << tag << " variant " << kVariants[v].name;
        ASSERT_EQ(got.queries, reference.queries)
            << tag << " variant " << kVariants[v].name;
        ASSERT_EQ(got.surviving_configs, reference.surviving_configs)
            << tag << " variant " << kVariants[v].name;
        // The full SEQUENCE, not just the count: canonical inputs make the
        // k-th distinguishing pattern unique given the first k-1.
        ASSERT_EQ(got.distinguishing_inputs, reference.distinguishing_inputs)
            << tag << " variant " << kVariants[v].name;
        // Witnesses may legitimately differ (any survivor is valid); both
        // must implement the oracle function when present.
        if (!reference.witness_config.empty()) {
            ASSERT_FALSE(got.witness_config.empty())
                << tag << " variant " << kVariants[v].name;
            EXPECT_EQ(sim::simulate_camo_full(nl, got.witness_config),
                      sim::simulate_camo_full(nl, reference.witness_config))
                << tag << " variant " << kVariants[v].name;
        }
    }
}

CamoLibrary standard_camo_library() {
    return CamoLibrary::from_gate_library(tech::GateLibrary::standard());
}

class SharedMiterExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(SharedMiterExhaustive, IdenticalOutcomesAcrossEncodings) {
    // One shard per PI width 2..6; per width, a seed sweep over the
    // random_camo_netlist generator family at several sizes, fully
    // camouflaged and with two fixed_nominal densities.  The 8-PI shard is
    // the one netlist of bench_oracle_attack's rand8 row at --seed 1.
    const int pis = GetParam();
    const CamoLibrary lib = standard_camo_library();
    if (pis == 8) {
        util::Rng rng(977 + 8);
        expect_identical(random_camo_netlist(lib, 8, 2, 16, rng), nullptr,
                         "rand8");
        return;
    }
    int cases = 0;
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
        util::Rng rng(seed * 92821 + static_cast<std::uint64_t>(pis));
        const int pos = 1 + rng.uniform_int(0, 2);
        const int cells = std::max(pis, pos) + rng.uniform_int(2, 5);
        const CamoNetlist nl =
            random_camo_netlist(lib, pis, pos, cells, rng);

        // Fully camouflaged: shared encoding degenerates to legacy.
        expect_identical(nl, nullptr,
                         "pis=" + std::to_string(pis) + " seed=" +
                             std::to_string(seed) + " full-camo");
        ++cases;

        // fixed_nominal masks: half and most cells pinned, so the shared
        // cone is non-trivial and folding fires on constant stamps.
        for (const double density : {0.5, 0.9}) {
            std::vector<bool> fixed(static_cast<std::size_t>(nl.num_nodes()),
                                    false);
            for (int id = 0; id < nl.num_nodes(); ++id) {
                if (nl.node(id).kind == CamoNetlist::NodeKind::kCell &&
                    rng.coin(density)) {
                    fixed[static_cast<std::size_t>(id)] = true;
                }
            }
            expect_identical(nl, &fixed,
                             "pis=" + std::to_string(pis) + " seed=" +
                                 std::to_string(seed) + " density=" +
                                 std::to_string(density));
            ++cases;
        }
    }
    EXPECT_EQ(cases, 36);
}

INSTANTIATE_TEST_SUITE_P(PiWidths, SharedMiterExhaustive,
                         ::testing::Values(2, 3, 4, 5, 6, 8));

TEST(SharedMiter, SharedCellsAreCountedAndReduceVariables) {
    // Direct check that sharing fires: with most cells fixed the shared
    // stamp must allocate fewer variables than two legacy stamps.
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(5);
    const CamoNetlist nl = random_camo_netlist(lib, 5, 2, 12, rng);
    std::vector<bool> fixed(static_cast<std::size_t>(nl.num_nodes()), true);

    sat::Solver legacy;
    sat::CnfBuilder la(nl, &legacy, &fixed);
    sat::CnfBuilder lb(nl, &legacy, &fixed);
    std::vector<sat::Lit> lx;
    for (int i = 0; i < 5; ++i) lx.push_back(sat::mk_lit(legacy.new_var()));
    la.add_copy(lx);
    lb.add_copy(lx);

    sat::Solver shared;
    sat::CnfBuilder sa(nl, &shared, &fixed);
    sat::CnfBuilder sb(nl, &shared, &fixed);
    std::vector<sat::Lit> sx;
    for (int i = 0; i < 5; ++i) sx.push_back(sat::mk_lit(shared.new_var()));
    const sat::CnfBuilder::SharedCopy sc =
        sat::CnfBuilder::add_shared_copies(sa, sb, sx);
    EXPECT_EQ(sc.shared_cells, nl.num_cells());
    EXPECT_LT(shared.num_vars(), legacy.num_vars());
    // Shared PO literals must coincide between the two family copies.
    EXPECT_EQ(sc.a.po, sc.b.po);
}

TEST(SharedMiter, AttackReportsSharedCells) {
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(9);
    const CamoNetlist nl = random_camo_netlist(lib, 4, 2, 8, rng);
    std::vector<bool> fixed(static_cast<std::size_t>(nl.num_nodes()), false);
    int pinned = 0;
    for (int id = 0; id < nl.num_nodes() && pinned < 4; ++id) {
        if (nl.node(id).kind == CamoNetlist::NodeKind::kCell) {
            fixed[static_cast<std::size_t>(id)] = true;
            ++pinned;
        }
    }
    SimOracle oracle(nl, nl.configuration_for_code(0));
    OracleAttackParams params;
    params.fixed_nominal = &fixed;
    params.shared_miter = true;
    const OracleAttackResult r = oracle_attack(nl, oracle, params);
    EXPECT_TRUE(r.solved());
    EXPECT_GT(r.shared_cells, 0u);
}

}  // namespace
}  // namespace mvf::attack
