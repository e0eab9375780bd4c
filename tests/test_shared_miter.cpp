// The structure-shared miter (CnfBuilder::add_shared_copies): cone cells
// whose selector is collapsed to one choice (fixed_nominal cells) are
// encoded once for both selector families, and the attack reports how many
// cells that saved.  That the shared encoding leaves the attack's outcome
// alone is pinned by the brute-force survivor counts of
// CountDifferential.ExactMatchesBruteForceAndEnumeration, whose fixed_nominal
// densities are where cells get shared.

#include <gtest/gtest.h>

#include <vector>

#include "attack/oracle_attack.hpp"
#include "attack/random_camo.hpp"
#include "sat/cnf_builder.hpp"
#include "util/rng.hpp"

namespace mvf::attack {
namespace {

using camo::CamoLibrary;
using camo::CamoNetlist;

CamoLibrary standard_camo_library() {
    return CamoLibrary::from_gate_library(tech::GateLibrary::standard());
}

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
    const OracleAttackResult r = oracle_attack(nl, oracle, params);
    EXPECT_TRUE(r.solved());
    EXPECT_GT(r.shared_cells, 0u);
}

}  // namespace
}  // namespace mvf::attack
