// camo::inject -- camouflage injection over imported, technology-mapped
// circuits: budget/policy selection, determinism, and the semantic anchor
// that the hidden configuration (code 0) still computes the imported
// circuit's function.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "camo/inject.hpp"
#include "io/import.hpp"
#include "net/aig_sim.hpp"
#include "sim/netlist_sim.hpp"

namespace mvf::camo {
namespace {

using logic::TruthTable;

const char* kRca4Blif =
    ".model rca4\n.inputs a0 a1 a2 a3 b0 b1 b2 b3 cin\n"
    ".outputs s0 s1 s2 s3 cout\n"
    ".names a0 b0 cin s0\n001 1\n010 1\n100 1\n111 1\n"
    ".names a0 b0 cin c1\n11- 1\n1-1 1\n-11 1\n"
    ".names a1 b1 c1 s1\n001 1\n010 1\n100 1\n111 1\n"
    ".names a1 b1 c1 c2\n11- 1\n1-1 1\n-11 1\n"
    ".names a2 b2 c2 s2\n001 1\n010 1\n100 1\n111 1\n"
    ".names a2 b2 c2 c3\n11- 1\n1-1 1\n-11 1\n"
    ".names a3 b3 c3 s3\n001 1\n010 1\n100 1\n111 1\n"
    ".names a3 b3 c3 cout\n11- 1\n1-1 1\n-11 1\n.end\n";

struct Mapped {
    io::ImportedCircuit circuit;
    tech::Netlist netlist;
};

Mapped mapped_rca4() {
    std::istringstream in(kRca4Blif);
    io::ImportedCircuit circuit = io::read_blif(in);
    tech::Netlist netlist =
        io::import_netlist(circuit, tech::MatchCache::standard());
    return {std::move(circuit), std::move(netlist)};
}

CamoLibrary standard_library() {
    return CamoLibrary::from_gate_library(tech::GateLibrary::standard());
}

int count_free(const InjectResult& r) {
    int free_cells = 0;
    for (int id = 0; id < r.netlist.num_nodes(); ++id) {
        if (r.netlist.node(id).kind != CamoNetlist::NodeKind::kCell) continue;
        if (!r.fixed_nominal[static_cast<std::size_t>(id)]) ++free_cells;
    }
    return free_cells;
}

TEST(Inject, HiddenConfigPreservesImportedFunction) {
    const Mapped m = mapped_rca4();
    const CamoLibrary lib = standard_library();
    for (const double density : {0.1, 0.5, 1.0}) {
        InjectParams params;
        params.density = density;
        params.seed = 5;
        const InjectResult r = inject(m.netlist, lib, params);
        ASSERT_TRUE(r.netlist.validate());
        EXPECT_EQ(
            sim::simulate_camo_full(r.netlist,
                                    r.netlist.configuration_for_code(0)),
            net::simulate_full(m.circuit.aig))
            << "density " << density;
    }
}

TEST(Inject, DensityAndCellBudgets) {
    const Mapped m = mapped_rca4();
    const CamoLibrary lib = standard_library();

    InjectParams params;
    params.density = 0.25;
    const InjectResult by_density = inject(m.netlist, lib, params);
    const int expect = std::max(
        1, static_cast<int>(std::llround(0.25 * by_density.total_cells)));
    EXPECT_EQ(by_density.stats.num_cells, expect);
    EXPECT_EQ(count_free(by_density), expect);

    params.cells = 3;
    const InjectResult by_cells = inject(m.netlist, lib, params);
    EXPECT_EQ(by_cells.stats.num_cells, 3);
    EXPECT_EQ(count_free(by_cells), 3);
    EXPECT_GT(by_cells.stats.config_space_bits, 0.0);

    // cells beyond the netlist size clamps to everything.
    params.cells = 1 << 20;
    const InjectResult all = inject(m.netlist, lib, params);
    EXPECT_EQ(all.stats.num_cells, all.total_cells);
    EXPECT_EQ(count_free(all), all.total_cells);
}

TEST(Inject, SameSeedSameSelectionDifferentSeedUsuallyNot) {
    const Mapped m = mapped_rca4();
    const CamoLibrary lib = standard_library();
    InjectParams params;
    params.density = 0.3;
    params.seed = 42;
    const InjectResult a = inject(m.netlist, lib, params);
    const InjectResult b = inject(m.netlist, lib, params);
    EXPECT_EQ(a.fixed_nominal, b.fixed_nominal);

    // Some seed in a small pool must pick a different subset; determinism
    // plus actual seed-sensitivity.
    bool differs = false;
    for (std::uint64_t seed = 43; seed < 53 && !differs; ++seed) {
        params.seed = seed;
        differs = inject(m.netlist, lib, params).fixed_nominal !=
                  a.fixed_nominal;
    }
    EXPECT_TRUE(differs);
}

TEST(Inject, FanoutPolicyPicksHighestFanoutCells) {
    const Mapped m = mapped_rca4();
    const CamoLibrary lib = standard_library();
    InjectParams params;
    params.cells = 2;
    params.policy = InjectPolicy::kFanout;
    const InjectResult r = inject(m.netlist, lib, params);
    ASSERT_EQ(count_free(r), 2);
    // Deterministic: policies never consult the seed.
    params.seed = 999;
    EXPECT_EQ(inject(m.netlist, lib, params).fixed_nominal, r.fixed_nominal);
}

TEST(Inject, DepthPolicyIsDeterministicAndValid) {
    const Mapped m = mapped_rca4();
    const CamoLibrary lib = standard_library();
    InjectParams params;
    params.cells = 4;
    params.policy = InjectPolicy::kDepth;
    const InjectResult r = inject(m.netlist, lib, params);
    EXPECT_EQ(count_free(r), 4);
    EXPECT_EQ(inject(m.netlist, lib, params).fixed_nominal, r.fixed_nominal);
    EXPECT_EQ(
        sim::simulate_camo_full(r.netlist, r.netlist.configuration_for_code(0)),
        net::simulate_full(m.circuit.aig));
}

TEST(Inject, PolicyNamesRoundTrip) {
    for (const InjectPolicy p :
         {InjectPolicy::kRandom, InjectPolicy::kFanout, InjectPolicy::kDepth}) {
        InjectPolicy back;
        ASSERT_TRUE(inject_policy_from_name(inject_policy_name(p), &back));
        EXPECT_EQ(back, p);
    }
    InjectPolicy ignored;
    EXPECT_FALSE(inject_policy_from_name("sideways", &ignored));
}

TEST(Inject, ConfigSpaceBitsCountsOnlyFreeCells) {
    const Mapped m = mapped_rca4();
    const CamoLibrary lib = standard_library();
    InjectParams params;
    params.cells = 2;
    const InjectResult r = inject(m.netlist, lib, params);
    double bits = 0.0;
    for (int id = 0; id < r.netlist.num_nodes(); ++id) {
        const CamoNetlist::Node& n = r.netlist.node(id);
        if (n.kind != CamoNetlist::NodeKind::kCell) continue;
        if (r.fixed_nominal[static_cast<std::size_t>(id)]) continue;
        bits += lib.cell(n.camo_cell_id).config_bits();
    }
    EXPECT_DOUBLE_EQ(r.stats.config_space_bits, bits);
    EXPECT_GT(bits, 0.0);
}

}  // namespace
}  // namespace mvf::camo
