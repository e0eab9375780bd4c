// Seeded fuzz harnesses for the projected model counter ("slow" ctest
// label, like the other differential fuzzers).
//
//   - Random-CNF projected counting vs. brute force over the projection
//     set (existence per projected assignment decided by sat::Solver) and,
//     when the projection covers every variable, vs. truth-table #SAT.
//   - Random camouflaged netlists: the attack's exact count equals the
//     count recorded for the instance, and with half the cells known
//     nominal, each encoding of the counting tail (constant stamps folded
//     or not, preprocessed or not) counts what brute force counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "attack/oracle_attack.hpp"
#include "attack/random_camo.hpp"
#include "camo_brute_force.hpp"
#include "count/cnf.hpp"
#include "count/projected_counter.hpp"
#include "sat/cnf_builder.hpp"
#include "sat/simplify.hpp"
#include "sat/solver.hpp"
#include "sim/netlist_sim.hpp"
#include "util/rng.hpp"

namespace mvf::count {
namespace {

using attack::CountMode;
using attack::OracleAttackParams;
using attack::OracleAttackResult;
using attack::SimOracle;
using camo::CamoLibrary;
using camo::CamoNetlist;

Cnf random_cnf(util::Rng& rng, int max_vars) {
    Cnf cnf;
    cnf.num_vars = 3 + rng.uniform_int(0, max_vars - 3);
    // Clause/variable ratio drawn below the unsat threshold most of the
    // time so the count distribution is rich (0 .. 2^|projection|), with
    // occasional unit clauses and duplicate literals to stress
    // normalization.
    const int num_clauses =
        rng.uniform_int(cnf.num_vars / 2, 2 * cnf.num_vars);
    for (int c = 0; c < num_clauses; ++c) {
        const int len = rng.coin(0.08) ? 1 : 2 + rng.uniform_int(0, 2);
        std::vector<sat::Lit> clause;
        for (int i = 0; i < len; ++i) {
            const sat::Var v = rng.uniform_int(0, cnf.num_vars - 1);
            clause.push_back(sat::mk_lit(v, rng.coin(0.5)));
        }
        cnf.clauses.push_back(std::move(clause));
    }
    for (sat::Var v = 0; v < cnf.num_vars; ++v) {
        if (rng.coin(0.6)) cnf.projection.push_back(v);
    }
    return cnf;
}

/// Reference: for each assignment to the projection set, one incremental
/// SAT existence query under assumptions.
std::uint64_t brute_force_projected(const Cnf& cnf) {
    sat::Solver solver;
    for (int v = 0; v < cnf.num_vars; ++v) solver.new_var();
    bool contradiction = false;
    for (const auto& c : cnf.clauses) {
        if (!solver.add_clause(c)) contradiction = true;
    }
    if (contradiction) return 0;
    const std::size_t k = cnf.projection.size();
    std::uint64_t count = 0;
    std::vector<sat::Lit> assumptions(k);
    for (std::uint64_t bits = 0; bits < (1ull << k); ++bits) {
        for (std::size_t i = 0; i < k; ++i) {
            assumptions[i] =
                sat::mk_lit(cnf.projection[i], ((bits >> i) & 1) == 0);
        }
        if (solver.solve(assumptions) == sat::Solver::Result::kSat) ++count;
    }
    return count;
}

/// Reference for full-projection instances: truth-table evaluation.
std::uint64_t brute_force_models(const Cnf& cnf) {
    std::uint64_t count = 0;
    for (std::uint64_t bits = 0; bits < (1ull << cnf.num_vars); ++bits) {
        bool ok = true;
        for (const auto& c : cnf.clauses) {
            bool satisfied = false;
            for (const sat::Lit l : c) {
                const bool value = ((bits >> sat::lit_var(l)) & 1) != 0;
                if (value != sat::lit_negated(l)) {
                    satisfied = true;
                    break;
                }
            }
            if (!satisfied) {
                ok = false;
                break;
            }
        }
        if (ok) ++count;
    }
    return count;
}

TEST(CountFuzz, RandomCnfProjectedCountsMatchBruteForce) {
    std::uint64_t nonzero = 0;
    for (std::uint64_t seed = 0; seed < 400; ++seed) {
        util::Rng rng(seed * 48611 + 5);
        Cnf cnf = random_cnf(rng, 13);
        if (cnf.projection.size() > 10) cnf.projection.resize(10);
        const std::uint64_t expected = brute_force_projected(cnf);
        if (expected > 1) ++nonzero;

        ProjectedCounter pc(cnf);
        const ProjectedCounter::Result r = pc.count();
        ASSERT_TRUE(r.exact) << "seed " << seed;
        EXPECT_EQ(r.count.to_u64_saturating(), expected) << "seed " << seed;
    }
    // The sweep must exercise real counting, not a parade of UNSAT cores.
    EXPECT_GE(nonzero, 200u);
}

TEST(CountFuzz, RandomCnfFullProjectionMatchesTruthTableSharpSat) {
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        util::Rng rng(seed * 74093 + 11);
        Cnf cnf = random_cnf(rng, 12);
        cnf.projection.clear();
        for (sat::Var v = 0; v < cnf.num_vars; ++v) {
            cnf.projection.push_back(v);
        }
        const std::uint64_t expected = brute_force_models(cnf);
        ProjectedCounter pc(cnf);
        const ProjectedCounter::Result r = pc.count();
        ASSERT_TRUE(r.exact) << "seed " << seed;
        EXPECT_EQ(r.count.to_u64_saturating(), expected) << "seed " << seed;
    }
}

// The survivor count is a function of the instance, not of the CNF that
// produced it.  Each (seed, pis) instance is attacked once, by the attack's
// one pipeline (the shared miter, folded constant stamps, preprocessing),
// and must report the survivor count recorded for it: that is the
// "shared_pre" shard.  The instance's other three shards pin the counting
// tail's two fast paths against brute force instead: every other cell of
// the netlist is known nominal, the instance's exhaustive I/O constraint
// set is stamped with constant cones folded ("shared") or not and
// preprocessed ("pre") or not, and its exact count must equal the number
// of free-cell assignments that simulate to the chip's function.  One test
// per (seed, pis, encoding), so that ctest -j spreads them over the cores.
struct EncodingCase {
    std::uint64_t seed;
    int pis;
    bool shared;
    bool preprocess;
};

// Also the shard's name in ctest (gtest_discover_tests prints the value).
std::ostream& operator<<(std::ostream& os, const EncodingCase& c) {
    return os << "seed" << c.seed << "_pis" << c.pis
              << (c.shared ? "_shared" : "_unshared")
              << (c.preprocess ? "_pre" : "_nopre");
}

// Exact survivor counts of the instances, indexed [seed][pis - 3].
constexpr const char* kSurvivors[10][3] = {
    {"4335", "15", "1080405"},      {"79137", "73352", "117045"},
    {"882", "567", "3289404"},      {"63234", "113960358", "126"},
    {"1008", "136080", "261126"},   {"27", "567", "325125"},
    {"3312", "11739", "43206912"},  {"280977", "93852", "48195"},
    {"1568", "40800", "3120"},      {"25818", "14067", "21312"},
};

std::vector<EncodingCase> encoding_cases() {
    std::vector<EncodingCase> cases;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        for (int pis = 3; pis <= 5; ++pis) {
            for (const bool shared : {true, false}) {
                for (const bool preprocess : {true, false}) {
                    cases.push_back({seed, pis, shared, preprocess});
                }
            }
        }
    }
    return cases;
}

/// Exact count of the configurations (cells marked in `fixed` pinned to
/// their nominal function) that agree with `oracle` on every input
/// pattern: one constant-input stamp per pattern, its outputs pinned to
/// the answer, counted over the selectors.
std::uint64_t count_exhaustive(const CamoNetlist& nl,
                               const std::vector<bool>& fixed,
                               SimOracle& oracle, bool fold, bool preprocess) {
    sat::Solver solver;
    sat::CnfBuilder family(nl, &solver, &fixed);
    const int m = nl.num_pis();
    for (std::uint64_t bits = 0; bits < (1ull << m); ++bits) {
        std::vector<bool> in(static_cast<std::size_t>(m));
        for (int i = 0; i < m; ++i) {
            in[static_cast<std::size_t>(i)] = ((bits >> i) & 1) != 0;
        }
        const std::vector<bool> out = oracle.query(in);
        const sat::CnfBuilder::Copy copy = family.add_copy(in, fold);
        for (std::size_t q = 0; q < copy.po.size(); ++q) {
            solver.add_unit(out[q] ? copy.po[q] : sat::lit_not(copy.po[q]));
        }
    }
    if (preprocess) {
        sat::Preprocessor pre(&solver);
        const std::vector<sat::Var> frozen = family.frozen_vars();
        pre.freeze_all(frozen);
        pre.run();
    }
    std::vector<sat::Var> projection;
    for (int id = 0; id < nl.num_nodes(); ++id) {
        const std::vector<sat::Var>& sel = family.selectors(id);
        projection.insert(projection.end(), sel.begin(), sel.end());
    }
    const ProjectedCounter::Result r =
        ProjectedCounter(cnf_from_solver(solver, projection)).count();
    EXPECT_TRUE(r.exact);
    return r.count.to_u64_saturating();
}

class EncodingShard : public ::testing::TestWithParam<EncodingCase> {};

TEST_P(EncodingShard, ExactCountsAreEncodingIndependent) {
    const EncodingCase& c = GetParam();
    const CamoLibrary lib =
        CamoLibrary::from_gate_library(tech::GateLibrary::standard());
    util::Rng rng(c.seed * 15541 + static_cast<std::uint64_t>(c.pis));
    const int pos_count = 1 + rng.uniform_int(0, 1);
    const int cells = std::max(c.pis, pos_count) + rng.uniform_int(1, 4);
    const CamoNetlist nl =
        attack::random_camo_netlist(lib, c.pis, pos_count, cells, rng);
    const std::vector<int> hidden = nl.configuration_for_code(0);
    SimOracle oracle(nl, hidden);

    if (c.shared && c.preprocess) {
        OracleAttackParams params;
        params.count_mode = CountMode::kExact;
        params.count_max_decisions = 0;
        const OracleAttackResult r = attack::oracle_attack(nl, oracle, params);
        ASSERT_EQ(r.status, OracleAttackResult::Status::kSolved);
        EXPECT_EQ(r.survivors.to_string(),
                  kSurvivors[c.seed][static_cast<std::size_t>(c.pis - 3)]);
        return;
    }
    std::vector<bool> fixed(static_cast<std::size_t>(nl.num_nodes()), false);
    bool pin = true;
    for (int id = 0; id < nl.num_nodes(); ++id) {
        if (nl.node(id).kind != CamoNetlist::NodeKind::kCell) continue;
        fixed[static_cast<std::size_t>(id)] = pin;
        pin = !pin;
    }
    const std::optional<std::uint64_t> brute =
        testing_support::brute_force_count(
            nl, sim::simulate_camo_full(nl, hidden), fixed, 1u << 20);
    ASSERT_TRUE(brute.has_value());
    EXPECT_EQ(count_exhaustive(nl, fixed, oracle, c.shared, c.preprocess),
              *brute);
}

INSTANTIATE_TEST_SUITE_P(CountFuzz, EncodingShard,
                         ::testing::ValuesIn(encoding_cases()));

}  // namespace
}  // namespace mvf::count
