// Tests for the projected model-counting subsystem (src/count/).
//
// Anchors:
//   - Count128: overflow-checked 128-bit arithmetic saturates instead of
//     wrapping, and survives decimal round-trips.
//   - ProjectedCounter: exact projected counts on hand-built CNFs with
//     known answers, and differentially against brute force and legacy
//     enumeration on random camouflaged netlists (widths 2-6, several
//     densities and seeds).
//   - The attack integration: a netlist whose selector space exceeds the
//     old 2^20 enumeration cap by far more than 2^20x is counted exactly
//     (status kSolved), while enumerate mode saturates at the cap without
//     uint64 wraparound (the overflow regression).
//   - Golden search pins: every CounterStats field except `propagations`
//     (decisions, components, cache traffic, evictions, existence checks)
//     on seeded random CNFs and two attack instances, so a change to the
//     counter's inner loop that alters the search fails here by name.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "attack/adversary.hpp"
#include "attack/oracle_attack.hpp"
#include "attack/random_camo.hpp"
#include "camo_brute_force.hpp"
#include "count/cnf.hpp"
#include "count/count128.hpp"
#include "count/projected_counter.hpp"
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
using logic::TruthTable;
using testing_support::brute_force_count;

// ---------------------------------------------------------------- Count128

TEST(Count128, BasicArithmeticAndStrings) {
    Count128 c;
    EXPECT_TRUE(c.is_zero());
    EXPECT_EQ(c.to_string(), "0");
    c.add_u64(41);
    c.mul_u64(3);
    c.add_u64(1);
    EXPECT_EQ(c.to_string(), "124");
    EXPECT_EQ(c.to_u64_saturating(), 124u);
    EXPECT_EQ(c.bit_width(), 7);

    Count128 big(UINT64_MAX);
    big.add_u64(1);  // 2^64
    EXPECT_EQ(big.hi(), 1u);
    EXPECT_EQ(big.lo(), 0u);
    EXPECT_EQ(big.to_string(), "18446744073709551616");
    EXPECT_EQ(big.to_u64_saturating(), UINT64_MAX);
    EXPECT_FALSE(big.saturated());

    Count128 parsed;
    ASSERT_TRUE(Count128::from_string("18446744073709551616", &parsed));
    EXPECT_EQ(parsed, big);
    EXPECT_FALSE(Count128::from_string("", &parsed));
    EXPECT_FALSE(Count128::from_string("12x", &parsed));
}

TEST(Count128, ShiftAndCompare) {
    Count128 one = Count128::one();
    one.shift_left(100);
    EXPECT_EQ(one.bit_width(), 101);
    EXPECT_FALSE(one.saturated());
    Count128 two = Count128::one();
    two.shift_left(101);
    EXPECT_TRUE(one < two);

    Count128 over = Count128::one();
    over.shift_left(128);
    EXPECT_TRUE(over.saturated());
    EXPECT_EQ(over.to_u64_saturating(), UINT64_MAX);
}

TEST(Count128, SaturationIsStickyAndNeverWraps) {
    Count128 c(UINT64_MAX);
    c.mul_u64(UINT64_MAX);  // (2^64-1)^2 < 2^128: fits
    EXPECT_FALSE(c.saturated());
    c.mul_u64(3);  // now overflows
    EXPECT_TRUE(c.saturated());
    EXPECT_EQ(c.hi(), UINT64_MAX);
    EXPECT_EQ(c.lo(), UINT64_MAX);
    c.add_u64(7);  // sticky: stays pinned
    EXPECT_TRUE(c.saturated());
    EXPECT_EQ(c.lo(), UINT64_MAX);
    EXPECT_EQ(c.to_string().substr(0, 2), ">=");

    Count128 round_trip;
    ASSERT_TRUE(Count128::from_string(c.to_string(), &round_trip));
    EXPECT_TRUE(round_trip.saturated());
}

TEST(Count128, ZeroAnnihilatesSaturation) {
    // A saturated value is a lower bound on an unknown true count, but
    // that count times 0 is exactly 0: the flag must clear, not pin the
    // product to 2^128 - 1 (a counting branch with an UNSAT component
    // contributes nothing however huge its other components were).
    Count128 sat = Count128::saturated_max();
    sat.mul_u64(0);
    EXPECT_TRUE(sat.is_zero());
    EXPECT_FALSE(sat.saturated());

    Count128 z = Count128::zero();
    z.mul(Count128::saturated_max());
    EXPECT_TRUE(z.is_zero());
    EXPECT_FALSE(z.saturated());

    Count128 s2 = Count128::saturated_max();
    s2.mul(Count128::zero());
    EXPECT_TRUE(s2.is_zero());
    EXPECT_FALSE(s2.saturated());

    // Addition keeps the sticky lower bound (0 + >=max is >=max).
    Count128 a = Count128::zero();
    a.add(Count128::saturated_max());
    EXPECT_TRUE(a.saturated());
}

TEST(Count128, OverflowHelpers) {
    std::uint64_t out = 0;
    EXPECT_FALSE(mul_overflow_u64(1ull << 31, 1ull << 31, &out));
    EXPECT_EQ(out, 1ull << 62);
    EXPECT_TRUE(mul_overflow_u64(1ull << 32, 1ull << 32, &out));
    EXPECT_FALSE(add_overflow_u64(UINT64_MAX - 1, 1, &out));
    EXPECT_EQ(out, UINT64_MAX);
    EXPECT_TRUE(add_overflow_u64(UINT64_MAX, 1, &out));
}

// ---------------------------------------------------- ProjectedCounter CNF

Cnf make_cnf(int num_vars, std::vector<std::vector<sat::Lit>> clauses,
             std::vector<sat::Var> projection) {
    Cnf cnf;
    cnf.num_vars = num_vars;
    cnf.clauses = std::move(clauses);
    cnf.projection = std::move(projection);
    return cnf;
}

std::uint64_t exact_count(Cnf cnf, CounterConfig config = {}) {
    ProjectedCounter pc(std::move(cnf), config);
    const ProjectedCounter::Result r = pc.count();
    EXPECT_TRUE(r.exact);
    EXPECT_FALSE(r.count.saturated());
    return r.count.to_u64_saturating();
}

sat::Lit pos(sat::Var v) { return sat::mk_lit(v); }
sat::Lit neg(sat::Var v) { return sat::mk_lit(v, true); }

TEST(ProjectedCounter, EmptyFormulaCountsFreeProjectionVars) {
    EXPECT_EQ(exact_count(make_cnf(4, {}, {0, 1, 2})), 8u);
    EXPECT_EQ(exact_count(make_cnf(4, {}, {})), 1u);
}

TEST(ProjectedCounter, UnitsAndContradictions) {
    EXPECT_EQ(exact_count(make_cnf(2, {{pos(0)}}, {0, 1})), 2u);
    EXPECT_EQ(exact_count(make_cnf(2, {{pos(0)}, {neg(0)}}, {0, 1})), 0u);
    EXPECT_EQ(exact_count(make_cnf(2, {{}}, {0, 1})), 0u);
    // Tautologies constrain nothing.
    EXPECT_EQ(exact_count(make_cnf(2, {{pos(0), neg(0)}}, {0, 1})), 4u);
}

TEST(ProjectedCounter, SmallFormulasWithKnownCounts) {
    // x0 | x1 over {x0, x1}: 3 of 4.
    EXPECT_EQ(exact_count(make_cnf(2, {{pos(0), pos(1)}}, {0, 1})), 3u);
    // (x0|x1)(x0|x2): satisfying assignments: x0=1 -> 4; x0=0 -> x1=x2=1.
    EXPECT_EQ(exact_count(
                  make_cnf(3, {{pos(0), pos(1)}, {pos(0), pos(2)}}, {0, 1, 2})),
              5u);
    // XOR chain x0^x1^x2 = 1 has 4 models of 8.
    EXPECT_EQ(exact_count(make_cnf(3,
                                   {{pos(0), pos(1), pos(2)},
                                    {pos(0), neg(1), neg(2)},
                                    {neg(0), pos(1), neg(2)},
                                    {neg(0), neg(1), pos(2)}},
                                   {0, 1, 2})),
              4u);
}

TEST(ProjectedCounter, ProjectionExistentiallyQuantifiesTheRest) {
    // (p | y)(p | !y): projecting onto {p}: p=1 extends (y free), p=0 is
    // contradictory once y is forced both ways -> count 1.  Over {p, y}
    // the count is 2 (p=1 with either y).
    const std::vector<std::vector<sat::Lit>> clauses = {{pos(0), pos(1)},
                                                        {pos(0), neg(1)}};
    EXPECT_EQ(exact_count(make_cnf(2, clauses, {0})), 1u);
    EXPECT_EQ(exact_count(make_cnf(2, clauses, {0, 1})), 2u);
    // (p | y): p=0 extends via y=1 -> both p values count.
    EXPECT_EQ(exact_count(make_cnf(2, {{pos(0), pos(1)}}, {0})), 2u);
}

TEST(ProjectedCounter, IndependentComponentsMultiply) {
    // Three disjoint "at least one of two" blocks: 3^3 = 27, and the
    // decomposition should see three components.
    Cnf cnf = make_cnf(6,
                       {{pos(0), pos(1)}, {pos(2), pos(3)}, {pos(4), pos(5)}},
                       {0, 1, 2, 3, 4, 5});
    ProjectedCounter pc(std::move(cnf));
    const ProjectedCounter::Result r = pc.count();
    EXPECT_TRUE(r.exact);
    EXPECT_EQ(r.count.to_u64_saturating(), 27u);
    EXPECT_GE(r.stats.components, 3u);
}

TEST(ProjectedCounter, CountsAreIndependentOfCacheBudget) {
    // A formula with enough structure to fill a tiny cache: counts must
    // not change, only the cache statistics.
    std::vector<std::vector<sat::Lit>> clauses;
    const int blocks = 8;
    for (int b = 0; b < blocks; ++b) {
        const sat::Var v0 = 3 * b, v1 = 3 * b + 1, v2 = 3 * b + 2;
        clauses.push_back({pos(v0), pos(v1), pos(v2)});
        clauses.push_back({neg(v0), neg(v1), neg(v2)});
    }
    std::vector<sat::Var> proj;
    for (int v = 0; v < 3 * blocks; ++v) proj.push_back(v);

    CounterConfig tiny;
    tiny.cache_bytes = 1 << 10;
    const std::uint64_t reference =
        exact_count(make_cnf(3 * blocks, clauses, proj));
    EXPECT_EQ(exact_count(make_cnf(3 * blocks, clauses, proj), tiny),
              reference);
    // 6 of 8 assignments per block.
    std::uint64_t expected = 1;
    for (int b = 0; b < blocks; ++b) expected *= 6;
    EXPECT_EQ(reference, expected);
}

TEST(ProjectedCounter, DecisionCapBoundsExistenceChecksToo) {
    // Pigeonhole PHP(7, 6) with an EMPTY projection: the whole formula is
    // one projection-free component, so counting degenerates to a hard
    // existence check -- the decision budget must still abort it.
    const int pigeons = 7, holes = 6;
    Cnf cnf;
    cnf.num_vars = pigeons * holes;
    const auto at = [holes](int p, int h) { return p * holes + h; };
    for (int p = 0; p < pigeons; ++p) {
        std::vector<sat::Lit> some;
        for (int h = 0; h < holes; ++h) some.push_back(pos(at(p, h)));
        cnf.clauses.push_back(std::move(some));
    }
    for (int h = 0; h < holes; ++h) {
        for (int p1 = 0; p1 < pigeons; ++p1) {
            for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
                cnf.clauses.push_back({neg(at(p1, h)), neg(at(p2, h))});
            }
        }
    }
    CounterConfig capped;
    capped.max_decisions = 20;
    ProjectedCounter pc(std::move(cnf), capped);
    const ProjectedCounter::Result r = pc.count();
    EXPECT_FALSE(r.exact);
    EXPECT_LE(r.stats.decisions, 21u + 20u);  // bounded, not exponential
}

TEST(ProjectedCounter, DecisionCapAbortsWithoutExactness) {
    std::vector<std::vector<sat::Lit>> clauses;
    for (int b = 0; b < 6; ++b) {
        clauses.push_back({pos(3 * b), pos(3 * b + 1), pos(3 * b + 2)});
    }
    std::vector<sat::Var> proj;
    for (int v = 0; v < 18; ++v) proj.push_back(v);
    CounterConfig capped;
    capped.max_decisions = 3;
    ProjectedCounter pc(make_cnf(18, clauses, proj), capped);
    const ProjectedCounter::Result r = pc.count();
    EXPECT_FALSE(r.exact);
}

// Malformed instances are rejected up front: both counters index arrays by
// variable and literal, so an out-of-range id must not reach them.

TEST(ProjectedCounter, RejectsNegativeVariableCount) {
    EXPECT_THROW(ProjectedCounter(make_cnf(-1, {}, {})), std::invalid_argument);
}

TEST(ProjectedCounter, RejectsLiteralsOutsideTheVariableRange) {
    EXPECT_THROW(ProjectedCounter(make_cnf(2, {{pos(0), pos(2)}}, {0})),
                 std::invalid_argument);
    EXPECT_THROW(ProjectedCounter(make_cnf(2, {{pos(0), -1}}, {0})),
                 std::invalid_argument);
}

TEST(ProjectedCounter, RejectsProjectionOutsideTheVariableRange) {
    EXPECT_THROW(ProjectedCounter(make_cnf(2, {{pos(0)}}, {0, 2})),
                 std::invalid_argument);
    EXPECT_THROW(ProjectedCounter(make_cnf(2, {{pos(0)}}, {-1})),
                 std::invalid_argument);
}

// ------------------------------------------- differential on camo netlists

CamoLibrary standard_camo_library() {
    return CamoLibrary::from_gate_library(tech::GateLibrary::standard());
}

/// 2 PIs, one live camouflaged NAND2 driving the PO, and `dead` additional
/// camouflaged cells outside the PO cone.  The survivor count is
/// (#plausible)^dead x (live survivors): astronomically beyond any
/// enumeration cap, and trivially decomposable for the projected counter.
CamoNetlist dead_tail_netlist(const CamoLibrary& lib, int dead) {
    CamoNetlist nl(lib);
    const int camo_id = lib.camo_of_nominal(lib.gate_library().find("NAND2"));
    const int a = nl.add_pi("a");
    const int b = nl.add_pi("b");
    const auto make_cell = [&](void) {
        CamoNetlist::Node cell;
        cell.kind = CamoNetlist::NodeKind::kCell;
        cell.camo_cell_id = camo_id;
        cell.fanins = {a, b};
        cell.used_pin_mask = 3;
        cell.config_fn = {0};
        return cell;
    };
    for (int i = 0; i < dead; ++i) nl.add_cell(make_cell());
    nl.add_po(nl.add_cell(make_cell()), "o");
    return nl;
}

TEST(CountDifferential, ExactMatchesBruteForceAndEnumeration) {
    // Random camouflaged netlists, widths 2-6, fully camouflaged and two
    // fixed_nominal densities: brute force over the whole configuration
    // space, legacy enumeration, and the projected counter must agree
    // exactly (status kSolved all around).
    const CamoLibrary lib = standard_camo_library();
    int cases = 0;
    for (int pis = 2; pis <= 6; ++pis) {
        for (std::uint64_t seed = 0; seed < 6; ++seed) {
            util::Rng rng(seed * 52361 + static_cast<std::uint64_t>(pis));
            const int pos_count = 1 + rng.uniform_int(0, 1);
            const int cells =
                std::max(pis, pos_count) + rng.uniform_int(1, 3);
            const CamoNetlist nl =
                attack::random_camo_netlist(lib, pis, pos_count, cells, rng);

            for (const double density : {0.0, 0.5, 0.9}) {
                std::vector<bool> fixed(
                    static_cast<std::size_t>(nl.num_nodes()), false);
                for (int id = 0; id < nl.num_nodes(); ++id) {
                    if (nl.node(id).kind == CamoNetlist::NodeKind::kCell &&
                        rng.coin(density)) {
                        fixed[static_cast<std::size_t>(id)] = true;
                    }
                }
                const std::vector<int> hidden = nl.configuration_for_code(0);
                const auto oracle_fn = sim::simulate_camo_full(nl, hidden);
                const auto brute =
                    brute_force_count(nl, oracle_fn, fixed, 60000);
                if (!brute) continue;
                ++cases;
                const std::string tag = "pis=" + std::to_string(pis) +
                                        " seed=" + std::to_string(seed) +
                                        " density=" + std::to_string(density);

                // Brute force counts over the attacker's space: fixed cells
                // pinned to their nominal choice, the others free.  The
                // fixed cells are also the ones the attack's miter and
                // constraint stamps share between its two families.
                OracleAttackParams base;
                base.fixed_nominal = density > 0.0 ? &fixed : nullptr;

                OracleAttackParams enumerate = base;
                enumerate.count_mode = CountMode::kEnumerate;
                enumerate.max_survivors = UINT64_MAX;
                SimOracle oracle_e(nl, hidden);
                const OracleAttackResult re =
                    attack::oracle_attack(nl, oracle_e, enumerate);
                ASSERT_EQ(re.status, OracleAttackResult::Status::kSolved)
                    << tag;

                OracleAttackParams exact = base;
                exact.count_mode = CountMode::kExact;
                exact.count_max_decisions = 0;  // no fallback: pure counter
                SimOracle oracle_x(nl, hidden);
                const OracleAttackResult rx =
                    attack::oracle_attack(nl, oracle_x, exact);
                ASSERT_EQ(rx.status, OracleAttackResult::Status::kSolved)
                    << tag;
                EXPECT_EQ(rx.count_mode, CountMode::kExact) << tag;

                EXPECT_EQ(rx.surviving_configs, re.surviving_configs) << tag;
                EXPECT_EQ(rx.survivors.to_string(), re.survivors.to_string())
                    << tag;
                EXPECT_EQ(rx.surviving_configs, *brute) << tag;
                // Witnesses implement the oracle function.
                ASSERT_FALSE(rx.witness_config.empty()) << tag;
                EXPECT_EQ(sim::simulate_camo_full(nl, rx.witness_config),
                          oracle_fn)
                    << tag;
            }
        }
    }
    ASSERT_GE(cases, 40) << "generator produced too few tractable netlists";

    // bench_count's --quick rows whose enumeration completes, with spaces
    // past the brute force above: dead4, and rand6s2 (generator seed
    // 2 * 6101 + 6), counted under the bench's 400,000-decision budget.
    util::Rng rng(2 * 6101 + 6);
    const CamoNetlist dead4 = dead_tail_netlist(lib, 4);
    const CamoNetlist rand6s2 = attack::random_camo_netlist(lib, 6, 2, 9, rng);
    for (const auto& [tag, nl] :
         {std::pair{"dead4", &dead4}, std::pair{"rand6s2", &rand6s2}}) {
        const std::vector<int> hidden = nl->configuration_for_code(0);
        OracleAttackParams enumerate;
        enumerate.count_mode = CountMode::kEnumerate;
        enumerate.max_survivors = 1u << 14;
        SimOracle oracle_e(*nl, hidden);
        const OracleAttackResult re =
            attack::oracle_attack(*nl, oracle_e, enumerate);
        ASSERT_EQ(re.status, OracleAttackResult::Status::kSolved) << tag;

        OracleAttackParams exact;
        exact.count_mode = CountMode::kExact;
        exact.count_max_decisions = 400'000;
        SimOracle oracle_x(*nl, hidden);
        const OracleAttackResult rx = attack::oracle_attack(*nl, oracle_x, exact);
        ASSERT_EQ(rx.status, OracleAttackResult::Status::kSolved) << tag;
        EXPECT_EQ(rx.count_mode, CountMode::kExact) << tag;
        EXPECT_EQ(rx.survivors.to_string(), re.survivors.to_string()) << tag;
    }
}

// -------------------------------------- the uncapped-space acceptance case

TEST(CountDifferential, ExactCounterRemovesTheEnumerationCap) {
    const CamoLibrary lib = standard_camo_library();
    const int dead = 50;
    const CamoNetlist nl = dead_tail_netlist(lib, dead);
    const std::size_t choices =
        lib.cell(nl.node(nl.num_pis()).camo_cell_id).plausible.size();
    ASSERT_GE(choices, 2u);

    // Expected: choices^dead x 1 (the oracle pins the live NAND exactly --
    // its plausible set realizes NAND only once).
    Count128 expected = Count128::one();
    for (int i = 0; i < dead; ++i) {
        expected.mul_u64(static_cast<std::uint64_t>(choices));
    }
    ASSERT_FALSE(expected.saturated());
    // The acceptance bar: beyond the old 2^20 cap by >= 2^20x.
    ASSERT_GE(expected.bit_width(), 41);

    SimOracle oracle(nl, nl.configuration_for_code(0));
    OracleAttackParams params;
    params.count_mode = CountMode::kExact;
    const OracleAttackResult r = attack::oracle_attack(nl, oracle, params);
    ASSERT_EQ(r.status, OracleAttackResult::Status::kSolved);
    EXPECT_EQ(r.count_mode, CountMode::kExact);
    EXPECT_EQ(r.survivors.to_string(), expected.to_string());
    EXPECT_EQ(r.surviving_configs, UINT64_MAX);  // saturated uint64 mirror
    // 5^50 with the standard library's NAND2 plausible set.
    if (choices == 5) {
        EXPECT_EQ(r.survivors.to_string(),
                  "88817841970012523233890533447265625");
    }
    // Cheap: the dead tail decomposes into one component per cell.
    EXPECT_LE(r.count_stats.decisions, 100000u);

    // On the same netlist the legacy enumeration stops at its cap.
    OracleAttackParams capped;
    capped.count_mode = CountMode::kEnumerate;
    capped.max_survivors = 1u << 14;
    SimOracle oracle_e(nl, nl.configuration_for_code(0));
    EXPECT_EQ(attack::oracle_attack(nl, oracle_e, capped).status,
              OracleAttackResult::Status::kSurvivorLimit);
}

TEST(CountDifferential, ExactReportRoundTripsThroughJson) {
    // An exact-mode CEGAR report carries the count block (mode, decimal
    // survivors_str beyond uint64, counter stats); serialize and parse it
    // back field-for-field.  The flow-level round-trip test pins the
    // enumerate backend, so this is the counting modes' coverage.
    const CamoLibrary lib = standard_camo_library();
    const CamoNetlist nl = dead_tail_netlist(lib, 50);
    SimOracle oracle(nl, nl.configuration_for_code(0));
    OracleAttackParams params;
    params.count_mode = CountMode::kExact;
    attack::CegarAdversary adversary(params);
    const attack::AdversaryReport report = adversary.attack(nl, &oracle);
    EXPECT_EQ(report.count_mode, "exact");
    EXPECT_GT(report.survivors_str.size(), 20u);  // way past uint64 digits
    EXPECT_EQ(report.survivors, UINT64_MAX);      // saturated mirror

    const std::string text = report.to_json().dump(2);
    const attack::AdversaryReport parsed =
        attack::AdversaryReport::from_json(report::Json::parse(text));
    EXPECT_TRUE(parsed == report) << text;
}

TEST(CountDifferential, EnumerationSaturatesAtTheCapWithoutWrapping) {
    // Overflow regression (the satellite fix): the dead-cone freedom
    // product overflows uint64 long before the enumeration loop runs; the
    // checked arithmetic must saturate to the cap, never wrap to a small
    // "exact-looking" count.
    const CamoLibrary lib = standard_camo_library();
    const CamoNetlist nl = dead_tail_netlist(lib, 120);  // choices^120 >> 2^64
    SimOracle oracle(nl, nl.configuration_for_code(0));

    OracleAttackParams params;
    params.count_mode = CountMode::kEnumerate;
    params.max_survivors = UINT64_MAX;  // the worst case for wraparound
    const OracleAttackResult r = attack::oracle_attack(nl, oracle, params);
    ASSERT_EQ(r.status, OracleAttackResult::Status::kSurvivorLimit);
    EXPECT_EQ(r.surviving_configs, UINT64_MAX);

    OracleAttackParams capped;
    capped.count_mode = CountMode::kEnumerate;
    capped.max_survivors = 1u << 20;
    SimOracle oracle2(nl, nl.configuration_for_code(0));
    const OracleAttackResult rc = attack::oracle_attack(nl, oracle2, capped);
    ASSERT_EQ(rc.status, OracleAttackResult::Status::kSurvivorLimit);
    EXPECT_EQ(rc.surviving_configs, 1u << 20);
}

TEST(CountDifferential, BudgetExhaustionFallsBackToEnumeration) {
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(7);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 4, 1, 6, rng);
    SimOracle oracle(nl, nl.configuration_for_code(0));
    OracleAttackParams params;
    params.count_mode = CountMode::kExact;
    params.count_max_decisions = 1;  // force the fallback
    params.max_survivors = 1u << 20;
    const OracleAttackResult r = attack::oracle_attack(nl, oracle, params);
    // The fallback is visible and the result is the legacy enumeration's.
    EXPECT_EQ(r.count_mode, CountMode::kEnumerate);
    ASSERT_TRUE(r.status == OracleAttackResult::Status::kSolved ||
                r.status == OracleAttackResult::Status::kSurvivorLimit);
    SimOracle oracle2(nl, nl.configuration_for_code(0));
    OracleAttackParams legacy;
    legacy.count_mode = CountMode::kEnumerate;
    const OracleAttackResult rl = attack::oracle_attack(nl, oracle2, legacy);
    EXPECT_EQ(r.surviving_configs, rl.surviving_configs);
}

TEST(CountDifferential, SkippedCountingEmitsNoCountBlock) {
    // enumerate_survivors=false: no backend ran, so the report must not
    // claim a counting mode or an (exact-looking) zero count.
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(5);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 4, 1, 6, rng);
    SimOracle oracle(nl, nl.configuration_for_code(0));
    OracleAttackParams params;
    params.enumerate_survivors = false;
    attack::CegarAdversary adversary(params);
    const attack::AdversaryReport report = adversary.attack(nl, &oracle);
    EXPECT_FALSE(adversary.last_result()->counted);
    EXPECT_TRUE(report.count_mode.empty());
    EXPECT_TRUE(report.survivors_str.empty());
    const report::Json j = report.to_json();
    EXPECT_EQ(j.find("count"), nullptr);
    const attack::AdversaryReport parsed =
        attack::AdversaryReport::from_json(report::Json::parse(j.dump()));
    EXPECT_TRUE(parsed == report);
}

TEST(CountDifferential, ZeroSurvivorCapIsRefused) {
    // A zero cap used to clamp the enumerated total to 0, which then read
    // as "no survivor".  The smallest cap is 1: "at least one survives".
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(5);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 4, 1, 6, rng);
    SimOracle oracle(nl, nl.configuration_for_code(0));
    std::vector<std::vector<bool>> inputs, answers;
    for (unsigned bits = 0; bits < 16u; ++bits) {
        std::vector<bool> in(4);
        for (std::size_t i = 0; i < in.size(); ++i) in[i] = (bits >> i) & 1u;
        answers.push_back(oracle.query(in));
        inputs.push_back(std::move(in));
    }
    OracleAttackParams params;
    params.max_survivors = 0;
    for (const CountMode mode : {CountMode::kEnumerate, CountMode::kExact}) {
        params.count_mode = mode;
        OracleAttackResult r;
        EXPECT_THROW(attack::count_consistent_configs(nl, inputs, answers,
                                                      params, &r),
                     std::invalid_argument);
    }

    params.count_mode = CountMode::kEnumerate;
    params.max_survivors = 1;
    OracleAttackResult r;
    attack::count_consistent_configs(nl, inputs, answers, params, &r);
    EXPECT_EQ(r.status, OracleAttackResult::Status::kSurvivorLimit);
    EXPECT_EQ(r.surviving_configs, 1u);
}

// ---------------------------------------------------------- golden search

/// FNV-1a over 64-bit words: one value pins a whole series of runs.
struct Digest {
    std::uint64_t h = 1469598103934665603ull;
    void add(std::uint64_t word) {
        h ^= word;
        h *= 1099511628211ull;
    }
};

/// Every figure the search alone decides: the count, its exactness and all
/// CounterStats fields but `propagations` (which depends on the order
/// propagation visits clauses on conflicting branches).
void add_search(Digest* d, const ProjectedCounter::Result& r) {
    d->add(r.count.hi());
    d->add(r.count.lo());
    d->add(r.count.saturated() ? 1 : 0);
    d->add(r.exact ? 1 : 0);
    const CounterStats& s = r.stats;
    for (const std::uint64_t field :
         {s.decisions, s.components, s.cache_hits, s.cache_stores,
          s.cache_evictions, s.sat_checks,
          static_cast<std::uint64_t>(s.cache_entries),
          static_cast<std::uint64_t>(s.cache_peak_bytes)}) {
        d->add(field);
    }
}

Cnf golden_random_cnf(std::uint64_t seed) {
    util::Rng rng(seed * 7919 + 17);
    Cnf cnf;
    cnf.num_vars = 3 + rng.uniform_int(0, 37);  // up to 40 variables
    const int num_clauses =
        rng.uniform_int(cnf.num_vars / 2, 3 * cnf.num_vars);  // ratio <= 3
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

TEST(ProjectedCounter, GoldenSearchOnRandomCnfs) {
    // The search (branches, components, cache keys and entries) is part of
    // the counter's contract: an optimization of its inner loop must leave
    // every figure below as it is.  The sums name the path that moved: the
    // tiny cache drives the eviction sweep, and the capped run aborts.
    struct Pin {
        const char* name;
        CounterConfig config;
        std::uint64_t digest;
        std::uint64_t decisions;
        std::uint64_t evictions;
        std::uint64_t sat_checks;
        std::uint64_t aborts;
    };
    CounterConfig tiny_cache;
    tiny_cache.cache_bytes = 8 << 10;
    CounterConfig capped;
    capped.max_decisions = 25;
    const Pin pins[] = {
        {"serial", {}, 14096805626713199403ull, 48350, 0, 4007, 0},
        {"cache_8k", tiny_cache, 9033786053172840266ull, 77245, 31394, 9602, 0},
        {"max_decisions_25", capped, 16928515801331086323ull, 3793, 0, 405,
         112},
    };
    for (const Pin& pin : pins) {
        Digest digest;
        std::uint64_t decisions = 0, evictions = 0, sat_checks = 0, aborts = 0;
        for (std::uint64_t seed = 0; seed < 300; ++seed) {
            ProjectedCounter pc(golden_random_cnf(seed), pin.config);
            const ProjectedCounter::Result r = pc.count();
            add_search(&digest, r);
            decisions += r.stats.decisions;
            evictions += r.stats.cache_evictions;
            sat_checks += r.stats.sat_checks;
            if (!r.exact) ++aborts;
        }
        EXPECT_EQ(digest.h, pin.digest) << pin.name;
        EXPECT_EQ(decisions, pin.decisions) << pin.name;
        EXPECT_EQ(evictions, pin.evictions) << pin.name;
        EXPECT_EQ(sat_checks, pin.sat_checks) << pin.name;
        EXPECT_EQ(aborts, pin.aborts) << pin.name;
    }
}

TEST(ProjectedCounter, GoldenSearchOnAttackInstances) {
    // The survivor counts of two randP6 attack instances (the randP shape
    // of bench_count: 2 POs, PIs + 3 cells, rng seed salt * 6101 + PIs)
    // over their own CEGAR inputs, with the default count parameters.
    struct Pin {
        std::uint64_t salt;
        const char* survivors;
        CounterStats stats;
    };
    const Pin pins[] = {
        {10, "5040",
         {.decisions = 11838, .components = 9880, .cache_hits = 3961,
          .cache_stores = 5919, .cache_evictions = 0, .sat_checks = 0,
          .cache_entries = 5919, .cache_peak_bytes = 15071384}},
        {4, "66924",
         {.decisions = 13968, .components = 10943, .cache_hits = 3959,
          .cache_stores = 6984, .cache_evictions = 0, .sat_checks = 0,
          .cache_entries = 6984, .cache_peak_bytes = 23120244}},
    };
    const CamoLibrary lib = standard_camo_library();
    for (const Pin& pin : pins) {
        const int pis = 6;
        util::Rng rng(pin.salt * 6101 + pis);
        const CamoNetlist nl =
            attack::random_camo_netlist(lib, pis, 2, pis + 3, rng);
        const std::vector<int> hidden = nl.configuration_for_code(0);
        OracleAttackParams cegar;
        cegar.enumerate_survivors = false;  // the inputs only
        SimOracle oracle(nl, hidden);
        const OracleAttackResult attack = attack::oracle_attack(nl, oracle, cegar);
        std::vector<std::vector<bool>> answers;
        for (const std::vector<bool>& in : attack.distinguishing_inputs) {
            answers.push_back(oracle.query(in));
        }
        OracleAttackResult counted;
        attack::count_consistent_configs(nl, attack.distinguishing_inputs,
                                         answers, OracleAttackParams{},
                                         &counted);
        const std::string tag = "randP6 salt " + std::to_string(pin.salt);
        EXPECT_EQ(counted.count_mode, CountMode::kExact) << tag;
        EXPECT_EQ(counted.survivors.to_string(), pin.survivors) << tag;
        const CounterStats& got = counted.count_stats;
        EXPECT_EQ(got.decisions, pin.stats.decisions) << tag;
        EXPECT_EQ(got.components, pin.stats.components) << tag;
        EXPECT_EQ(got.cache_hits, pin.stats.cache_hits) << tag;
        EXPECT_EQ(got.cache_stores, pin.stats.cache_stores) << tag;
        EXPECT_EQ(got.cache_evictions, pin.stats.cache_evictions) << tag;
        EXPECT_EQ(got.sat_checks, pin.stats.sat_checks) << tag;
        EXPECT_EQ(got.cache_entries, pin.stats.cache_entries) << tag;
        EXPECT_EQ(got.cache_peak_bytes, pin.stats.cache_peak_bytes) << tag;
    }
}

// ------------------------------------------------ saturation and zero --

TEST(ProjectedCounter, SaturatedCountIsAnInexactLowerBound) {
    // 4 x 2^140 models (140 free projection variables) overflow Count128:
    // the count saturates at 2^128 - 1, reports exact = false and renders
    // as a ">=" lower bound instead of wrapping.
    const int free_vars = 140;
    const int vars = 3 + free_vars;
    const std::vector<std::vector<sat::Lit>> clauses = {
        {pos(0), pos(1)},   // x0=0 forces x1=1 ...
        {pos(0), neg(1)},   // ... and x1=0: only x0=1 survives.
        {pos(0), pos(2)}};
    std::vector<sat::Var> proj;
    for (sat::Var v = 0; v < vars; ++v) proj.push_back(v);

    ProjectedCounter pc(make_cnf(vars, clauses, proj));
    const ProjectedCounter::Result r = pc.count();
    EXPECT_TRUE(r.count.saturated());
    EXPECT_FALSE(r.exact);
    EXPECT_EQ(r.count.to_string().substr(0, 2), ">=");
}

TEST(ProjectedCounter, UnsatisfiableFormulaCountsAnExactZero) {
    // Every assignment of x0 and x1 falsifies a clause: the count is a
    // clean, non-saturated, exact "0" however many projection variables
    // are free.
    const int vars = 2 + 20;
    const std::vector<std::vector<sat::Lit>> clauses = {{pos(0), pos(1)},
                                                        {pos(0), neg(1)},
                                                        {neg(0), pos(1)},
                                                        {neg(0), neg(1)}};
    std::vector<sat::Var> proj;
    for (sat::Var v = 0; v < vars; ++v) proj.push_back(v);

    ProjectedCounter pc(make_cnf(vars, clauses, proj));
    const ProjectedCounter::Result r = pc.count();
    EXPECT_TRUE(r.exact);
    EXPECT_TRUE(r.count.is_zero());
    EXPECT_FALSE(r.count.saturated());
    EXPECT_EQ(r.count.to_string(), "0");
}

}  // namespace
}  // namespace mvf::count
