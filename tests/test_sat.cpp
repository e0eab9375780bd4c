// Tests for the CDCL SAT solver.

#include <gtest/gtest.h>

#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace mvf::sat {
namespace {

TEST(Sat, EmptyInstanceIsSat) {
    Solver s;
    EXPECT_EQ(s.solve(), Solver::Result::kSat);
}

TEST(Sat, UnitPropagationChain) {
    Solver s;
    const Var a = s.new_var();
    const Var b = s.new_var();
    const Var c = s.new_var();
    s.add_unit(mk_lit(a));
    s.add_binary(mk_lit(a, true), mk_lit(b));
    s.add_binary(mk_lit(b, true), mk_lit(c));
    ASSERT_EQ(s.solve(), Solver::Result::kSat);
    EXPECT_TRUE(s.model_value(a));
    EXPECT_TRUE(s.model_value(b));
    EXPECT_TRUE(s.model_value(c));
}

TEST(Sat, ContradictoryUnitsAreUnsat) {
    Solver s;
    const Var a = s.new_var();
    EXPECT_TRUE(s.add_unit(mk_lit(a)));
    EXPECT_FALSE(s.add_unit(mk_lit(a, true)));
    EXPECT_EQ(s.solve(), Solver::Result::kUnsat);
}

TEST(Sat, TautologicalClauseIgnored) {
    Solver s;
    const Var a = s.new_var();
    const Var b = s.new_var();
    EXPECT_TRUE(s.add_clause({mk_lit(a), mk_lit(a, true), mk_lit(b)}));
    EXPECT_EQ(s.solve(), Solver::Result::kSat);
}

TEST(Sat, DuplicateLiteralsCollapse) {
    Solver s;
    const Var a = s.new_var();
    s.add_clause({mk_lit(a), mk_lit(a), mk_lit(a)});
    ASSERT_EQ(s.solve(), Solver::Result::kSat);
    EXPECT_TRUE(s.model_value(a));
}

TEST(Sat, XorChainRequiresSearch) {
    // x0 ^ x1 ^ x2 = 1 as CNF; satisfiable with odd parity.
    Solver s;
    const Var x0 = s.new_var();
    const Var x1 = s.new_var();
    const Var x2 = s.new_var();
    // clauses for odd parity over 3 vars
    s.add_ternary(mk_lit(x0), mk_lit(x1), mk_lit(x2));
    s.add_ternary(mk_lit(x0), mk_lit(x1, true), mk_lit(x2, true));
    s.add_ternary(mk_lit(x0, true), mk_lit(x1), mk_lit(x2, true));
    s.add_ternary(mk_lit(x0, true), mk_lit(x1, true), mk_lit(x2));
    ASSERT_EQ(s.solve(), Solver::Result::kSat);
    const int parity = static_cast<int>(s.model_value(x0)) +
                       static_cast<int>(s.model_value(x1)) +
                       static_cast<int>(s.model_value(x2));
    EXPECT_EQ(parity % 2, 1);
}

void add_pigeonhole(Solver* s, int pigeons, int holes) {
    for (int i = 0; i < pigeons * holes; ++i) s->new_var();
    for (int p = 0; p < pigeons; ++p) {
        std::vector<Lit> at_least;
        for (int h = 0; h < holes; ++h) at_least.push_back(mk_lit(p * holes + h));
        s->add_clause(at_least);
    }
    for (int h = 0; h < holes; ++h) {
        for (int p1 = 0; p1 < pigeons; ++p1) {
            for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
                s->add_binary(mk_lit(p1 * holes + h, true),
                              mk_lit(p2 * holes + h, true));
            }
        }
    }
}

TEST(Sat, PigeonholeUnsatFamily) {
    for (int n = 2; n <= 6; ++n) {
        Solver s;
        add_pigeonhole(&s, n + 1, n);
        EXPECT_EQ(s.solve(), Solver::Result::kUnsat) << "PHP(" << n + 1 << "," << n << ")";
        EXPECT_GT(s.stats().conflicts, 0u);
    }
}

TEST(Sat, PigeonholeSatWhenEnoughHoles) {
    Solver s;
    add_pigeonhole(&s, 4, 4);
    EXPECT_EQ(s.solve(), Solver::Result::kSat);
}

TEST(Sat, AssumptionsRestrictSolutions) {
    Solver s;
    const Var a = s.new_var();
    const Var b = s.new_var();
    s.add_binary(mk_lit(a), mk_lit(b));
    ASSERT_EQ(s.solve({mk_lit(a, true)}), Solver::Result::kSat);
    EXPECT_FALSE(s.model_value(a));
    EXPECT_TRUE(s.model_value(b));
    // Incompatible assumptions.
    s.add_binary(mk_lit(a, true), mk_lit(b, true));
    EXPECT_EQ(s.solve({mk_lit(a), mk_lit(b)}), Solver::Result::kUnsat);
    // Solver remains usable afterwards.
    EXPECT_EQ(s.solve(), Solver::Result::kSat);
}

TEST(Sat, ModelSatisfiesAllClauses) {
    util::Rng rng(99);
    for (int trial = 0; trial < 50; ++trial) {
        const int nv = 10;
        Solver s;
        for (int v = 0; v < nv; ++v) s.new_var();
        std::vector<std::vector<Lit>> clauses;
        for (int c = 0; c < 35; ++c) {
            std::vector<Lit> cl;
            const int w = 1 + rng.uniform_int(0, 2);
            for (int k = 0; k < w; ++k) {
                cl.push_back(mk_lit(rng.uniform_int(0, nv - 1), rng.coin(0.5)));
            }
            clauses.push_back(cl);
            s.add_clause(cl);
        }
        if (s.solve() != Solver::Result::kSat) continue;
        for (const auto& cl : clauses) {
            bool sat = false;
            for (const Lit l : cl) {
                if (s.model_value(lit_var(l)) != lit_negated(l)) {
                    sat = true;
                    break;
                }
            }
            EXPECT_TRUE(sat) << "model violates a clause (trial " << trial << ")";
        }
    }
}

// Randomized differential test against brute force.
class SatRandomDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SatRandomDifferential, MatchesBruteForce) {
    util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
    for (int trial = 0; trial < 120; ++trial) {
        const int nv = 4 + rng.uniform_int(0, 8);
        const int nc = 5 + rng.uniform_int(0, nv * 5);
        std::vector<std::vector<Lit>> clauses;
        for (int c = 0; c < nc; ++c) {
            std::vector<Lit> cl;
            const int w = 1 + rng.uniform_int(0, 3);
            for (int k = 0; k < w; ++k) {
                cl.push_back(mk_lit(rng.uniform_int(0, nv - 1), rng.coin(0.5)));
            }
            clauses.push_back(cl);
        }
        bool brute = false;
        for (std::uint32_t a = 0; a < (1u << nv) && !brute; ++a) {
            bool all = true;
            for (const auto& cl : clauses) {
                bool sat = false;
                for (const Lit l : cl) {
                    if ((((a >> lit_var(l)) & 1) != 0) != lit_negated(l)) {
                        sat = true;
                        break;
                    }
                }
                if (!sat) {
                    all = false;
                    break;
                }
            }
            brute = all;
        }
        Solver s;
        for (int v = 0; v < nv; ++v) s.new_var();
        for (const auto& cl : clauses) s.add_clause(cl);
        EXPECT_EQ(s.solve() == Solver::Result::kSat, brute)
            << "seed " << GetParam() << " trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatRandomDifferential, ::testing::Range(0, 8));

TEST(Sat, StatsAccumulate) {
    Solver s;
    add_pigeonhole(&s, 6, 5);
    s.solve();
    EXPECT_GT(s.stats().conflicts, 0u);
    EXPECT_GT(s.stats().decisions, 0u);
    EXPECT_GT(s.stats().propagations, 0u);
    EXPECT_EQ(s.stats().solves, 1u);
    EXPECT_GT(s.stats().max_decision_level, 0u);
    EXPECT_GT(s.stats().solve_seconds, 0.0);
}

TEST(Sat, PerSolveDeltaIsolatesEachCall) {
    Solver s;
    add_pigeonhole(&s, 6, 5);  // UNSAT: plenty of conflicts
    ASSERT_EQ(s.solve(), Solver::Result::kUnsat);
    const Solver::SolveDelta first = s.last_solve();
    EXPECT_EQ(first.result, Solver::Result::kUnsat);
    EXPECT_GT(first.conflicts, 0u);
    EXPECT_GT(first.decisions, 0u);
    EXPECT_GT(first.propagations, 0u);
    EXPECT_GT(first.max_decision_level, 0u);
    EXPECT_GE(first.seconds, 0.0);
    EXPECT_EQ(first.conflicts, s.stats().conflicts);

    // A trivially satisfiable second solve on a fresh solver: the delta
    // reflects only that call, while stats() keep the running totals.
    Solver t;
    add_pigeonhole(&t, 6, 5);
    ASSERT_EQ(t.solve(), Solver::Result::kUnsat);
    // The search ended on a level-0 conflict, which marks the whole
    // database contradictory.
    EXPECT_FALSE(t.ok());
    const std::uint64_t after_first = t.stats().conflicts;
    // An UNSAT solver stays UNSAT: the second call short-circuits and the
    // delta must be all-zero, not a stale copy of the first call's work.
    ASSERT_EQ(t.solve(), Solver::Result::kUnsat);
    EXPECT_EQ(t.last_solve().conflicts, 0u);
    EXPECT_EQ(t.last_solve().result, Solver::Result::kUnsat);
    EXPECT_EQ(t.stats().conflicts, after_first);
    EXPECT_EQ(t.stats().solves, 2u);

    // Cumulative totals across a multi-call solver: sum of the deltas.
    Solver u;
    for (int v = 0; v < 4; ++v) u.new_var();
    u.add_clause({mk_lit(0), mk_lit(1)});
    std::uint64_t decisions_sum = 0;
    double seconds_sum = 0.0;
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(u.solve(), Solver::Result::kSat);
        decisions_sum += u.last_solve().decisions;
        seconds_sum += u.last_solve().seconds;
    }
    EXPECT_EQ(u.stats().solves, 3u);
    EXPECT_EQ(u.stats().decisions, decisions_sum);
    EXPECT_DOUBLE_EQ(u.stats().solve_seconds, seconds_sum);
}

// Brute-force satisfiability of a clause set over nv variables.
bool brute_force_sat(int nv, const std::vector<std::vector<Lit>>& clauses) {
    for (std::uint32_t a = 0; a < (1u << nv); ++a) {
        bool all = true;
        for (const auto& cl : clauses) {
            bool sat = false;
            for (const Lit l : cl) {
                if ((((a >> lit_var(l)) & 1) != 0) != lit_negated(l)) {
                    sat = true;
                    break;
                }
            }
            if (!sat) {
                all = false;
                break;
            }
        }
        if (all) return true;
    }
    return false;
}

TEST(Sat, IncrementalClauseAdditionMatchesBruteForce) {
    // The CEGAR attacker's usage pattern: grow one instance across many
    // solve() calls and require each intermediate answer to stay exact.
    util::Rng rng(2024);
    for (int trial = 0; trial < 30; ++trial) {
        const int nv = 6 + rng.uniform_int(0, 4);
        Solver s;
        for (int v = 0; v < nv; ++v) s.new_var();
        std::vector<std::vector<Lit>> clauses;
        bool expect_sat = true;
        for (int stage = 0; stage < 6; ++stage) {
            const int nc = 3 + rng.uniform_int(0, 6);
            for (int c = 0; c < nc; ++c) {
                std::vector<Lit> cl;
                const int w = 1 + rng.uniform_int(0, 2);
                for (int k = 0; k < w; ++k) {
                    cl.push_back(mk_lit(rng.uniform_int(0, nv - 1), rng.coin(0.5)));
                }
                clauses.push_back(cl);
                s.add_clause(cl);
            }
            expect_sat = brute_force_sat(nv, clauses);
            ASSERT_EQ(s.solve() == Solver::Result::kSat, expect_sat)
                << "trial " << trial << " stage " << stage;
            if (!expect_sat) break;  // permanently UNSAT from here on
        }
    }
}

TEST(Sat, IncrementalSolvesUnderChangingAssumptions) {
    util::Rng rng(55);
    for (int trial = 0; trial < 20; ++trial) {
        const int nv = 5 + rng.uniform_int(0, 3);
        Solver s;
        for (int v = 0; v < nv; ++v) s.new_var();
        std::vector<std::vector<Lit>> clauses;
        for (int c = 0; c < 2 * nv; ++c) {
            std::vector<Lit> cl;
            const int w = 2 + rng.uniform_int(0, 1);
            for (int k = 0; k < w; ++k) {
                cl.push_back(mk_lit(rng.uniform_int(0, nv - 1), rng.coin(0.5)));
            }
            clauses.push_back(cl);
            s.add_clause(cl);
        }
        for (int round = 0; round < 10; ++round) {
            std::vector<Lit> assumptions;
            std::vector<std::vector<Lit>> augmented = clauses;
            for (int a = 0; a < 2; ++a) {
                const Lit l = mk_lit(rng.uniform_int(0, nv - 1), rng.coin(0.5));
                assumptions.push_back(l);
                augmented.push_back({l});
            }
            ASSERT_EQ(s.solve(assumptions) == Solver::Result::kSat,
                      brute_force_sat(nv, augmented))
                << "trial " << trial << " round " << round;
        }
    }
}

TEST(Sat, AssumptionFailureLeavesSolverUsable) {
    // Regression: an UNSAT return caused by a false assumption used to
    // leave the trail above level 0, corrupting later add_clause() calls.
    Solver s;
    const Var a = s.new_var();
    const Var b = s.new_var();
    s.add_binary(mk_lit(a, true), mk_lit(b, true));
    EXPECT_EQ(s.solve({mk_lit(a), mk_lit(b)}), Solver::Result::kUnsat);
    EXPECT_TRUE(s.add_unit(mk_lit(a)));
    ASSERT_EQ(s.solve(), Solver::Result::kSat);
    EXPECT_TRUE(s.model_value(a));
    EXPECT_FALSE(s.model_value(b));
}

TEST(Sat, ReduceDbPreservesUnsatResult) {
    Solver s;
    s.set_learned_limit(25);
    add_pigeonhole(&s, 7, 6);
    EXPECT_EQ(s.solve(), Solver::Result::kUnsat);
    EXPECT_GT(s.stats().reduces, 0u);
    EXPECT_GT(s.stats().learned_removed, 0u);
}

TEST(Sat, ReduceDbMatchesBruteForceOnRandomInstances) {
    util::Rng rng(808);
    for (int trial = 0; trial < 40; ++trial) {
        const int nv = 8 + rng.uniform_int(0, 4);
        const int nc = 4 * nv + rng.uniform_int(0, 3 * nv);
        std::vector<std::vector<Lit>> clauses;
        for (int c = 0; c < nc; ++c) {
            std::vector<Lit> cl;
            const int w = 2 + rng.uniform_int(0, 1);
            for (int k = 0; k < w; ++k) {
                cl.push_back(mk_lit(rng.uniform_int(0, nv - 1), rng.coin(0.5)));
            }
            clauses.push_back(cl);
        }
        Solver s;
        s.set_learned_limit(5);  // reduce aggressively
        for (int v = 0; v < nv; ++v) s.new_var();
        for (const auto& cl : clauses) s.add_clause(cl);
        EXPECT_EQ(s.solve() == Solver::Result::kSat,
                  brute_force_sat(nv, clauses))
            << "trial " << trial;
    }
}

}  // namespace
}  // namespace mvf::sat
