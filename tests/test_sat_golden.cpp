// Pinned search of the CDCL kernel (sat::Solver).
//
// The solver's search is part of its contract: CEGAR schedules
// inprocessing on the growth of num_clauses(), perfbench gates on the
// conflicts, decisions and propagations it reports, and a change to the
// clause layout or the hot loops must leave every one of them where it
// was.  Each test below runs a corpus and folds the verdict and every
// Solver::Stats field but solve_seconds (wall time) into one FNV-1a digest.
// The literals were recorded with the per-clause std::vector kernel that
// the flat clause arena replaced; the sums beside each digest name the
// figure that moved when one fails.
//
// The corpus: the test_sat_fuzz CNFs (plain, preprocessed, and under
// assumptions with inprocessing), random 3-SAT under a small learned-clause
// limit so reduce_db runs, the plausibility encodings of PRESENT 2 and 3
// flow outputs, and CEGAR on random camouflaged netlists.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "attack/oracle_attack.hpp"
#include "attack/plausibility.hpp"
#include "attack/random_camo.hpp"
#include "flow/merged_spec.hpp"
#include "flow/obfuscation_flow.hpp"
#include "sat/simplify.hpp"
#include "sat_corpus.hpp"
#include "sbox/sbox_data.hpp"
#include "util/rng.hpp"

namespace mvf::sat {
namespace {

/// FNV-1a over 64-bit words, plus the sums that name what moved.
struct Tally {
    std::uint64_t digest = 1469598103934665603ull;
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t reduces = 0;

    void add(std::uint64_t word) {
        digest ^= word;
        digest *= 1099511628211ull;
    }
    void add_stats(const Solver::Stats& s) {
        for (const std::uint64_t field :
             {s.conflicts, s.decisions, s.propagations, s.restarts, s.learned,
              s.reduces, s.learned_removed, s.preprocess_runs,
              s.eliminated_vars, s.subsumed_clauses, s.strengthened_lits,
              s.solves, s.max_decision_level}) {
            add(field);
        }
    }
    /// One finished solver: its last verdict and its cumulative stats.
    void add_solver(Solver::Result r, const Solver::Stats& s) {
        add(static_cast<std::uint64_t>(r));
        add_stats(s);
        conflicts += s.conflicts;
        decisions += s.decisions;
        propagations += s.propagations;
        reduces += s.reduces;
    }
};

struct Pin {
    const char* name;
    std::uint64_t digest;
    std::uint64_t conflicts;
    std::uint64_t decisions;
    std::uint64_t propagations;
};

void expect_pin(const Tally& got, const Pin& pin) {
    EXPECT_EQ(got.digest, pin.digest) << pin.name;
    EXPECT_EQ(got.conflicts, pin.conflicts) << pin.name;
    EXPECT_EQ(got.decisions, pin.decisions) << pin.name;
    EXPECT_EQ(got.propagations, pin.propagations) << pin.name;
}

TEST(Sat, GoldenSearchOnFuzzCorpus) {
    // SatFuzz's 800 instances and preprocessing configurations, drawn from
    // the same seeds in the same order.  Each plain solver then solves
    // again under three assumptions from a separate stream.
    Tally plain_tally;
    Tally pre_tally;
    Tally assumed_tally;
    util::Rng assume_rng(77);
    for (int shard = 0; shard < 8; ++shard) {
        util::Rng rng(corpus::fuzz_shard_seed(shard));
        for (int trial = 0; trial < 100; ++trial) {
            int nv = 0;
            const corpus::Clauses clauses = corpus::make_instance(rng, trial, &nv);
            Solver plain;
            Solver pre;
            for (int v = 0; v < nv; ++v) {
                plain.new_var();
                pre.new_var();
            }
            for (const auto& cl : clauses) {
                plain.add_clause(cl);
                pre.add_clause(cl);
            }
            SolverConfig config;
            config.elim_occ_limit = 4 + rng.uniform_int(0, 40);
            config.elim_growth = rng.uniform_int(0, 8);
            config.elim_resolvent_limit = 4 + rng.uniform_int(0, 40);
            config.max_rounds = 1 + rng.uniform_int(0, 4);
            Preprocessor preprocessor(&pre, config);
            const int frozen = rng.uniform_int(0, nv / 2);
            for (int i = 0; i < frozen; ++i) {
                preprocessor.freeze(rng.uniform_int(0, nv - 1));
            }
            preprocessor.run();
            plain_tally.add_solver(plain.solve(), plain.stats());
            plain_tally.add(plain.num_clauses());
            std::vector<Lit> assumptions;
            for (int a = 0; a < 3; ++a) {
                assumptions.push_back(mk_lit(assume_rng.uniform_int(0, nv - 1),
                                             assume_rng.coin(0.5)));
            }
            // Cumulative: both of the plain solver's calls.
            assumed_tally.add_solver(plain.solve(assumptions), plain.stats());
            pre_tally.add_solver(pre.solve(), pre.stats());
            pre_tally.add(pre.num_clauses());
            // The problem clauses in database order, as the counters read
            // them.
            for (const std::vector<Lit>& cl : pre.snapshot_clauses()) {
                pre_tally.add(cl.size());
                for (const Lit l : cl) pre_tally.add(static_cast<std::uint64_t>(l));
            }
        }
    }
    expect_pin(plain_tally, {"plain", 2640693074958354827ull, 5669, 8629, 64642});
    expect_pin(pre_tally, {"preprocessed", 8020909061094676573ull, 4477, 6413, 43473});
    expect_pin(assumed_tally, {"plain then assumptions", 9950977667369335138ull, 5803, 9198,
                               68800});
}

TEST(Sat, GoldenSearchUnderAssumptions) {
    // SatFuzzIncremental's shape: preprocess, then interleave clause adds
    // over frozen and fresh variables, a light or full inprocessing run,
    // and solves under assumptions.
    Tally tally;
    for (int shard = 0; shard < 4; ++shard) {
        util::Rng rng(corpus::incremental_shard_seed(shard));
        for (int trial = 0; trial < 40; ++trial) {
            const int nv = 5 + rng.uniform_int(0, 4);
            Solver s;
            for (int v = 0; v < nv; ++v) s.new_var();
            const int nc = 4 + rng.uniform_int(0, 3 * nv);
            for (int c = 0; c < nc; ++c) {
                s.add_clause(corpus::random_clause(rng, nv, 1, 3));
            }
            std::vector<Var> frozen;
            for (int v = 0; v < nv; ++v) {
                if (rng.coin(0.5)) frozen.push_back(v);
            }
            {
                Preprocessor preprocessor(&s);
                preprocessor.freeze_all(frozen);
                preprocessor.run();
            }
            for (int stage = 0; stage < 5; ++stage) {
                if (!frozen.empty()) {
                    const Var fresh = s.new_var();
                    const Var anchor = frozen[static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<int>(frozen.size()) - 1))];
                    s.add_binary(mk_lit(fresh, true), mk_lit(anchor, rng.coin(0.5)));
                    s.add_binary(mk_lit(fresh), mk_lit(anchor, rng.coin(0.5)));
                }
                if (stage == 2) {
                    Preprocessor preprocessor(&s);
                    preprocessor.freeze_all(frozen);
                    if (rng.coin(0.5)) {
                        preprocessor.run_light();
                    } else {
                        for (Var v = nv; v < s.num_vars(); ++v) preprocessor.freeze(v);
                        preprocessor.run();
                    }
                }
                std::vector<Lit> assumptions;
                for (int a = 0; a < 2 && !frozen.empty(); ++a) {
                    assumptions.push_back(mk_lit(
                        frozen[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<int>(frozen.size()) - 1))],
                        rng.coin(0.5)));
                }
                const Solver::Result r = s.solve(assumptions);
                tally.add(static_cast<std::uint64_t>(r));
                tally.add(s.num_clauses());
            }
            tally.add_solver(s.last_solve().result, s.stats());
        }
    }
    expect_pin(tally, {"assumptions", 707757440828795661ull, 17, 141, 1045});
}

TEST(Sat, GoldenSearchWithReductions) {
    // Random 3-SAT near the threshold under a learned-clause limit of 40:
    // reduce_db runs many times, so its candidate order, its activity
    // comparator and the reasons it keeps are all pinned.  Each instance
    // is solved plain and then twice under assumptions, on one solver.
    Tally tally;
    util::Rng rng(2024);
    for (int instance = 0; instance < 6; ++instance) {
        const int nv = 90 + 10 * instance;
        const int nc = static_cast<int>(4.2 * nv);
        Solver s;
        for (int v = 0; v < nv; ++v) s.new_var();
        s.set_learned_limit(40);
        for (int c = 0; c < nc; ++c) {
            s.add_clause(corpus::random_clause(rng, nv, 3, 3));
        }
        tally.add(static_cast<std::uint64_t>(s.solve()));
        for (int round = 0; round < 2; ++round) {
            std::vector<Lit> assumptions;
            for (int a = 0; a < 3; ++a) {
                assumptions.push_back(mk_lit(rng.uniform_int(0, nv - 1), rng.coin(0.5)));
            }
            tally.add(static_cast<std::uint64_t>(s.solve(assumptions)));
            tally.add(s.num_clauses());
        }
        tally.add_solver(s.last_solve().result, s.stats());
    }
    EXPECT_EQ(tally.reduces, 86u);
    expect_pin(tally, {"reductions", 12000037001359046592ull, 6756, 8594, 198524});
}

TEST(Sat, GoldenSearchOnPlausibilityEncodings) {
    // The plausibility attack on PRESENT 2 and 3 flow outputs: every viable
    // code, plus a non-member decoy that must come out UNSAT.
    Tally tally;
    for (const int n : {2, 3}) {
        flow::ObfuscationFlow engine;
        flow::FlowParams p;
        p.ga.population = 8;
        p.ga.generations = 3;
        p.run_random_baseline = false;
        p.seed = 5;
        const auto fns = flow::from_sboxes(sbox::present_viable_set(n));
        const flow::FlowResult result = engine.run(fns, p);
        ASSERT_TRUE(result.camouflaged);
        const flow::MergedSpec spec(fns, result.ga.best);
        std::vector<std::vector<logic::TruthTable>> targets;
        for (int k = 0; k < n; ++k) targets.push_back(spec.expected_outputs_for_code(k));
        targets.push_back(flow::from_sbox(sbox::leander_poschmann_16()[9]).outputs);
        for (const auto& target : targets) {
            const attack::PlausibilityResult r =
                attack::is_plausible(*result.camouflaged, target);
            tally.add(r.plausible ? 1 : 0);
            for (const int c : r.config) tally.add(static_cast<std::uint64_t>(c));
            tally.add_solver(r.plausible ? Solver::Result::kSat
                                         : Solver::Result::kUnsat,
                             r.sat_stats);
        }
    }
    expect_pin(tally, {"plausibility", 11833936474208323991ull, 42273, 168457,
                       2074404});
}

TEST(Sat, GoldenSearchOnCegar) {
    // Oracle-guided CEGAR at default solver parameters (preprocessing, and
    // inprocessing scheduled on num_clauses() growth) on random
    // camouflaged netlists of 6-9 inputs.  The survivor count is left out:
    // the pin is the loop's own solver and the inputs it finds.
    const camo::CamoLibrary lib =
        camo::CamoLibrary::from_gate_library(tech::GateLibrary::standard());
    Tally tally;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        util::Rng rng(seed * 7919 + 3);
        const int pis = 6 + static_cast<int>(seed % 4);
        const camo::CamoNetlist nl =
            attack::random_camo_netlist(lib, pis, 2, pis + 8, rng);
        attack::SimOracle oracle(nl, nl.configuration_for_code(0));
        attack::OracleAttackParams params;
        params.enumerate_survivors = false;  // the CEGAR loop only
        const attack::OracleAttackResult r =
            attack::oracle_attack(nl, oracle, params);
        tally.add(static_cast<std::uint64_t>(r.status));
        tally.add(static_cast<std::uint64_t>(r.queries));
        for (const std::vector<bool>& in : r.distinguishing_inputs) {
            for (const bool b : in) tally.add(b ? 1 : 0);
        }
        tally.add_solver(Solver::Result::kUnsat, r.sat_stats);
    }
    expect_pin(tally, {"cegar", 8314071653266109566ull, 19286, 116475, 1205381});
}

}  // namespace
}  // namespace mvf::sat
