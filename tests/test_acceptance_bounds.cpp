// Timing acceptance bounds: the word-parallel oracle, disabled tracing and
// the committing oracle must stay cheap relative to the work they serve.
//
//   - one 64-pattern query_block is at least 8x faster than 64 scalar
//     query() calls on a 16-PI netlist;
//   - tracing with no sink installed costs under 2% of an attack's wall
//     time;
//   - committing every chip answer costs under 5% of an attack's wall
//     time, and the committed attack reaches the same outcome.
//
// Each figure is the best of 3 trials where the bound compares two timed
// paths.  CMake gives this file the "slow" label and RUN_SERIAL, so ctest
// runs each test alone on an otherwise idle host; the sanitizer jobs, which
// exclude "slow", never time instrumented code.  Each test prints its
// measured figure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "attack/oracle.hpp"
#include "attack/oracle_attack.hpp"
#include "attack/random_camo.hpp"
#include "audit/commitment.hpp"
#include "audit/committing_oracle.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"
#include "util/stopwatch.hpp"

namespace mvf::attack {
namespace {

using camo::CamoLibrary;
using camo::CamoNetlist;

CamoLibrary standard_camo_library() {
    return CamoLibrary::from_gate_library(tech::GateLibrary::standard());
}

/// The CEGAR workload the overhead bounds are charged against: capped
/// enumeration, so the measured attack stays comparable across revisions.
OracleAttackParams enumerate_params() {
    OracleAttackParams params;
    params.count_mode = CountMode::kEnumerate;
    params.max_survivors = 1u << 12;
    return params;
}

TEST(AcceptanceBounds, QueryBlockIsAtLeast8xFasterThanScalarQueries) {
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(138);
    const CamoNetlist nl = random_camo_netlist(lib, 16, 4, 32, rng);
    SimOracle oracle(nl, nl.configuration_for_code(0));

    std::vector<std::vector<bool>> patterns;
    for (int k = 0; k < kQueryBlockWidth; ++k) {
        std::vector<bool> p(static_cast<std::size_t>(nl.num_pis()));
        for (std::size_t i = 0; i < p.size(); ++i) p[i] = rng.coin(0.5);
        patterns.push_back(std::move(p));
    }
    const std::vector<std::uint64_t> words = pack_block(patterns);

    const int reps = 500;
    std::uint64_t sink = 0;
    double scalar_s = 1e30;
    double block_s = 1e30;
    for (int trial = 0; trial < 3; ++trial) {
        util::Stopwatch sw;
        for (int rep = 0; rep < reps; ++rep) {
            for (const std::vector<bool>& p : patterns) {
                sink += oracle.query(p)[0] ? 1u : 0u;
            }
        }
        scalar_s = std::min(scalar_s, sw.elapsed_seconds());
        sw.reset();
        for (int rep = 0; rep < reps; ++rep) {
            sink += oracle.query_block(words, kQueryBlockWidth)[0] & 1u;
        }
        block_s = std::min(block_s, sw.elapsed_seconds());
    }

    const double speedup = block_s > 0.0 ? scalar_s / block_s : 0.0;
    std::printf(
        "query_block %.3f ms vs 64 scalar queries %.3f ms: %.1fx "
        "(%d PIs, %d cells, %d reps, checksum %llu)\n",
        block_s * 1e3, scalar_s * 1e3, speedup, nl.num_pis(), nl.num_cells(),
        reps, static_cast<unsigned long long>(sink));
    EXPECT_GE(speedup, 8.0);
}

TEST(AcceptanceBounds, DisabledTracingCostsUnder2PercentOfAnAttack) {
    // bench_oracle_attack's rand8 row at --seed 1 (generator seed 977 + 8).
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(985);
    const CamoNetlist nl = random_camo_netlist(lib, 8, 2, 16, rng);
    SimOracle oracle(nl, nl.configuration_for_code(0));
    const OracleAttackParams params = enumerate_params();

    double untraced_s = 1e30;
    for (int trial = 0; trial < 3; ++trial) {
        util::Stopwatch sw;
        oracle_attack(nl, oracle, params);
        untraced_s = std::min(untraced_s, sw.elapsed_seconds());
    }

    // The same attack traced into /dev/null counts the event sites crossed.
    std::uint64_t events = 0;
    {
        obs::TraceSink sink("/dev/null");
        ASSERT_TRUE(sink.ok());
        obs::set_trace_sink(&sink);
        oracle_attack(nl, oracle, params);
        obs::set_trace_sink(nullptr);
        events = sink.events();
    }
    ASSERT_GT(events, 0u);

    // Per-event cost with tracing disabled: one Span per two events.
    const int reps = 2'000'000;
    int live = 0;
    util::Stopwatch sw;
    for (int i = 0; i < reps; ++i) {
        obs::Span span("noop", "bench");
        if (span) ++live;
    }
    const double per_event_s = sw.elapsed_seconds() / (2.0 * reps);
    EXPECT_EQ(live, 0);

    const double pct = per_event_s * static_cast<double>(events) /
                       untraced_s * 100.0;
    std::printf(
        "disabled tracing: %.1f ns/event x %llu events on a %.3fs attack "
        "= %.4f%%\n",
        per_event_s * 1e9, static_cast<unsigned long long>(events),
        untraced_s, pct);
    EXPECT_LT(pct, 2.0);
}

TEST(AcceptanceBounds, CommittingCostsUnder5PercentAndKeepsTheOutcome) {
    // bench_oracle_attack's rand12 warm-up instance at --seed 1 (generator
    // seed 977 + 12) with its 64-pattern warm-up.  It commits about a sixth
    // of the answers of a 16-PI attack in a small fraction of the time, so
    // its overhead ratio is the stricter.
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(989);
    const CamoNetlist nl = random_camo_netlist(lib, 12, 3, 24, rng);
    SimOracle chip(nl, nl.configuration_for_code(0));
    OracleAttackParams params = enumerate_params();
    params.random_warmup = 64;
    params.warmup_seed = 1;
    const OracleAttackResult base = oracle_attack(nl, chip, params);

    // Commitments observe the chip's answers and never perturb them.
    audit::CommittingOracle committer(chip, 1, util::sha256_hex("bench"));
    const OracleAttackResult committed = oracle_attack(nl, committer, params);
    EXPECT_EQ(committed.status, base.status);
    EXPECT_EQ(committed.queries, base.queries);
    EXPECT_EQ(committed.warmup_queries, base.warmup_queries);
    EXPECT_EQ(committed.surviving_configs, base.surviving_configs);
    const std::uint64_t patterns = committer.committed();
    ASSERT_GT(patterns, 0u);

    // Per-answer cost from a tight chain-extension loop (salt-shaped string,
    // leaf message, SHA-256) over patterns of the netlist's widths: a
    // wall-clock A/B of two whole attacks would drown the hashing in SAT
    // noise.
    const int reps = 20'000;
    const std::vector<bool> in(static_cast<std::size_t>(nl.num_pis()), true);
    const std::vector<bool> out(static_cast<std::size_t>(nl.num_pos()), false);
    std::string prev = util::sha256_hex("bench");
    util::Stopwatch sw;
    for (int i = 0; i < reps; ++i) {
        const audit::Commitment c = audit::Commitment::commit(
            audit::CommittingOracle::leaf_message(
                static_cast<std::uint64_t>(i), in, out, prev),
            prev.substr(0, 32));
        prev = c.digest_hex;
    }
    const double per_commit_s = sw.elapsed_seconds() / reps;

    ASSERT_GT(base.seconds, 0.0);
    const double pct =
        per_commit_s * static_cast<double>(patterns) / base.seconds * 100.0;
    std::printf(
        "committing: %.2f us/pattern x %llu patterns on a %.3fs attack "
        "= %.4f%%\n",
        per_commit_s * 1e6, static_cast<unsigned long long>(patterns),
        base.seconds, pct);
    EXPECT_LT(pct, 5.0);
}

}  // namespace
}  // namespace mvf::attack
