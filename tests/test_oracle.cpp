// Tests for the first-class oracle layer (attack/oracle.hpp).
//
// Anchors: (a) an exhaustive differential between the word-parallel camo
// evaluator and the scalar one (widths 2-6 x netlist densities x seeds x
// random configurations -- every lane of every block must match bit for
// bit); (b) decorator composition -- budget, cache, noise and transcript
// stacked in any order must preserve each layer's semantics; (c) transcript
// record -> replay reproducing bit-identical CEGAR outcomes through the
// public oracle API; and (d) honest kQueryBudget termination with exact
// CountingOracle accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "attack/adversary.hpp"
#include "attack/oracle.hpp"
#include "attack/oracle_attack.hpp"
#include "attack/random_camo.hpp"
#include "flow/obfuscation_flow.hpp"
#include "sbox/sbox_data.hpp"
#include "sim/netlist_sim.hpp"
#include "util/rng.hpp"

namespace mvf::attack {
namespace {

using camo::CamoLibrary;
using camo::CamoNetlist;

CamoLibrary standard_camo_library() {
    return CamoLibrary::from_gate_library(tech::GateLibrary::standard());
}

/// A uniformly random configuration (any plausible index per cell).
std::vector<int> random_config(const CamoNetlist& nl, util::Rng& rng) {
    std::vector<int> config(static_cast<std::size_t>(nl.num_nodes()), -1);
    for (int id = 0; id < nl.num_nodes(); ++id) {
        const CamoNetlist::Node& n = nl.node(id);
        if (n.kind != CamoNetlist::NodeKind::kCell) continue;
        const int choices = static_cast<int>(
            nl.library().cell(n.camo_cell_id).plausible.size());
        config[static_cast<std::size_t>(id)] = rng.uniform_int(0, choices - 1);
    }
    return config;
}

/// All 2^w input patterns, minterm-ordered (pattern k bit i = (k >> i) & 1).
std::vector<std::vector<bool>> all_patterns(int width) {
    std::vector<std::vector<bool>> out;
    for (int k = 0; k < (1 << width); ++k) {
        std::vector<bool> p(static_cast<std::size_t>(width));
        for (int i = 0; i < width; ++i) p[static_cast<std::size_t>(i)] = (k >> i) & 1;
        out.push_back(std::move(p));
    }
    return out;
}

// ------------------------------------------- word-parallel differential --

TEST(WordSim, ExhaustiveDifferentialAgainstScalarEvaluator) {
    const CamoLibrary lib = standard_camo_library();
    int cases = 0;
    for (int width = 2; width <= 6; ++width) {
        // "Density" sweep: sparse, medium and dense netlists per width.
        for (const int cells : {width + 2, 2 * width + 2, 3 * width + 4}) {
            for (std::uint64_t seed = 0; seed < 4; ++seed) {
                util::Rng rng(seed * 6029 + static_cast<std::uint64_t>(width) * 97 +
                              static_cast<std::uint64_t>(cells));
                const CamoNetlist nl = attack::random_camo_netlist(
                    lib, width, 1 + rng.uniform_int(0, 1), cells, rng);
                const std::vector<int> config = random_config(nl, rng);

                const std::vector<std::vector<bool>> patterns =
                    all_patterns(width);
                const std::vector<std::uint64_t> words = pack_block(patterns);
                std::vector<std::uint64_t> po_words(
                    static_cast<std::size_t>(nl.num_pos()));
                sim::WordSimScratch scratch;
                sim::simulate_camo_words(nl, config, words, po_words, &scratch);

                const auto full = sim::simulate_camo_full(nl, config);
                for (std::size_t k = 0; k < patterns.size(); ++k) {
                    const std::vector<bool> scalar =
                        sim::simulate_camo_pattern(nl, config, patterns[k]);
                    const std::vector<bool> lane =
                        unpack_lane(po_words, static_cast<int>(k));
                    ASSERT_EQ(scalar, lane)
                        << "width " << width << " cells " << cells << " seed "
                        << seed << " pattern " << k;
                    // Third witness: the truth-table simulator.
                    for (int q = 0; q < nl.num_pos(); ++q) {
                        ASSERT_EQ(lane[static_cast<std::size_t>(q)],
                                  full[static_cast<std::size_t>(q)].bit(
                                      static_cast<std::uint32_t>(k)));
                    }
                }
                ++cases;
            }
        }
    }
    EXPECT_EQ(cases, 5 * 3 * 4);
}

TEST(WordSim, PartialBlocksAndScratchReuse) {
    const CamoLibrary lib = standard_camo_library();
    // (PIs, POs, cells, generator seed); the 16-PI netlist is the one the
    // query_block timing bound runs on.
    struct Shape {
        int pis, pos, cells;
        std::uint64_t seed;
    };
    for (const Shape& shape : {Shape{8, 3, 14, 77}, Shape{16, 4, 32, 138}}) {
        util::Rng rng(shape.seed);
        const CamoNetlist nl = attack::random_camo_netlist(
            lib, shape.pis, shape.pos, shape.cells, rng);
        const std::vector<int> config = nl.configuration_for_code(0);
        SimOracle oracle(nl, config);
        // Repeated partial blocks through ONE oracle instance (scratch
        // reuse), each lane checked against the simulator and against the
        // oracle's own scalar query.
        for (const int count : {1, 3, 17, 64, 5, 64, 2}) {
            std::vector<std::vector<bool>> patterns;
            for (int k = 0; k < count; ++k) {
                std::vector<bool> p(static_cast<std::size_t>(shape.pis));
                for (std::size_t i = 0; i < p.size(); ++i) p[i] = rng.coin(0.5);
                patterns.push_back(std::move(p));
            }
            const std::vector<std::uint64_t> answers =
                oracle.query_block(pack_block(patterns), count);
            for (int k = 0; k < count; ++k) {
                const std::vector<bool>& p =
                    patterns[static_cast<std::size_t>(k)];
                EXPECT_EQ(unpack_lane(answers, k),
                          sim::simulate_camo_pattern(nl, config, p))
                    << shape.pis << " PIs, lane " << k;
                EXPECT_EQ(unpack_lane(answers, k), oracle.query(p))
                    << shape.pis << " PIs, lane " << k;
            }
        }
    }
}

TEST(Oracle, DefaultBlockImplementationFallsBackToScalar) {
    // An oracle that only implements query(): 3-input majority + parity.
    class TinyOracle final : public Oracle {
    public:
        std::vector<bool> query(const std::vector<bool>& in) override {
            const int ones = in[0] + in[1] + in[2];
            return {ones >= 2, (ones & 1) != 0};
        }
    };
    TinyOracle oracle;
    const std::vector<std::vector<bool>> patterns = all_patterns(3);
    const std::vector<std::uint64_t> block =
        oracle.query_block(pack_block(patterns), static_cast<int>(patterns.size()));
    for (std::size_t k = 0; k < patterns.size(); ++k) {
        EXPECT_EQ(unpack_lane(block, static_cast<int>(k)),
                  oracle.query(patterns[k]));
    }
}

// -------------------------------------------------------------- decorators --

TEST(Decorators, CountingCountsQueriesBlocksAndPatterns) {
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(5);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 4, 1, 6, rng);
    SimOracle chip(nl, nl.configuration_for_code(0));
    CountingOracle counting(chip);
    const std::vector<std::vector<bool>> patterns = all_patterns(4);
    counting.query(patterns[0]);
    counting.query(patterns[1]);
    counting.query_block(pack_block(patterns), 16);
    EXPECT_EQ(counting.scalar_queries(), 2u);
    EXPECT_EQ(counting.block_queries(), 1u);
    EXPECT_EQ(counting.patterns(), 18u);
}

TEST(Decorators, CachingDedupesScalarAndBlockQueries) {
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(9);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 4, 2, 7, rng);
    SimOracle chip(nl, nl.configuration_for_code(0));
    CountingOracle counting(chip);  // counts what reaches the chip
    CachingOracle caching(counting);

    const std::vector<std::vector<bool>> patterns = all_patterns(4);
    const std::vector<bool> a0 = caching.query(patterns[3]);
    EXPECT_EQ(caching.query(patterns[3]), a0);  // hit
    EXPECT_EQ(counting.patterns(), 1u);
    EXPECT_EQ(caching.hits(), 1u);

    // A block with internal duplicates and overlap with the cache: only
    // the unique unseen patterns reach the chip, as one smaller block.
    const std::vector<std::vector<bool>> block = {
        patterns[3], patterns[5], patterns[5], patterns[7]};
    const std::vector<std::uint64_t> answers =
        caching.query_block(pack_block(block), 4);
    EXPECT_EQ(counting.patterns(), 3u);  // +{5, 7} via one block call
    EXPECT_EQ(counting.block_queries(), 1u);
    EXPECT_EQ(caching.hits(), 3u);  // repeat of 3, duplicate 5
    for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(unpack_lane(answers, k),
                  sim::simulate_camo_pattern(nl, nl.configuration_for_code(0),
                                             block[static_cast<std::size_t>(k)]));
    }
}

TEST(Decorators, BudgetedThrowsWithoutConsumingAndTracksRemaining) {
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(13);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 4, 1, 6, rng);
    SimOracle chip(nl, nl.configuration_for_code(0));
    BudgetedOracle budgeted(chip, 5);
    const std::vector<std::vector<bool>> patterns = all_patterns(4);

    budgeted.query_block(pack_block({patterns[0], patterns[1], patterns[2]}), 3);
    EXPECT_EQ(budgeted.remaining(), 2u);
    // A block larger than what remains throws and consumes NOTHING.
    EXPECT_THROW(budgeted.query_block(pack_block(patterns), 16),
                 OracleBudgetExceeded);
    EXPECT_EQ(budgeted.remaining(), 2u);
    budgeted.query(patterns[3]);
    budgeted.query(patterns[4]);
    EXPECT_EQ(budgeted.remaining(), 0u);
    EXPECT_THROW(budgeted.query(patterns[5]), OracleBudgetExceeded);
    EXPECT_TRUE(budgeted.exhausted());
}

TEST(Decorators, NoisyIsSeededDeterministicAndCountsFlips) {
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(21);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 5, 4, 9, rng);
    const std::vector<int> hidden = nl.configuration_for_code(0);
    SimOracle chip_a(nl, hidden);
    SimOracle chip_b(nl, hidden);
    NoisyOracle noisy_a(chip_a, 0.25, 42);
    NoisyOracle noisy_b(chip_b, 0.25, 42);

    std::uint64_t observed_flips = 0;
    for (const std::vector<bool>& p : all_patterns(5)) {
        const std::vector<bool> a = noisy_a.query(p);
        EXPECT_EQ(a, noisy_b.query(p));  // same seed, same answers
        const std::vector<bool> clean = sim::simulate_camo_pattern(nl, hidden, p);
        for (std::size_t q = 0; q < a.size(); ++q) {
            if (a[q] != clean[q]) ++observed_flips;
        }
    }
    EXPECT_EQ(noisy_a.flipped_bits(), observed_flips);
    EXPECT_GT(observed_flips, 0u);  // 128 bits at 25%: zero flips is ~1e-16

    // Zero noise is the identity; out-of-range rates are rejected.
    NoisyOracle clean(chip_a, 0.0, 1);
    const std::vector<bool> p0 = all_patterns(5)[7];
    EXPECT_EQ(clean.query(p0), sim::simulate_camo_pattern(nl, hidden, p0));
    EXPECT_THROW(NoisyOracle(chip_a, 1.0, 1), std::invalid_argument);
    EXPECT_THROW(NoisyOracle(chip_a, -0.1, 1), std::invalid_argument);
}

TEST(Decorators, ComposeInAnyOrder) {
    // budget + cache + transcript recorder (noise pinned to 0 so answers
    // stay comparable) wrapped around one chip in three different orders:
    // each layer's semantics must hold regardless of position.
    const CamoLibrary lib = standard_camo_library();
    const std::vector<std::vector<bool>> patterns = all_patterns(4);
    const auto chip_answers = [&](const CamoNetlist& nl,
                                  const std::vector<bool>& p) {
        return sim::simulate_camo_pattern(nl, nl.configuration_for_code(0), p);
    };

    for (int order = 0; order < 3; ++order) {
        util::Rng rng(31);
        const CamoNetlist nl = attack::random_camo_netlist(lib, 4, 2, 8, rng);
        SimOracle chip(nl, nl.configuration_for_code(0));
        NoisyOracle noisy(chip, 0.0, 7);
        std::unique_ptr<Oracle> l1, l2, l3;
        BudgetedOracle* budgeted = nullptr;
        CachingOracle* caching = nullptr;
        TranscriptOracle* recorder = nullptr;
        const auto mk = [&](int what, Oracle& inner) -> std::unique_ptr<Oracle> {
            switch (what) {
                case 0: {
                    auto p = std::make_unique<BudgetedOracle>(inner, 6);
                    budgeted = p.get();
                    return p;
                }
                case 1: {
                    auto p = std::make_unique<CachingOracle>(inner);
                    caching = p.get();
                    return p;
                }
                default: {
                    auto p = std::make_unique<TranscriptOracle>(inner);
                    recorder = p.get();
                    return p;
                }
            }
        };
        // Rotate which decorator sits where.
        l1 = mk(order, noisy);
        l2 = mk((order + 1) % 3, *l1);
        l3 = mk((order + 2) % 3, *l2);
        Oracle& top = *l3;

        for (int k = 0; k < 6; ++k) {
            EXPECT_EQ(top.query(patterns[static_cast<std::size_t>(k)]),
                      chip_answers(nl, patterns[static_cast<std::size_t>(k)]))
                << "order " << order << " query " << k;
        }
        // 6 distinct patterns consumed the budget wherever it sits; a
        // SEVENTH distinct pattern must trip it (a repeat is only served
        // when the cache sits above the budget).
        EXPECT_THROW(top.query(patterns[6]), OracleBudgetExceeded)
            << "order " << order;
        EXPECT_TRUE(budgeted->exhausted());
        EXPECT_EQ(recorder->transcript().entries.size(), 6u);
        EXPECT_EQ(caching->hits(), 0u);
    }
}

TEST(Decorators, OracleStackAggregatesStats) {
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(37);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 4, 2, 8, rng);
    SimOracle chip(nl, nl.configuration_for_code(0));
    OracleModelParams model;
    model.query_budget = 10;
    model.cache = true;
    model.record = true;
    model.noise = 0.0;  // noise > 0 would add a NoisyOracle layer
    OracleStack stack(&chip, model);

    const std::vector<std::vector<bool>> patterns = all_patterns(4);
    stack.top().query(patterns[0]);
    stack.top().query(patterns[0]);  // cache hit: costs no budget
    stack.top().query_block(pack_block({patterns[1], patterns[2]}), 2);

    const OracleStats stats = stack.stats();
    EXPECT_EQ(stats.scalar_queries, 2u);
    EXPECT_EQ(stats.block_queries, 1u);
    EXPECT_EQ(stats.patterns, 4u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.budget, 10u);
    EXPECT_FALSE(stats.budget_exhausted);
    ASSERT_NE(stack.recorded(), nullptr);
    // The recorder sits above the cache: it sees all 4 attacker-visible
    // queries, cache hit included.
    EXPECT_EQ(stack.recorded()->entries.size(), 4u);

    // Chip-free stacks require a replay transcript.
    EXPECT_THROW(OracleStack(nullptr, OracleModelParams{}),
                 std::invalid_argument);
}

// -------------------------------------------------------------- transcript --

TEST(Transcript, JsonRoundTripAndReplaySemantics) {
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(41);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 5, 2, 9, rng);
    SimOracle chip(nl, nl.configuration_for_code(0));
    TranscriptOracle recorder(chip);

    const std::vector<std::vector<bool>> patterns = all_patterns(5);
    std::vector<std::vector<bool>> answers;
    for (int k = 0; k < 3; ++k) {
        answers.push_back(recorder.query(patterns[static_cast<std::size_t>(k)]));
    }
    recorder.query_block(pack_block({patterns[3], patterns[4]}), 2);
    ASSERT_EQ(recorder.transcript().entries.size(), 5u);

    // JSON round trip is exact.
    const std::string text = recorder.transcript().to_json().dump(2);
    const OracleTranscript parsed =
        OracleTranscript::from_json(report::Json::parse(text));
    EXPECT_EQ(parsed, recorder.transcript());

    // Replay serves the same answers in order, scripted_pattern() walks
    // the recorded queries, and divergence/exhaustion are loud.
    TranscriptOracle replay(parsed);
    for (int k = 0; k < 5; ++k) {
        ASSERT_NE(replay.scripted_pattern(), nullptr);
        const std::vector<bool> scripted = *replay.scripted_pattern();
        EXPECT_EQ(scripted, patterns[static_cast<std::size_t>(k)]);
        const std::vector<bool> answer = replay.query(scripted);
        if (k < 3) {
            EXPECT_EQ(answer, answers[static_cast<std::size_t>(k)]);
        }
    }
    EXPECT_EQ(replay.scripted_pattern(), nullptr);
    // Past the end of the transcript the replayed chip stops answering --
    // the budget-exhaustion case, so replays of truncated transcripts
    // terminate honestly instead of erroring out.
    EXPECT_THROW(replay.query(patterns[0]), OracleBudgetExceeded);

    TranscriptOracle diverging(parsed);
    EXPECT_THROW(diverging.query(patterns[9]), TranscriptMismatch);
}

TEST(Transcript, FromJsonRejectsMalformedDocuments) {
    const auto parse = [](const std::string& text) {
        return OracleTranscript::from_json(report::Json::parse(text));
    };
    // Baseline: this document is well-formed.
    EXPECT_EQ(parse(R"({"inputs": 3, "outputs": 2,
                        "queries": [{"in": "010", "out": "10"}]})")
                  .entries.size(),
              1u);
    // Non-binary characters in a bit string.
    EXPECT_THROW(parse(R"({"inputs": 3, "outputs": 2,
                           "queries": [{"in": "012", "out": "10"}]})"),
                 report::JsonError);
    EXPECT_THROW(parse(R"({"inputs": 3, "outputs": 2,
                           "queries": [{"in": "010", "out": "1x"}]})"),
                 report::JsonError);
    // Entry widths disagreeing with the declared widths.
    EXPECT_THROW(parse(R"({"inputs": 3, "outputs": 2,
                           "queries": [{"in": "0100", "out": "10"}]})"),
                 report::JsonError);
    EXPECT_THROW(parse(R"({"inputs": 3, "outputs": 2,
                           "queries": [{"in": "010", "out": "1"}]})"),
                 report::JsonError);
    // Negative widths.
    EXPECT_THROW(parse(R"({"inputs": -1, "outputs": 2, "queries": []})"),
                 report::JsonError);
    EXPECT_THROW(parse(R"({"inputs": 3, "outputs": -2, "queries": []})"),
                 report::JsonError);
    // Missing fields.
    EXPECT_THROW(parse(R"({"outputs": 2, "queries": []})"),
                 report::JsonError);
    EXPECT_THROW(parse(R"({"inputs": 3, "outputs": 2,
                           "queries": [{"in": "010"}]})"),
                 report::JsonError);
    // Wrong types.
    EXPECT_THROW(parse(R"({"inputs": "three", "outputs": 2, "queries": []})"),
                 report::JsonError);
    EXPECT_THROW(parse(R"({"inputs": 3, "outputs": 2, "queries": 7})"),
                 report::JsonError);
    // Duplicate keys are resolved last-wins by the tolerant parser but
    // rejected outright by the strict one verification inputs go through.
    const std::string dup = R"({"inputs": 3, "inputs": 4, "outputs": 2,
                                "queries": []})";
    EXPECT_EQ(OracleTranscript::from_json(report::Json::parse(dup)).num_inputs,
              4);
    EXPECT_THROW(report::Json::parse_strict(dup), report::JsonError);
}

TEST(Transcript, FromJsonFuzzNeverCrashesAndOnlyThrowsJsonError) {
    // Structured fuzz: mutate one byte of a valid serialized transcript at
    // every position x a few replacement bytes.  Every mutant must either
    // parse (possibly to a different transcript) or throw JsonError --
    // nothing else, no crashes.
    OracleTranscript t;
    t.num_inputs = 4;
    t.num_outputs = 2;
    util::Rng rng(3);
    for (int k = 0; k < 3; ++k) {
        OracleTranscript::Entry e;
        for (int i = 0; i < 4; ++i) e.inputs.push_back(rng.next_u64() & 1);
        for (int q = 0; q < 2; ++q) e.outputs.push_back(rng.next_u64() & 1);
        t.entries.push_back(std::move(e));
    }
    const std::string text = t.to_json().dump();
    int parsed_ok = 0;
    int rejected = 0;
    for (std::size_t pos = 0; pos < text.size(); ++pos) {
        for (const char c : {'2', 'x', '"', '{', '}', '-', '\0'}) {
            std::string mutant = text;
            mutant[pos] = c;
            try {
                OracleTranscript::from_json(report::Json::parse(mutant));
                ++parsed_ok;
            } catch (const report::JsonError&) {
                ++rejected;
            }
        }
    }
    // Both outcomes must actually occur (the harness isn't vacuous).
    EXPECT_GT(parsed_ok, 0);
    EXPECT_GT(rejected, 0);
}

// ------------------------------------------------- CEGAR-level integration --

/// These tests exercise the oracle layer, not the counting subsystem:
/// random netlists are dense and decomposition-resistant (the exact
/// counter would burn its whole decision budget before falling back), so
/// pin the capped legacy enumeration like test_oracle_attack does.
OracleAttackParams enumerate_params() {
    OracleAttackParams params;
    params.count_mode = CountMode::kEnumerate;
    params.max_survivors = 1u << 12;
    return params;
}

TEST(OracleAttack, QueryBudgetTerminatesHonestlyWithExactAccounting) {
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(47);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 6, 2, 12, rng);
    SimOracle chip(nl, nl.configuration_for_code(0));

    // Unbudgeted baseline to learn the full query count (counting is
    // irrelevant here; skip it).
    OracleAttackParams params = enumerate_params();
    params.enumerate_survivors = false;
    const OracleAttackResult full = oracle_attack(nl, chip, params);
    ASSERT_TRUE(full.solved());
    ASSERT_GE(full.queries, 2) << "need an instance with at least 2 queries";

    const std::uint64_t budget = static_cast<std::uint64_t>(full.queries - 1);
    SimOracle chip2(nl, nl.configuration_for_code(0));
    BudgetedOracle budgeted(chip2, budget);
    CountingOracle counting(budgeted);
    const OracleAttackResult r = oracle_attack(nl, counting, params);
    EXPECT_EQ(r.status, OracleAttackResult::Status::kQueryBudget);
    EXPECT_FALSE(r.solved());
    EXPECT_FALSE(r.counted);
    EXPECT_EQ(r.surviving_configs, 0u);
    EXPECT_TRUE(r.witness_config.empty());
    // Exact accounting: precisely `budget` patterns were answered.
    EXPECT_EQ(static_cast<std::uint64_t>(r.queries), budget);
    EXPECT_EQ(counting.patterns(), budget);
    EXPECT_TRUE(budgeted.exhausted());
}

TEST(OracleAttack, TranscriptReplayReproducesBitIdenticalOutcomes) {
    // Record a run through the public oracle API, then replay it chip-free
    // under a different configuration -- latency metrics on, which times
    // every query and solve -- and every outcome must be bit-identical.
    const CamoLibrary lib = standard_camo_library();
    for (std::uint64_t seed : {3u, 11u, 19u}) {
        util::Rng rng(seed * 191);
        const CamoNetlist nl = attack::random_camo_netlist(lib, 6, 2, 11, rng);
        SimOracle chip(nl, nl.configuration_for_code(0));
        TranscriptOracle recorder(chip);

        OracleAttackParams params = enumerate_params();
        const OracleAttackResult live = oracle_attack(nl, recorder, params);
        ASSERT_NE(live.status, OracleAttackResult::Status::kNoSurvivor)
            << "seed " << seed;
        ASSERT_NE(live.status, OracleAttackResult::Status::kIterationLimit)
            << "seed " << seed;

        params.collect_metrics = true;
        TranscriptOracle replay(recorder.transcript());
        const OracleAttackResult replayed = oracle_attack(nl, replay, params);

        EXPECT_EQ(replayed.status, live.status) << "seed " << seed;
        EXPECT_EQ(replayed.queries, live.queries) << "seed " << seed;
        EXPECT_EQ(replayed.surviving_configs, live.surviving_configs)
            << "seed " << seed;
        EXPECT_EQ(replayed.distinguishing_inputs, live.distinguishing_inputs)
            << "seed " << seed;
        EXPECT_EQ(replayed.witness_config, live.witness_config)
            << "seed " << seed;
    }
}

TEST(OracleAttack, TranscriptReplayIsBitIdenticalToLiveRun) {
    // Chip-free TranscriptOracle replay must reproduce the recorded live
    // attack exactly -- status, query count, survivors, distinguishing
    // inputs and witness, bit for bit -- under the same parameters.
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(53);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 6, 2, 10, rng);
    SimOracle chip(nl, nl.configuration_for_code(0));
    TranscriptOracle recorder(chip);
    const OracleAttackParams params = enumerate_params();
    const OracleAttackResult live = oracle_attack(nl, recorder, params);
    ASSERT_NE(live.status, OracleAttackResult::Status::kNoSurvivor);
    ASSERT_EQ(static_cast<int>(live.distinguishing_inputs.size()),
              live.queries);

    TranscriptOracle replay(recorder.transcript());
    const OracleAttackResult replayed = oracle_attack(nl, replay, params);

    EXPECT_EQ(replayed.status, live.status);
    EXPECT_EQ(replayed.queries, live.queries);
    EXPECT_EQ(replayed.surviving_configs, live.surviving_configs);
    EXPECT_EQ(replayed.distinguishing_inputs, live.distinguishing_inputs);
    EXPECT_EQ(replayed.witness_config, live.witness_config);
}

TEST(OracleAttack, RandomWarmupPreservesOutcomeAndCutsIterations) {
    const CamoLibrary lib = standard_camo_library();
    // (PIs, POs, cells, generator seed, warm-up patterns, warm-up seed); the
    // 12-PI case is bench_oracle_attack's warm-up line at --seed 1.
    struct Case {
        int pis, pos, cells;
        std::uint64_t seed;
        int warmup;
        std::uint64_t warmup_seed;
    };
    for (const Case& c :
         {Case{8, 2, 14, 59, 32, 5}, Case{12, 3, 24, 977 + 12, 64, 1}}) {
        util::Rng rng(c.seed);
        const CamoNetlist nl =
            attack::random_camo_netlist(lib, c.pis, c.pos, c.cells, rng);
        SimOracle chip(nl, nl.configuration_for_code(0));

        OracleAttackParams params = enumerate_params();
        const OracleAttackResult base = oracle_attack(nl, chip, params);
        ASSERT_NE(base.status, OracleAttackResult::Status::kNoSurvivor)
            << c.pis << " PIs";

        params.random_warmup = c.warmup;
        params.warmup_seed = c.warmup_seed;
        const OracleAttackResult warm = oracle_attack(nl, chip, params);
        ASSERT_NE(warm.status, OracleAttackResult::Status::kNoSurvivor)
            << c.pis << " PIs";
        // The warm-up never changes WHAT survives -- only how the attack
        // gets there: warm-up constraints are true chip behavior, so the
        // surviving equivalence class is identical.
        EXPECT_EQ(warm.surviving_configs, base.surviving_configs)
            << c.pis << " PIs";
        EXPECT_EQ(warm.warmup_queries, c.warmup) << c.pis << " PIs";
        // Pre-pruning the viable set can only shrink the distinguishing set.
        EXPECT_LE(warm.queries, base.queries) << c.pis << " PIs";
    }
}

// --------------------------------------------------- random-sampling --

TEST(RandomSampling, RegisteredBaselinePrunesButNeverBeatsCegar) {
    EXPECT_TRUE(AdversaryRegistry::instance().contains("random-sampling"));

    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(61);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 5, 2, 9, rng);
    SimOracle chip(nl, nl.configuration_for_code(0));
    const OracleAttackResult cegar = oracle_attack(nl, chip, enumerate_params());
    ASSERT_NE(cegar.status, OracleAttackResult::Status::kNoSurvivor);

    AdversaryOptions options;
    options.oracle = enumerate_params();
    options.random_queries = 48;
    options.random_seed = 7;
    const auto adversary =
        AdversaryRegistry::instance().create("random-sampling", options);
    EXPECT_EQ(adversary->knowledge(), Knowledge::kWorkingChip);
    SimOracle chip2(nl, nl.configuration_for_code(0));
    const AdversaryReport report = adversary->attack(nl, &chip2);
    EXPECT_EQ(report.adversary, "random-sampling");
    EXPECT_EQ(report.queries, 48);
    // Random constraints are a subset of what full convergence implies:
    // the sampled survivor set can only be coarser than CEGAR's.
    EXPECT_GE(report.survivors, cegar.surviving_configs);
    EXPECT_GE(report.survivors, 1u);
    EXPECT_FALSE(report.count_mode.empty());
    // And the oracle-less case is rejected, not degraded.
    EXPECT_THROW(adversary->attack(nl, nullptr), std::invalid_argument);
}

TEST(RandomSampling, BudgetTripsHonestlyAfterDrainingTheAllowance) {
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(67);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 5, 2, 9, rng);
    SimOracle chip(nl, nl.configuration_for_code(0));
    BudgetedOracle budgeted(chip, 10);  // < one 64-pattern block
    RandomSamplingAdversary adversary(enumerate_params(), 64, 3);
    const AdversaryReport report = adversary.attack(nl, &budgeted);
    EXPECT_FALSE(report.success);
    EXPECT_EQ(report.outcome, "query budget");
    EXPECT_TRUE(budgeted.exhausted());
    // The rejected 64-block falls back to scalar draining: the WHOLE
    // 10-pattern allowance is answered before the honest trip.
    EXPECT_EQ(report.queries, 10);
    EXPECT_EQ(budgeted.remaining(), 0u);
}

TEST(RandomSampling, ShortTranscriptReplayEndsInQueryBudget) {
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(73);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 5, 2, 9, rng);
    SimOracle chip(nl, nl.configuration_for_code(0));
    TranscriptOracle recorder(chip);
    RandomSamplingAdversary live(enumerate_params(), 16, 3);
    const AdversaryReport recorded = live.attack(nl, &recorder);
    ASSERT_EQ(recorded.queries, 16);
    ASSERT_NE(recorded.outcome, "query budget");

    // The whole transcript replays to the live report.
    TranscriptOracle full(recorder.transcript());
    RandomSamplingAdversary again(enumerate_params(), 16, 3);
    AdversaryReport replayed = again.attack(nl, &full);
    replayed.seconds = recorded.seconds;
    EXPECT_TRUE(replayed == recorded);

    // Asking for more patterns than were recorded ends as a live budget
    // trip does, after answering every recorded one.
    TranscriptOracle short_replay(recorder.transcript());
    RandomSamplingAdversary more(enumerate_params(), 32, 3);
    const AdversaryReport r = more.attack(nl, &short_replay);
    EXPECT_EQ(r.outcome, "query budget");
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.queries, 16);
    EXPECT_TRUE(r.count_mode.empty());  // nothing was counted
}

TEST(OracleAttack, WarmupDrainsTheBudgetBeforeTrippingHonestly) {
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(71);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 6, 2, 10, rng);
    SimOracle chip(nl, nl.configuration_for_code(0));
    BudgetedOracle budgeted(chip, 10);
    CountingOracle counting(budgeted);
    OracleAttackParams params = enumerate_params();
    params.random_warmup = 64;  // one block, larger than the budget
    const OracleAttackResult r = oracle_attack(nl, counting, params);
    EXPECT_EQ(r.status, OracleAttackResult::Status::kQueryBudget);
    EXPECT_EQ(r.warmup_queries, 10);
    EXPECT_EQ(r.queries, 0);
    EXPECT_EQ(counting.patterns(), 10u);
    EXPECT_FALSE(r.counted);
}

// ----------------------------------------------------- flow integration --

flow::FlowParams tiny_flow_params(std::uint64_t seed) {
    flow::FlowParams params;
    params.ga.population = 6;
    params.ga.generations = 2;
    params.run_random_baseline = false;
    params.oracle.count_mode = CountMode::kEnumerate;
    params.oracle.max_survivors = 64;
    params.seed = seed;
    return params;
}

TEST(FlowOracle, QueryBudgetSurfacesInAdversaryReport) {
    const auto fns = flow::from_sboxes(sbox::present_viable_set(2));
    flow::FlowParams params = tiny_flow_params(3);
    params.adversaries = {"cegar"};
    params.oracle_model.query_budget = 1;
    flow::ObfuscationFlow engine;
    const flow::FlowResult r = engine.run(fns, params);
    ASSERT_EQ(r.attack_reports.size(), 1u);
    const AdversaryReport& report = r.attack_reports[0];
    // A camouflaged flow netlist needs well over one distinguishing input.
    EXPECT_EQ(report.outcome, "query budget");
    EXPECT_FALSE(report.success);
    EXPECT_EQ(report.oracle.budget, 1u);
    EXPECT_TRUE(report.oracle.budget_exhausted);
    EXPECT_EQ(report.oracle.patterns, 1u);
    EXPECT_EQ(report.queries, 1);
}

TEST(FlowOracle, TranscriptSaveThenReplayReproducesReport) {
    const std::string path = testing::TempDir() + "mvf_oracle_transcript.json";
    const std::string again = testing::TempDir() + "mvf_oracle_replayed.json";
    const auto fns = flow::from_sboxes(sbox::present_viable_set(2));
    const auto load = [](const std::string& file) {
        std::ifstream in(file);
        std::ostringstream text;
        text << in.rdbuf();
        return OracleTranscript::from_json(report::Json::parse(text.str()));
    };

    flow::FlowParams params = tiny_flow_params(5);
    params.adversaries = {"cegar"};
    params.save_transcript = path;
    flow::ObfuscationFlow engine;
    const flow::FlowResult live = engine.run(fns, params);
    ASSERT_EQ(live.attack_reports.size(), 1u);
    ASSERT_GE(live.attack_reports[0].queries, 1);

    flow::FlowParams replay_params = tiny_flow_params(5);
    replay_params.adversaries = {"cegar"};
    replay_params.replay_transcript = path;
    replay_params.save_transcript = again;
    flow::ObfuscationFlow engine2;
    const flow::FlowResult replayed = engine2.run(fns, replay_params);
    ASSERT_EQ(replayed.attack_reports.size(), 1u);

    const AdversaryReport& a = live.attack_reports[0];
    const AdversaryReport& b = replayed.attack_reports[0];
    EXPECT_EQ(a.queries, b.queries);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.survivors, b.survivors);
    EXPECT_EQ(a.survivors_str, b.survivors_str);
    // The replay re-issued the live query sequence, pattern for pattern.
    const OracleTranscript live_queries = load(path);
    const OracleTranscript replayed_queries = load(again);
    ASSERT_EQ(live_queries.entries.size(),
              static_cast<std::size_t>(a.queries));
    EXPECT_TRUE(replayed_queries.entries == live_queries.entries);
    std::remove(path.c_str());
    std::remove(again.c_str());
}

// -------------------------------------------- concurrent decorator stacks

TEST(OracleDecorators, SharedStackAnswersCorrectlyUnderConcurrentQueries) {
    // The thread-safety regression (exercised under TSan in CI): threads
    // sharing ONE counting/caching stack over one chip must neither race
    // nor corrupt answers or accounting with concurrent scalar and block
    // queries.
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(211);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 6, 2, 10, rng);
    const std::vector<int> config = nl.configuration_for_code(0);
    SimOracle chip(nl, config);
    CachingOracle cache(chip);
    CountingOracle counter(cache);

    // Ground truth per pattern, from a private oracle.
    const std::vector<std::vector<bool>> patterns = all_patterns(6);
    SimOracle reference(nl, config);
    std::vector<std::vector<bool>> truth;
    for (const auto& p : patterns) truth.push_back(reference.query(p));

    constexpr int kThreads = 8;
    constexpr int kQueriesPerThread = 200;
    std::atomic<int> wrong{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            util::Rng trng(1000 + static_cast<std::uint64_t>(t));
            for (int q = 0; q < kQueriesPerThread; ++q) {
                const std::size_t k = static_cast<std::size_t>(
                    trng.uniform_int(0, static_cast<int>(patterns.size()) - 1));
                if (q % 5 == 0) {
                    // Batched path: a 3-pattern block through the stack.
                    const std::size_t k2 = (k + 1) % patterns.size();
                    const std::size_t k3 = (k + 2) % patterns.size();
                    const auto words = counter.query_block(
                        pack_block({patterns[k], patterns[k2], patterns[k3]}),
                        3);
                    if (unpack_lane(words, 0) != truth[k] ||
                        unpack_lane(words, 1) != truth[k2] ||
                        unpack_lane(words, 2) != truth[k3]) {
                        ++wrong;
                    }
                } else if (counter.query(patterns[k]) != truth[k]) {
                    ++wrong;
                }
            }
        });
    }
    for (std::thread& w : workers) w.join();

    EXPECT_EQ(wrong.load(), 0);
    // Accounting is exact across threads: every issued pattern counted.
    const std::uint64_t per_thread =
        kQueriesPerThread / 5 * 3 + (kQueriesPerThread - kQueriesPerThread / 5);
    EXPECT_EQ(counter.patterns(), kThreads * per_thread);
    // 64 distinct patterns exist, so nearly everything was a cache hit.
    EXPECT_GE(cache.hits(), counter.patterns() - patterns.size());
}

TEST(OracleDecorators, ConcurrentCallersCannotOverdrawTheBudget) {
    // Disjoint fresh patterns from every thread against one shared budget:
    // exactly `budget` patterns get answered no matter the interleaving,
    // and the rest throw OracleBudgetExceeded without consuming anything.
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(223);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 10, 1, 14, rng);
    SimOracle chip(nl, nl.configuration_for_code(0));
    NoisyOracle noisy(chip, 0.25, 7);  // noise RNG shares the hammering too
    BudgetedOracle budget(noisy, 100);
    CachingOracle cache(budget);

    constexpr int kThreads = 8;
    constexpr int kPerThread = 40;  // 320 unique patterns >> budget
    std::atomic<int> answered{0};
    std::atomic<int> refused{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (int q = 0; q < kPerThread; ++q) {
                // Pattern = thread id and sequence number in binary:
                // globally unique, so every answer costs budget.
                const int code = t * kPerThread + q;
                std::vector<bool> p(10);
                for (int i = 0; i < 10; ++i) p[static_cast<std::size_t>(i)] = (code >> i) & 1;
                try {
                    cache.query(p);
                    ++answered;
                } catch (const OracleBudgetExceeded&) {
                    ++refused;
                }
            }
        });
    }
    for (std::thread& w : workers) w.join();

    EXPECT_EQ(answered.load(), 100);
    EXPECT_EQ(refused.load(), kThreads * kPerThread - 100);
    EXPECT_EQ(budget.remaining(), 0u);
    EXPECT_TRUE(budget.exhausted());
}

TEST(FlowOracle, NoiseAndCacheComposeInTheStandardPipeline) {
    const auto fns = flow::from_sboxes(sbox::present_viable_set(2));
    flow::FlowParams params = tiny_flow_params(7);
    params.adversaries = {"cegar"};
    params.oracle_model.noise = 0.05;
    params.oracle_model.cache = true;
    params.oracle.max_iterations = 64;  // noise can stall convergence
    flow::ObfuscationFlow engine;
    const flow::FlowResult r = engine.run(fns, params);
    ASSERT_EQ(r.attack_reports.size(), 1u);
    // Whatever the noisy outcome, the accounting layer saw every query.
    EXPECT_EQ(static_cast<int>(r.attack_reports[0].oracle.patterns),
              r.attack_reports[0].queries);
}

}  // namespace
}  // namespace mvf::attack
