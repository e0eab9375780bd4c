// Tests for the composable pipeline API: the staged flow, the adversary
// registry, scenario batches on the job scheduler, and the JSON report
// layer.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "flow/pipeline.hpp"
#include "flow/scheduler.hpp"
#include "report/json.hpp"
#include "sbox/sbox_data.hpp"

namespace mvf::flow {
namespace {

FlowParams tiny_params(std::uint64_t seed = 1) {
    FlowParams p;
    p.ga.population = 8;
    p.ga.generations = 3;
    p.seed = seed;
    return p;
}

// Exact (bitwise) comparison of everything ObfuscationFlow::run reports.
void expect_identical_results(const FlowResult& a, const FlowResult& b) {
    EXPECT_EQ(a.random_avg, b.random_avg);
    EXPECT_EQ(a.random_best, b.random_best);
    EXPECT_EQ(a.random_areas, b.random_areas);
    EXPECT_EQ(a.ga_area, b.ga_area);
    EXPECT_EQ(a.ga_tm_area, b.ga_tm_area);
    EXPECT_EQ(a.ga.best, b.ga.best);
    EXPECT_EQ(a.ga.best_area, b.ga.best_area);
    EXPECT_EQ(a.ga.history.best_per_generation, b.ga.history.best_per_generation);
    EXPECT_EQ(a.ga.history.avg_per_generation, b.ga.history.avg_per_generation);
    EXPECT_EQ(a.ga.history.evaluations, b.ga.history.evaluations);
    EXPECT_EQ(a.verified, b.verified);
    EXPECT_EQ(a.camo_stats.area, b.camo_stats.area);
    EXPECT_EQ(a.camo_stats.num_cells, b.camo_stats.num_cells);
    EXPECT_EQ(a.camo_stats.config_space_bits, b.camo_stats.config_space_bits);
    EXPECT_EQ(a.camo_stats.selects_eliminated, b.camo_stats.selects_eliminated);
    ASSERT_EQ(a.synthesized.has_value(), b.synthesized.has_value());
    if (a.synthesized) {
        EXPECT_EQ(a.synthesized->area(), b.synthesized->area());
        EXPECT_EQ(a.synthesized->num_nodes(), b.synthesized->num_nodes());
    }
    ASSERT_EQ(a.camouflaged.has_value(), b.camouflaged.has_value());
    if (a.camouflaged) {
        EXPECT_EQ(a.camouflaged->area(), b.camouflaged->area());
        EXPECT_EQ(a.camouflaged->num_cells(), b.camouflaged->num_cells());
        EXPECT_EQ(a.camouflaged->num_pis(), b.camouflaged->num_pis());
    }
    ASSERT_EQ(a.attack_reports.size(), b.attack_reports.size());
    for (std::size_t i = 0; i < a.attack_reports.size(); ++i) {
        const attack::AdversaryReport& x = a.attack_reports[i];
        const attack::AdversaryReport& y = b.attack_reports[i];
        EXPECT_EQ(x.adversary, y.adversary);
        EXPECT_EQ(x.outcome, y.outcome);
        EXPECT_EQ(x.queries, y.queries);
        EXPECT_EQ(x.survivors_str, y.survivors_str);
        EXPECT_EQ(x.sat.conflicts, y.sat.conflicts);
        EXPECT_EQ(x.oracle, y.oracle);
    }
}

TEST(Pipeline, StagedRunMatchesObfuscationFlowRun) {
    // Acceptance gate: the manually composed staged pipeline reproduces the
    // monolithic-entry results exactly at fixed seed (fresh caches on both
    // sides so the comparison is cache-state independent).
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    FlowParams params = tiny_params(21);
    params.adversaries = {"cegar"};
    // Capped legacy counting: these flow netlists are dense, so the
    // default exact counter would just burn its budget and fall back.
    params.oracle.count_mode = attack::CountMode::kEnumerate;
    params.oracle.max_survivors = 64;

    ObfuscationFlow monolithic;
    const FlowResult expected = monolithic.run(fns, params);

    ObfuscationFlow staged;
    FlowContext ctx(staged, fns, params);
    Pipeline pipeline;
    pipeline.add_stage<PinSearchStage>()
        .add_stage<SynthesizeStage>()
        .add_stage<CamoCoverStage>()
        .add_stage<ValidateStage>()
        .add_stage<AttackStage>();
    const PipelineStatus status = pipeline.run(ctx);
    EXPECT_TRUE(status.completed);
    EXPECT_EQ(status.stages_run, 5);

    expect_identical_results(ctx.result, expected);
}

TEST(Pipeline, StandardPipelineStagesFollowParams) {
    FlowParams all = tiny_params();
    all.adversaries = {"cegar"};
    const Pipeline p1 = Pipeline::standard(all);
    ASSERT_EQ(p1.num_stages(), 5);
    EXPECT_EQ(p1.stage(0).name(), "pin-search");
    EXPECT_EQ(p1.stage(1).name(), "synthesize");
    EXPECT_EQ(p1.stage(2).name(), "camo-cover");
    EXPECT_EQ(p1.stage(3).name(), "validate");
    EXPECT_EQ(p1.stage(4).name(), "attack");

    FlowParams no_camo = tiny_params();
    no_camo.run_camo_mapping = false;
    EXPECT_EQ(Pipeline::standard(no_camo).num_stages(), 2);

    FlowParams no_verify = tiny_params();
    no_verify.verify = false;
    EXPECT_EQ(Pipeline::standard(no_verify).num_stages(), 3);
}

TEST(Pipeline, ProgressEventsArriveInStageOrder) {
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    ObfuscationFlow engine;
    FlowContext ctx(engine, fns, tiny_params(3));
    std::vector<std::string> seen;
    ctx.progress = [&](const StageEvent& e) {
        EXPECT_EQ(e.total, 4);
        EXPECT_EQ(e.index, static_cast<int>(seen.size()));
        EXPECT_GE(e.seconds, 0.0);
        seen.emplace_back(e.stage);
    };
    Pipeline::standard(ctx.params).run(ctx);
    EXPECT_EQ(seen, (std::vector<std::string>{"pin-search", "synthesize",
                                              "camo-cover", "validate"}));
}

TEST(Pipeline, CancellationStopsBetweenStages) {
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    ObfuscationFlow engine;
    FlowContext ctx(engine, fns, tiny_params(5));
    ctx.progress = [&](const StageEvent& e) {
        if (e.stage == "pin-search") ctx.cancel.cancel();
    };
    const PipelineStatus status = Pipeline::standard(ctx.params).run(ctx);
    EXPECT_FALSE(status.completed);
    EXPECT_EQ(status.stages_run, 1);
    EXPECT_EQ(status.stopped_before, "synthesize");
    // Phase II ran, the rest did not.
    EXPECT_GT(ctx.result.ga.best_area, 0.0);
    EXPECT_FALSE(ctx.result.synthesized.has_value());
}

TEST(Pipeline, ExpiredDeadlineStopsImmediately) {
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    ObfuscationFlow engine;
    FlowContext ctx(engine, fns, tiny_params(5));
    ctx.set_timeout(0.0);
    const PipelineStatus status = Pipeline::standard(ctx.params).run(ctx);
    EXPECT_FALSE(status.completed);
    EXPECT_EQ(status.stages_run, 0);
    EXPECT_EQ(status.stopped_before, "pin-search");
}

// Regression: a deadline abort used to return without any progress event,
// so callers watching the stream never learned the run was cut short.
TEST(Pipeline, AbortedRunEmitsFinalIncompleteProgressEvent) {
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    ObfuscationFlow engine;
    FlowContext ctx(engine, fns, tiny_params(5));
    ctx.set_timeout(0.0);
    std::vector<StageEvent> events;
    ctx.progress = [&](const StageEvent& e) { events.push_back(e); };
    Pipeline::standard(ctx.params).run(ctx);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_FALSE(events.back().completed);
    EXPECT_EQ(events.back().stage, "pin-search");  // the stage that was cut
    EXPECT_EQ(events.back().index, 0);

    // Mid-run cancellation: completed events for the stages that ran, then
    // one completed=false event naming the first stage that did not.
    FlowContext ctx2(engine, fns, tiny_params(5));
    std::vector<StageEvent> events2;
    ctx2.progress = [&](const StageEvent& e) {
        events2.push_back(e);
        if (e.stage == "pin-search") ctx2.cancel.cancel();
    };
    Pipeline::standard(ctx2.params).run(ctx2);
    ASSERT_EQ(events2.size(), 2u);
    EXPECT_TRUE(events2[0].completed);
    EXPECT_EQ(events2[0].stage, "pin-search");
    EXPECT_FALSE(events2[1].completed);
    EXPECT_EQ(events2[1].stage, "synthesize");
}

TEST(Pipeline, SynthesizeStageStandaloneUsesIdentityAssignment) {
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    ObfuscationFlow engine;
    FlowContext ctx(engine, fns, tiny_params(7));
    SynthesizeStage().run(ctx);
    ASSERT_TRUE(ctx.result.synthesized.has_value());
    EXPECT_GT(ctx.result.ga_area, 0.0);
    EXPECT_EQ(ctx.result.ga.best,
              ga::PinAssignment::identity(2, 4, 4));
}

// Regression for the old silent path: an attack with
// run_camo_mapping=false used to return a FlowResult without the attack's
// result; the attack stage now fails fast with a diagnostic.
TEST(Pipeline, AttackWithoutCamoMappingFailsFast) {
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    FlowParams params = tiny_params(9);
    params.run_camo_mapping = false;
    params.adversaries = {"cegar"};
    ObfuscationFlow engine;
    EXPECT_THROW(engine.run(fns, params), std::invalid_argument);
}

TEST(Pipeline, AttackStageRunsRequestedAdversarySubset) {
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    FlowParams params = tiny_params(11);
    params.adversaries = {"plausibility"};
    ObfuscationFlow engine;
    const FlowResult r = engine.run(fns, params);
    ASSERT_EQ(r.attack_reports.size(), 1u);
    EXPECT_EQ(r.attack_reports[0].adversary, "plausibility");
    // The paper's defense: no viable function can be ruled out.
    EXPECT_FALSE(r.attack_reports[0].success);
    EXPECT_EQ(r.attack_reports[0].survivors, 2u);
}

TEST(Pipeline, UnknownAdversaryNameIsDiagnosed) {
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    FlowParams params = tiny_params(15);
    params.adversaries = {"quantum"};
    ObfuscationFlow engine;
    try {
        engine.run(fns, params);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("quantum"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("cegar"), std::string::npos);
    }
}

// ------------------------------------------------------------ batch runner --

std::vector<Scenario> eight_scenarios() {
    // All PRESENT-family (4 data inputs): the merged-DES plausibility CNFs
    // are big enough to push this determinism test into minutes.
    std::vector<Scenario> scenarios;
    for (int i = 0; i < 8; ++i) {
        Scenario s;
        s.n = (i % 2 == 0) ? 2 : 4;
        s.name = 's' + std::to_string(i);
        s.params = tiny_params(static_cast<std::uint64_t>(100 + i));
        s.params.ga.population = 6;
        s.params.ga.generations = 2;
        if (i % 3 == 0) {
            s.params.adversaries = {"plausibility"};
        }
        scenarios.push_back(std::move(s));
    }
    return scenarios;
}

// Timing fields are the only legitimately nondeterministic part.
void strip_timing(std::vector<ScenarioRecord>* records) {
    for (ScenarioRecord& r : *records) {
        r.seconds = 0.0;
        for (attack::AdversaryReport& a : r.attacks) {
            a.seconds = 0.0;
            a.sat.solve_seconds = 0.0;
        }
    }
}

TEST(BatchRunner, ParallelExecutionMatchesSerial) {
    const std::vector<Scenario> scenarios = eight_scenarios();

    std::vector<ScenarioRecord> serial_records = run_batch(scenarios, 1);

    std::vector<ScenarioRecord> parallel_records = run_batch(scenarios, 4);

    ASSERT_EQ(serial_records.size(), parallel_records.size());
    strip_timing(&serial_records);
    strip_timing(&parallel_records);
    for (std::size_t i = 0; i < serial_records.size(); ++i) {
        const ScenarioRecord& a = serial_records[i];
        const ScenarioRecord& b = parallel_records[i];
        EXPECT_EQ(a.index, b.index);
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.ok, b.ok) << a.name << ": " << a.error << " / " << b.error;
        EXPECT_EQ(a.random_avg, b.random_avg) << a.name;
        EXPECT_EQ(a.random_best, b.random_best) << a.name;
        EXPECT_EQ(a.ga_area, b.ga_area) << a.name;
        EXPECT_EQ(a.ga_tm_area, b.ga_tm_area) << a.name;
        EXPECT_EQ(a.verified, b.verified) << a.name;
        EXPECT_EQ(a.camo_cells, b.camo_cells) << a.name;
        EXPECT_EQ(a.config_space_bits, b.config_space_bits) << a.name;
        ASSERT_EQ(a.attacks.size(), b.attacks.size()) << a.name;
        for (std::size_t k = 0; k < a.attacks.size(); ++k) {
            EXPECT_TRUE(a.attacks[k] == b.attacks[k]) << a.name;
        }
    }
}

TEST(BatchRunner, ScenarioFailureIsCapturedNotThrown) {
    Scenario bad;
    bad.name = "contradiction";
    bad.params = tiny_params(1);
    bad.params.run_camo_mapping = false;
    bad.params.adversaries = {"cegar"};
    Scenario good;
    good.name = "fine";
    good.params = tiny_params(2);

    const std::vector<ScenarioRecord> records = run_batch({bad, good}, 1);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_FALSE(records[0].ok);
    EXPECT_NE(records[0].error.find("camouflaged"), std::string::npos);
    EXPECT_TRUE(records[1].ok) << records[1].error;
}

TEST(BatchRunner, SpecParsingRoundTrip) {
    const std::string spec =
        "# comment only\n"
        "\n"
        "name=a funcs=present:4 seed=7 population=10 generations=5 "
        "attack=cegar,plausibility max_survivors=99 preprocess=0 "
        "shared_miter=0 canonical_inputs=1\n"
        "funcs=des:2 camo=0 baseline=false verify=1\n";
    const std::vector<Scenario> scenarios = parse_scenario_spec(spec);
    ASSERT_EQ(scenarios.size(), 2u);
    EXPECT_EQ(scenarios[0].name, "a");
    EXPECT_EQ(scenarios[0].family, "present");
    EXPECT_EQ(scenarios[0].n, 4);
    EXPECT_EQ(scenarios[0].params.seed, 7u);
    EXPECT_EQ(scenarios[0].params.ga.population, 10);
    EXPECT_EQ(scenarios[0].params.ga.generations, 5);
    EXPECT_EQ(scenarios[0].params.adversaries,
              (std::vector<std::string>{"cegar", "plausibility"}));
    EXPECT_EQ(scenarios[0].params.oracle.max_survivors, 99u);
    // A survivor cap without an explicit count_mode is a request for the
    // capped legacy enumeration (preserves the pre-counting spec corpus).
    EXPECT_EQ(scenarios[0].params.oracle.count_mode,
              attack::CountMode::kEnumerate);
    EXPECT_EQ(scenarios[1].params.oracle.count_mode,
              attack::CountMode::kExact);  // the default
    EXPECT_FALSE(scenarios[0].params.oracle.solver.preprocess);
    EXPECT_FALSE(scenarios[0].params.oracle.shared_miter);
    EXPECT_TRUE(scenarios[0].params.oracle.canonical_inputs);
    EXPECT_TRUE(scenarios[1].params.oracle.solver.preprocess);  // default on
    EXPECT_EQ(scenarios[1].name, "des2-s1");  // derived default name
    EXPECT_FALSE(scenarios[1].params.run_camo_mapping);
    EXPECT_FALSE(scenarios[1].params.run_random_baseline);

    EXPECT_THROW(parse_scenario_spec("bogus\n"), std::invalid_argument);
    EXPECT_THROW(parse_scenario_spec("funcs=present\n"), std::invalid_argument);
    EXPECT_THROW(parse_scenario_spec("color=red\n"), std::invalid_argument);
    EXPECT_THROW(parse_scenario_spec("camo=maybe\n"), std::invalid_argument);
}

TEST(BatchRunner, SpecCountingKeysParseAndContradict) {
    // The two modes and their mode-specific knobs parse.
    const std::vector<Scenario> ok = parse_scenario_spec(
        "funcs=present:2 count_mode=exact count_cache_mb=16 "
        "count_max_decisions=5000\n"
        "funcs=present:2 count_mode=enumerate max_survivors=7\n");
    ASSERT_EQ(ok.size(), 2u);
    EXPECT_EQ(ok[0].params.oracle.count_mode, attack::CountMode::kExact);
    EXPECT_EQ(ok[0].params.oracle.count_cache_mb, 16);
    EXPECT_EQ(ok[0].params.oracle.count_max_decisions, 5000u);
    EXPECT_EQ(ok[1].params.oracle.count_mode, attack::CountMode::kEnumerate);
    EXPECT_EQ(ok[1].params.oracle.max_survivors, 7u);

    // Approximate counting and its knobs are gone: specs that still name
    // them are rejected, never silently counted another way.
    EXPECT_THROW(parse_scenario_spec("funcs=present:2 count_mode=approx\n"),
                 std::invalid_argument);
    EXPECT_THROW(
        parse_scenario_spec(
            "funcs=present:2 count_mode=approx epsilon=0.5 delta=0.1\n"),
        std::invalid_argument);
    EXPECT_THROW(parse_scenario_spec("funcs=present:2 epsilon=0.5\n"),
                 std::invalid_argument);
    EXPECT_THROW(parse_scenario_spec("funcs=present:2 delta=0.1\n"),
                 std::invalid_argument);

    // Contradictory counting keys are rejected, never silently ignored.
    EXPECT_THROW(parse_scenario_spec("count_mode=banana\n"),
                 std::invalid_argument);
    EXPECT_THROW(
        parse_scenario_spec(
            "funcs=present:2 count_mode=exact max_survivors=5\n"),
        std::invalid_argument);
    EXPECT_THROW(
        parse_scenario_spec(
            "funcs=present:2 count_mode=enumerate count_cache_mb=8\n"),
        std::invalid_argument);
    EXPECT_THROW(
        parse_scenario_spec(
            "funcs=present:2 max_survivors=5 count_cache_mb=8\n"),
        std::invalid_argument);
    // Counting keys with counting switched off entirely.
    EXPECT_THROW(
        parse_scenario_spec(
            "funcs=present:2 enum_survivors=0 count_mode=exact\n"),
        std::invalid_argument);
    EXPECT_THROW(
        parse_scenario_spec(
            "funcs=present:2 count_mode=exact count_cache_mb=0\n"),
        std::invalid_argument);
}

TEST(BatchRunner, SpecOracleModelKeysParseAndContradict) {
    const std::vector<Scenario> ok = parse_scenario_spec(
        "funcs=present:2 query_budget=8 oracle_noise=0.01 oracle_cache=1 "
        "save_transcript=t.json random_warmup=32 random_queries=64\n"
        "funcs=present:2 replay_transcript=t.json\n");
    ASSERT_EQ(ok.size(), 2u);
    EXPECT_EQ(ok[0].params.oracle_model.query_budget, 8u);
    EXPECT_DOUBLE_EQ(ok[0].params.oracle_model.noise, 0.01);
    EXPECT_TRUE(ok[0].params.oracle_model.cache);
    EXPECT_EQ(ok[0].params.save_transcript, "t.json");
    EXPECT_EQ(ok[0].params.oracle.random_warmup, 32);
    EXPECT_EQ(ok[0].params.random_queries, 64);
    EXPECT_EQ(ok[1].params.replay_transcript, "t.json");

    const std::vector<Scenario> metrics_on =
        parse_scenario_spec("funcs=present:2 metrics=1\n");
    ASSERT_EQ(metrics_on.size(), 1u);
    EXPECT_TRUE(metrics_on[0].params.oracle.collect_metrics);
    EXPECT_FALSE(parse_scenario_spec("funcs=present:2 metrics=0\n")[0]
                     .params.oracle.collect_metrics);

    // Contradictory/out-of-range oracle keys fail at parse time, matching
    // the counting-flag convention.
    EXPECT_THROW(
        parse_scenario_spec(
            "funcs=present:2 replay_transcript=t.json oracle_noise=0.1\n"),
        std::invalid_argument);
    EXPECT_THROW(
        parse_scenario_spec(
            "funcs=present:2 replay_transcript=t.json oracle_cache=1\n"),
        std::invalid_argument);
    EXPECT_THROW(parse_scenario_spec("funcs=present:2 query_budget=0\n"),
                 std::invalid_argument);
    EXPECT_THROW(parse_scenario_spec("funcs=present:2 oracle_noise=1.0\n"),
                 std::invalid_argument);
    EXPECT_THROW(parse_scenario_spec("funcs=present:2 oracle_noise=-0.5\n"),
                 std::invalid_argument);
    EXPECT_THROW(parse_scenario_spec("funcs=present:2 random_warmup=-1\n"),
                 std::invalid_argument);
    EXPECT_THROW(parse_scenario_spec("funcs=present:2 random_queries=0\n"),
                 std::invalid_argument);
}

TEST(BatchRunner, SpecParallelKeysParseAndContradict) {
    // Counting runs serially on its scenario's worker, so the former
    // per-attack parallel keys are unknown keys at any value, and the error
    // names the key.  A bad line anywhere rejects the whole spec.
    for (const char* line :
         {"funcs=present:2 attack_threads=4 cube_vars=3\n",
          "funcs=present:2 attack_threads=8\n",
          "funcs=present:2 attack_threads=0\n",
          "funcs=present:2 cube_vars=17\n",
          "funcs=present:2\nfuncs=present:2 cube_vars=3\n"}) {
        try {
            parse_scenario_spec(line);
            ADD_FAILURE() << "accepted: " << line;
        } catch (const std::invalid_argument& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("unknown key"), std::string::npos) << what;
            const bool names_key =
                what.find("\"attack_threads\"") != std::string::npos ||
                what.find("\"cube_vars\"") != std::string::npos;
            EXPECT_TRUE(names_key) << what;
        }
    }
    // Without them the same lines parse.
    EXPECT_EQ(parse_scenario_spec("funcs=present:2\nfuncs=present:2\n").size(),
              2u);
}

TEST(BatchRunner, UnknownFamilyFailsTheScenarioOnly) {
    Scenario s;
    s.name = "martian";
    s.family = "martian";
    const std::vector<ScenarioRecord> records = run_batch({s}, 1);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_FALSE(records[0].ok);
    EXPECT_NE(records[0].error.find("martian"), std::string::npos);
}

TEST(BatchRunner, ThrowingScenarioMidBatchDegradesGracefully) {
    // A spec with an invalid scenario in the middle: the bad record is
    // marked status="error" with the exception text, and every other
    // scenario still runs to completion -- in parallel too.
    const std::vector<Scenario> scenarios = parse_scenario_spec(
        "funcs=present:2 population=8 generations=3 seed=31 attack=none\n"
        "funcs=martian:2 population=8 generations=3 seed=32 attack=none\n"
        "funcs=present:2 population=8 generations=3 seed=33 attack=none\n");
    ASSERT_EQ(scenarios.size(), 3u);

    const std::vector<ScenarioRecord> records = run_batch(scenarios, 2);
    ASSERT_EQ(records.size(), 3u);

    EXPECT_TRUE(records[0].ok);
    EXPECT_EQ(records[0].status, "ok");
    EXPECT_FALSE(records[1].ok);
    EXPECT_EQ(records[1].status, "error");
    EXPECT_NE(records[1].error.find("martian"), std::string::npos);
    EXPECT_TRUE(records[2].ok);
    EXPECT_EQ(records[2].status, "ok");

    // The status lands in the JSON report (the field serve clients and
    // check-report consume), and the failed record still carries its
    // provenance hash.
    EXPECT_EQ(records[1].to_json().at("status").as_string(), "error");
    EXPECT_FALSE(records[1].spec_hash.empty());
    const report::Json doc = batch_report(records, 1.0);
    EXPECT_EQ(doc.at("failures").as_int(), 1);
}

// ------------------------------------------------- adversary JSON reports --

TEST(Adversary, EveryRegisteredAdversaryReportRoundTripsThroughJson) {
    // Run a tiny flow through EVERY registered adversary, then serialize
    // each report to JSON text and parse it back: the result must compare
    // equal field-for-field.
    const std::vector<std::string> names =
        attack::AdversaryRegistry::instance().names();
    ASSERT_GE(names.size(), 2u);

    const auto fns = from_sboxes(sbox::present_viable_set(2));
    FlowParams params = tiny_params(17);
    params.adversaries = names;
    params.oracle.count_mode = attack::CountMode::kEnumerate;  // dense; keep fast
    params.oracle.max_survivors = 32;
    ObfuscationFlow engine;
    const FlowResult r = engine.run(fns, params);
    ASSERT_EQ(r.attack_reports.size(), names.size());

    for (std::size_t i = 0; i < names.size(); ++i) {
        const attack::AdversaryReport& report = r.attack_reports[i];
        EXPECT_EQ(report.adversary, names[i]);
        const std::string text = report.to_json().dump(2);
        const attack::AdversaryReport parsed =
            attack::AdversaryReport::from_json(report::Json::parse(text));
        EXPECT_TRUE(parsed == report) << names[i] << "\n" << text;
    }
}

TEST(Adversary, RegistryRejectsUnknownAndListsKnown) {
    attack::AdversaryRegistry& registry = attack::AdversaryRegistry::instance();
    EXPECT_TRUE(registry.contains("cegar"));
    EXPECT_TRUE(registry.contains("plausibility"));
    EXPECT_FALSE(registry.contains("nope"));
    EXPECT_THROW(registry.create("nope", {}), std::invalid_argument);
}

TEST(Adversary, CegarRequiresOracle) {
    attack::CegarAdversary adversary;
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    ObfuscationFlow engine;
    FlowParams params = tiny_params(19);
    const FlowResult r = engine.run(fns, params);
    ASSERT_TRUE(r.camouflaged.has_value());
    EXPECT_THROW(adversary.attack(*r.camouflaged, nullptr),
                 std::invalid_argument);
}

// ------------------------------------------------------------ report JSON --

TEST(Json, ScalarsAndContainersRoundTrip) {
    report::Json doc = report::Json::object();
    doc.set("bool", true);
    doc.set("int", 42);
    doc.set("neg", -7);
    doc.set("big", std::uint64_t{1} << 52);
    doc.set("real", 3.25);
    doc.set("tiny", 1.0e-8);
    doc.set("text", std::string("quote \" backslash \\ newline \n tab \t"));
    doc.set("null", report::Json());
    report::Json arr = report::Json::array();
    arr.push_back(1);
    arr.push_back("two");
    arr.push_back(report::Json::object());
    doc.set("arr", std::move(arr));

    for (const int indent : {-1, 0, 2}) {
        const report::Json parsed = report::Json::parse(doc.dump(indent));
        EXPECT_EQ(parsed, doc) << "indent=" << indent;
    }
    EXPECT_EQ(report::Json::parse(doc.dump()).at("big").as_uint(),
              std::uint64_t{1} << 52);
}

TEST(Json, MalformedInputsThrow) {
    EXPECT_THROW(report::Json::parse(""), report::JsonError);
    EXPECT_THROW(report::Json::parse("{"), report::JsonError);
    EXPECT_THROW(report::Json::parse("[1,]"), report::JsonError);
    EXPECT_THROW(report::Json::parse("{\"a\":1} trailing"), report::JsonError);
    EXPECT_THROW(report::Json::parse("{'a':1}"), report::JsonError);
    EXPECT_THROW(report::Json::parse("nul"), report::JsonError);
    EXPECT_THROW(report::Json::parse("\"unterminated"), report::JsonError);
    EXPECT_THROW(report::Json::parse("12e"), report::JsonError);
}

TEST(Json, AccessorsDiagnoseTypeMismatches) {
    const report::Json doc = report::Json::parse("{\"a\": [1, 2]}");
    EXPECT_THROW(doc.at("missing"), report::JsonError);
    EXPECT_THROW(doc.at("a").as_string(), report::JsonError);
    EXPECT_EQ(doc.at("a").size(), 2u);
    EXPECT_EQ(doc.at("a").at(1).as_int(), 2);
    EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, BatchReportValidatesLikeCheckReport) {
    Scenario s;
    s.name = "one";
    s.params = tiny_params(23);
    s.params.adversaries = {"plausibility"};
    const std::vector<ScenarioRecord> records = run_batch({s}, 1);
    const report::Json doc =
        report::Json::parse(batch_report(records, 1.5).dump(2));
    EXPECT_EQ(doc.at("scenario_count").as_int(), 1);
    EXPECT_EQ(doc.at("failures").as_int(), 0);
    const report::Json& rec = doc.at("scenarios").at(0);
    EXPECT_EQ(rec.at("name").as_string(), "one");
    EXPECT_TRUE(rec.at("ok").as_bool());
    ASSERT_EQ(rec.at("attacks").size(), 1u);
    const attack::AdversaryReport report =
        attack::AdversaryReport::from_json(rec.at("attacks").at(0));
    EXPECT_EQ(report.adversary, "plausibility");
}

}  // namespace
}  // namespace mvf::flow
