// Stage I/O (flow/stage_io.hpp): netlist and context snapshots for the
// serve stage-result cache.  The load-bearing property is bit-identity --
// a pipeline resumed from a snapshot must produce the same bytes as one
// that ran every stage -- so the round-trip tests compare canonical JSON
// dumps, not just summary scalars.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "flow/batch_runner.hpp"
#include "flow/pipeline.hpp"
#include "flow/spec_hash.hpp"
#include "flow/stage_io.hpp"
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

/// In-memory StageStore: enough to exercise the pipeline's cache path
/// without the serve layer.
class MapStore final : public StageStore {
public:
    bool load(const std::string& key, report::Json* out) override {
        const auto it = entries_.find(key);
        if (it == entries_.end()) return false;
        *out = report::Json::parse(it->second);
        return true;
    }
    void store(const std::string& key, const report::Json& snapshot) override {
        entries_[key] = snapshot.dump();
    }
    std::size_t size() const { return entries_.size(); }
    /// Replaces every snapshot with well-formed JSON that is not a valid
    /// snapshot: load succeeds, restore_context throws, and the pipeline
    /// must treat the entry as a miss.
    void corrupt_all() {
        for (auto& [key, text] : entries_) text = "{\"bogus\":1}";
    }

private:
    std::map<std::string, std::string> entries_;
};

FlowResult run_flow(std::uint64_t seed) {
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    ObfuscationFlow engine;
    return engine.run(fns, tiny_params(seed));
}

TEST(StageIo, MappedNetlistRoundTripsExactly) {
    const FlowResult r = run_flow(11);
    ASSERT_TRUE(r.synthesized.has_value());
    ObfuscationFlow engine;  // same standard libraries
    const report::Json j = netlist_to_json(*r.synthesized);
    const tech::Netlist back = netlist_from_json(j, engine.gate_library());
    EXPECT_EQ(back.num_nodes(), r.synthesized->num_nodes());
    EXPECT_EQ(back.area(), r.synthesized->area());
    // Serialize-parse-serialize is the identity: node ids, fanins, PO
    // names all survive.
    EXPECT_EQ(netlist_to_json(back).dump(), j.dump());
}

TEST(StageIo, CamoNetlistRoundTripsExactly) {
    const FlowResult r = run_flow(13);
    ASSERT_TRUE(r.camouflaged.has_value());
    ObfuscationFlow engine;
    const report::Json j = camo_netlist_to_json(*r.camouflaged);
    const camo::CamoNetlist back =
        camo_netlist_from_json(j, engine.camo_library());
    EXPECT_EQ(back.num_cells(), r.camouflaged->num_cells());
    EXPECT_EQ(back.num_pis(), r.camouflaged->num_pis());
    EXPECT_EQ(back.area(), r.camouflaged->area());
    EXPECT_EQ(camo_netlist_to_json(back).dump(), j.dump());
}

TEST(StageIo, ContextSnapshotRestoresToIdenticalSnapshot) {
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    ObfuscationFlow engine;
    FlowContext ctx(engine, fns, tiny_params(17));
    const PipelineStatus status = Pipeline::standard(ctx.params).run(ctx);
    ASSERT_TRUE(status.completed);

    const report::Json snapshot = snapshot_context(ctx);
    ObfuscationFlow engine2;
    FlowContext restored(engine2, fns, tiny_params(17));
    restore_context(snapshot, &restored);

    EXPECT_EQ(snapshot_context(restored).dump(), snapshot.dump());
    // best_spec is re-derived, not serialized; after a full-pipeline
    // snapshot it must exist again (ValidateStage depends on it).
    EXPECT_TRUE(restored.best_spec.has_value());
    EXPECT_EQ(restored.result.ga_area, ctx.result.ga_area);
    EXPECT_EQ(restored.result.verified, ctx.result.verified);

    // fixed_nominal carries one 0/1 flag per camouflaged-netlist node; any
    // other string is refused, which the pipeline treats as a cache miss.
    ASSERT_TRUE(ctx.result.camouflaged.has_value());
    const std::size_t nodes =
        static_cast<std::size_t>(ctx.result.camouflaged->num_nodes());
    report::Json flagged = snapshot;
    flagged.set("fixed_nominal", std::string(nodes, '1'));
    restore_context(flagged, &restored);
    EXPECT_EQ(restored.result.fixed_nominal, std::vector<bool>(nodes, true));
    for (const std::string& bad :
         {std::string(nodes + 5, '0'), std::string("1"),
          std::string(nodes - 1, '0') + "x"}) {
        flagged.set("fixed_nominal", bad);
        EXPECT_THROW(restore_context(flagged, &restored), report::JsonError)
            << bad;
    }
}

TEST(StageIo, RestoreRejectsMalformedSnapshots) {
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    ObfuscationFlow engine;
    FlowContext ctx(engine, fns, tiny_params(1));
    EXPECT_THROW(restore_context(report::Json::parse("{\"bogus\":1}"), &ctx),
                 report::JsonError);
}

TEST(PipelineCache, SecondRunRestoresEveryStageBitIdentically) {
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    Scenario scenario;
    scenario.family = "present";
    scenario.n = 2;
    scenario.params = tiny_params(19);
    MapStore store;
    const auto attach = [&](FlowContext* ctx) {
        ctx->stage_store = &store;
        ctx->stage_key = [&scenario](std::string_view stage) {
            return stage_cache_key(scenario, stage);
        };
    };

    ObfuscationFlow engine1;
    FlowContext fresh(engine1, fns, scenario.params);
    attach(&fresh);
    const PipelineStatus first = Pipeline::standard(scenario.params).run(fresh);
    ASSERT_TRUE(first.completed);
    EXPECT_EQ(first.stages_cached, 0);
    EXPECT_GT(store.size(), 0u);

    ObfuscationFlow engine2;
    FlowContext cached(engine2, fns, scenario.params);
    attach(&cached);
    int cached_events = 0;
    cached.progress = [&](const StageEvent& ev) {
        if (ev.cached) ++cached_events;
    };
    const PipelineStatus second =
        Pipeline::standard(scenario.params).run(cached);
    ASSERT_TRUE(second.completed);
    // Deepest hit wins: the full-depth snapshot restores every stage.
    EXPECT_EQ(second.stages_cached, Pipeline::standard(scenario.params).num_stages());
    EXPECT_EQ(second.stages_run, 0);
    EXPECT_EQ(cached_events, second.stages_cached);
    EXPECT_EQ(snapshot_context(cached).dump(), snapshot_context(fresh).dump());
}

TEST(PipelineCache, CorruptSnapshotsMissInsteadOfFailing) {
    const auto fns = from_sboxes(sbox::present_viable_set(2));
    Scenario scenario;
    scenario.family = "present";
    scenario.n = 2;
    scenario.params = tiny_params(23);
    MapStore store;
    const auto attach = [&](FlowContext* ctx) {
        ctx->stage_store = &store;
        ctx->stage_key = [&scenario](std::string_view stage) {
            return stage_cache_key(scenario, stage);
        };
    };

    ObfuscationFlow engine1;
    FlowContext fresh(engine1, fns, scenario.params);
    attach(&fresh);
    ASSERT_TRUE(Pipeline::standard(scenario.params).run(fresh).completed);
    store.corrupt_all();

    ObfuscationFlow engine2;
    FlowContext rerun(engine2, fns, scenario.params);
    attach(&rerun);
    const PipelineStatus status = Pipeline::standard(scenario.params).run(rerun);
    ASSERT_TRUE(status.completed);
    EXPECT_EQ(status.stages_cached, 0);
    EXPECT_EQ(snapshot_context(rerun).dump(), snapshot_context(fresh).dump());
}

}  // namespace
}  // namespace mvf::flow
