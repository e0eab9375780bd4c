#include "flow/batch_runner.hpp"

#include <stdexcept>

#include "flow/spec_hash.hpp"
#include "obs/trace.hpp"
#include "sbox/sbox_data.hpp"
#include "util/stopwatch.hpp"

namespace mvf::flow {

ScenarioRecord run_scenario(const Scenario& scenario, int index,
                            const ScenarioRunHooks& hooks) {
    report::Json span_args;
    if (obs::tracing()) {
        span_args = report::Json::object();
        span_args.set("scenario", scenario.name);
        span_args.set("index", index);
    }
    obs::Span span("scenario", "batch", std::move(span_args));
    ScenarioRecord record;
    record.index = index;
    record.name = scenario.name;
    record.family = scenario.family;
    record.n = scenario.n;
    record.seed = scenario.params.seed;
    // One reading of the circuit file per run: the spec hash and every
    // stage key below hash the same bytes, and the next run reads the file
    // again, so an edit on disk still misses the stage cache.
    const std::string fingerprint = circuit_fingerprint(scenario);
    record.spec_hash = spec_hash(scenario, fingerprint);

    util::Stopwatch sw;
    try {
        const std::vector<ViableFunction> functions =
            scenario_functions(scenario);
        // Private engine => private synthesis caches: scenario results
        // cannot depend on what ran before or concurrently.  The cell-match
        // table every engine reads is immutable.
        ObfuscationFlow engine;
        FlowContext ctx(engine, functions, scenario.params);
        if (hooks.cancel) ctx.cancel = *hooks.cancel;
        if (hooks.deadline) ctx.deadline = hooks.deadline;
        ctx.progress = hooks.progress;
        if (hooks.stage_store) {
            ctx.stage_store = hooks.stage_store;
            ctx.stage_key = [&scenario, &fingerprint](std::string_view stage) {
                return stage_cache_key(scenario, stage, fingerprint);
            };
        }
        const PipelineStatus ps = Pipeline::standard(scenario.params).run(ctx);
        record.cache_hits = ps.stages_cached;

        const FlowResult& r = ctx.result;
        record.random_avg = r.random_avg;
        record.random_best = r.random_best;
        record.ga_area = r.ga_area;
        record.ga_tm_area = r.ga_tm_area;
        record.improvement_percent = r.improvement_percent();
        record.verified = r.verified;
        record.camo_cells = r.camo_stats.num_cells;
        record.config_space_bits = r.camo_stats.config_space_bits;
        record.attacks = r.attack_reports;
        if (!scenario.params.emit_proof.empty() && r.attack_proof) {
            // The attack stage leaves the proof's spec_hash blank because
            // only the scenario runner knows it; stamp it before the
            // artifact reaches disk so the claim names its experiment.
            report::Json proof = *r.attack_proof;
            proof.set("spec_hash", record.spec_hash);
            const report::JsonWriter writer(scenario.params.emit_proof);
            if (!writer.write(proof)) {
                throw std::runtime_error("cannot write attack proof: " +
                                         scenario.params.emit_proof);
            }
        }
        if (ps.completed) {
            record.ok = true;
            record.status = "ok";
        } else {
            record.ok = false;
            record.status = "cancelled";
            record.error = "cancelled before stage " + ps.stopped_before;
        }
    } catch (const std::exception& e) {
        record.ok = false;
        record.status = "error";
        record.error = e.what();
    } catch (...) {
        // A non-std exception still may not sink the batch (or the serve
        // scheduler's worker); the record carries what little we know.
        record.ok = false;
        record.status = "error";
        record.error = "unknown exception (not derived from std::exception)";
    }
    record.seconds = sw.elapsed_seconds();
    for (attack::AdversaryReport& a : record.attacks) {
        a.spec_hash = record.spec_hash;
    }
    if (span) {
        report::Json ea = report::Json::object();
        ea.set("ok", record.ok);
        ea.set("status", record.status);
        if (!record.ok) ea.set("error", record.error);
        if (record.cache_hits > 0) ea.set("cache_hits", record.cache_hits);
        span.set_end_args(std::move(ea));
    }
    return record;
}

std::vector<ViableFunction> scenario_functions(const Scenario& scenario) {
    // Circuit scenarios have no viable-function set: the subject is the
    // imported benchmark file (FlowParams::circuit).
    if (!scenario.params.circuit.path.empty()) return {};
    if (scenario.family == "present") {
        if (scenario.n < 1 || scenario.n > 16) {
            throw std::invalid_argument(
                "scenario \"" + scenario.name +
                "\": present merge width must be 1..16");
        }
        return from_sboxes(sbox::present_viable_set(scenario.n));
    }
    if (scenario.family == "des") {
        if (scenario.n < 1 || scenario.n > 8) {
            throw std::invalid_argument("scenario \"" + scenario.name +
                                        "\": des merge width must be 1..8");
        }
        return from_sboxes(sbox::des_viable_set(scenario.n));
    }
    throw std::invalid_argument("scenario \"" + scenario.name +
                                "\": unknown function family \"" +
                                scenario.family + "\" (present, des)");
}

report::Json ScenarioRecord::to_json() const {
    report::Json j = report::Json::object();
    j.set("index", index);
    j.set("name", name);
    j.set("family", family);
    j.set("n", n);
    j.set("seed", seed);
    j.set("ok", ok);
    j.set("status", status.empty() ? std::string(ok ? "ok" : "error")
                                   : status);
    if (!ok) j.set("error", error);
    if (!spec_hash.empty()) j.set("spec_hash", spec_hash);
    if (cache_hits > 0) j.set("cache_hits", cache_hits);
    j.set("seconds", seconds);
    j.set("random_avg", random_avg);
    j.set("random_best", random_best);
    j.set("ga_area", ga_area);
    j.set("ga_tm_area", ga_tm_area);
    j.set("improvement_percent", improvement_percent);
    j.set("verified", verified);
    j.set("camo_cells", camo_cells);
    j.set("config_space_bits", config_space_bits);
    report::Json attacks_json = report::Json::array();
    for (const attack::AdversaryReport& a : attacks) {
        attacks_json.push_back(a.to_json());
    }
    j.set("attacks", std::move(attacks_json));
    return j;
}

report::Json batch_report(const std::vector<ScenarioRecord>& records,
                          double total_seconds) {
    report::Json j = report::Json::object();
    int failures = 0;
    report::Json arr = report::Json::array();
    for (const ScenarioRecord& r : records) {
        if (!r.ok) ++failures;
        arr.push_back(r.to_json());
    }
    j.set("scenario_count", static_cast<int>(records.size()));
    j.set("failures", failures);
    j.set("total_seconds", total_seconds);
    j.set("scenarios", std::move(arr));
    return j;
}

}  // namespace mvf::flow
