#pragma once
// One scenario run, the unit every batch executes.
//
// A Scenario names a viable-function set (S-box family x merge width), the
// FlowParams to run it under, and a seed; run_scenario executes it with one
// isolated FlowContext + ObfuscationFlow (i.e. private synthesis caches),
// so results are bit-identical regardless of --jobs and scheduling order
// (flow/scheduler.hpp runs batches of them in parallel).  Each scenario
// yields a structured ScenarioRecord that serializes to JSON
// (report::JsonWriter), the machine-readable counterpart of the benches'
// CSV.
//
// Scenarios come from the API, from `mvf run` flags or from spec files
// (flow/scenario_keys.hpp, which also defines Scenario and the spec
// format; `mvf --help` lists every key).

#include <string>
#include <vector>

#include "flow/pipeline.hpp"
#include "flow/scenario_keys.hpp"
#include "report/json.hpp"

namespace mvf::flow {

/// Builds the scenario's viable-function set; throws std::invalid_argument
/// on an unknown family or out-of-range width.
std::vector<ViableFunction> scenario_functions(const Scenario& scenario);

/// Outcome of one scenario (always produced; `ok` distinguishes results
/// from failures so one bad scenario cannot sink a batch).
struct ScenarioRecord {
    int index = 0;  ///< position in the input batch
    std::string name;
    std::string family;
    int n = 0;
    std::uint64_t seed = 0;
    bool ok = false;
    /// "ok", "error" (exception; text in `error`), or "cancelled" (the
    /// run's cancel token fired or its deadline passed mid-pipeline).
    std::string status;
    std::string error;  ///< exception text when !ok
    /// Canonical spec hash (flow::spec_hash) -- provenance for archived
    /// reports; also stamped into each attack report.
    std::string spec_hash;
    /// Pipeline stages restored from the stage-result cache (0 = fresh run).
    int cache_hits = 0;
    double seconds = 0.0;

    // Flow summary (Table-I shaped).
    double random_avg = 0.0;
    double random_best = 0.0;
    double ga_area = 0.0;
    double ga_tm_area = 0.0;
    double improvement_percent = 0.0;
    bool verified = false;
    int camo_cells = 0;
    double config_space_bits = 0.0;

    std::vector<attack::AdversaryReport> attacks;

    report::Json to_json() const;
};

/// External wiring for one scenario run (all optional).  The job scheduler
/// passes its job's cancel token, deadline, progress stream and stage
/// cache.
struct ScenarioRunHooks {
    /// Cooperative cancellation (copies share the flag; see CancelToken).
    std::optional<CancelToken> cancel;
    /// Soft deadline checked between pipeline stages.
    std::optional<std::chrono::steady_clock::time_point> deadline;
    /// Per-stage progress (also receives cache-hit events).
    ProgressFn progress;
    /// Shared stage-result cache; keys come from flow::stage_cache_key for
    /// the scenario being run.  Not owned.
    StageStore* stage_store = nullptr;
};

/// Runs one scenario in isolation (private ObfuscationFlow => private
/// synthesis caches): the unit the job scheduler executes.  Never throws --
/// failures and cancellation are captured in the record's status/error
/// fields.
ScenarioRecord run_scenario(const Scenario& scenario, int index,
                            const ScenarioRunHooks& hooks = {});

/// Wraps records as the batch report document: {"scenarios": [...],
/// "total_seconds": ..., "failures": ...}.
report::Json batch_report(const std::vector<ScenarioRecord>& records,
                          double total_seconds);

}  // namespace mvf::flow
