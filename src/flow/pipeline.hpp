#pragma once
// Composable experiment pipeline over the paper's multi-phase flow.
//
// ObfuscationFlow::run used to hard-code merge -> GA -> camouflage ->
// validate as one monolith; this header breaks it into typed, individually
// invokable stages threaded through a FlowContext (shared synthesis caches,
// seeding, deadline/cancellation, progress reporting).  A Pipeline is just
// an ordered stage list: the default one (`Pipeline::standard`) reproduces
// ObfuscationFlow::run bit-for-bit (tests/test_pipeline.cpp holds the
// fixed-seed differential proof), while bespoke experiments compose their
// own -- rerun only the attack stage, skip validation, insert a custom
// stage between covering and attack, and so on.
//
// Stage order of the standard pipeline:
//   PinSearchStage   Phase II: GA over pin assignments + the equal-budget
//                    random baseline
//   SynthesizeStage  Phase I for the GA winner at final effort
//   CamoCoverStage   Phase III: Algorithm-1 camouflage covering
//   ValidateStage    ModelSim-substitute configuration replay
//   AttackStage      red team: any subset of registered attack::Adversary

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "flow/obfuscation_flow.hpp"

namespace mvf::flow {

/// Cooperative cancellation handle.  Copies share one flag, so a driver
/// can hand the token to a pipeline and cancel from another thread.
class CancelToken {
public:
    CancelToken();
    void cancel();
    bool cancelled() const;

private:
    std::shared_ptr<std::atomic<bool>> flag_;
};

/// Emitted after each completed stage, and once with completed=false naming
/// the first stage NOT run when cancellation or the deadline cuts the
/// pipeline short (so a progress consumer always sees how a run ended).
struct StageEvent {
    std::string_view stage;
    int index = 0;  ///< 0-based position in the pipeline
    int total = 0;  ///< stages in the pipeline
    double seconds = 0.0;
    bool completed = true;  ///< false on the final cut-short event
    /// The stage was skipped via a stage-store hit (its snapshot was
    /// restored instead of running it); seconds is 0.
    bool cached = false;
};

using ProgressFn = std::function<void(const StageEvent&)>;

/// Stage-result cache interface.  Pipeline::run consults it before running
/// (deepest hit wins -- stages up to the hit restore from the snapshot) and
/// stores a fresh snapshot after each completed stage.  Implementations
/// must be safe for concurrent calls from multiple scenario runs (the
/// serve scheduler shares one store across jobs); see serve::StageCache.
class StageStore {
public:
    virtual ~StageStore() = default;
    /// Fills *out and returns true when `key` is present.
    virtual bool load(const std::string& key, report::Json* out) = 0;
    virtual void store(const std::string& key,
                       const report::Json& snapshot) = 0;
};

/// Everything a stage may read or extend.  One context corresponds to one
/// scenario run; the referenced ObfuscationFlow owns the memoized synthesis
/// caches and may be shared across sequential runs.
struct FlowContext {
    FlowContext(ObfuscationFlow& engine,
                const std::vector<ViableFunction>& functions,
                FlowParams params);

    ObfuscationFlow* flow;
    const std::vector<ViableFunction>* functions;
    FlowParams params;

    CancelToken cancel;
    /// Soft deadline checked between stages (a running stage finishes).
    std::optional<std::chrono::steady_clock::time_point> deadline;
    /// Optional; called after every completed stage, plus a final
    /// completed=false event when the run is cut short (see StageEvent).
    ProgressFn progress;

    /// Optional stage-result cache.  Active only when BOTH are set:
    /// stage_key maps a stage name to its cache key (flow::stage_cache_key
    /// bound to the scenario; "" = never cache that stage), stage_store
    /// holds the snapshots.  Not owned.
    StageStore* stage_store = nullptr;
    std::function<std::string(std::string_view)> stage_key;

    /// Set by SynthesizeStage: the merged specification of the selected
    /// pin assignment (needed by validation and viable-set adversaries).
    std::optional<MergedSpec> best_spec;

    FlowResult result;

    /// Convenience: deadline = now + seconds.
    void set_timeout(double seconds);
    bool should_stop() const;
};

class Stage {
public:
    virtual ~Stage() = default;
    virtual std::string_view name() const = 0;
    virtual void run(FlowContext& ctx) = 0;
};

/// Circuit scenarios (params.circuit.path): loads the benchmark file and
/// technology-maps it onto the flow's gate library (io/import.hpp).  Fills
/// result.synthesized; replaces PinSearch/Synthesize.
class ImportStage final : public Stage {
public:
    std::string_view name() const override { return "import"; }
    void run(FlowContext& ctx) override;
};

/// Circuit scenarios: camouflages a seeded fraction of the imported
/// netlist's cells (camo::inject), filling result.camouflaged and
/// result.fixed_nominal; replaces CamoCoverStage.
class InjectStage final : public Stage {
public:
    std::string_view name() const override { return "camo-inject"; }
    void run(FlowContext& ctx) override;
};

/// Phase II: genetic pin-assignment search, plus the equal-budget random
/// baseline when params.run_random_baseline.
class PinSearchStage final : public Stage {
public:
    std::string_view name() const override { return "pin-search"; }
    void run(FlowContext& ctx) override;
};

/// Phase I for the selected assignment at final effort.  Falls back to the
/// identity assignment when no pin search ran (standalone invocation).
class SynthesizeStage final : public Stage {
public:
    std::string_view name() const override { return "synthesize"; }
    void run(FlowContext& ctx) override;
};

/// Phase III: camouflage covering of the synthesized netlist.
class CamoCoverStage final : public Stage {
public:
    std::string_view name() const override { return "camo-cover"; }
    void run(FlowContext& ctx) override;
};

/// Replays every select code's dopant configuration in simulation.
class ValidateStage final : public Stage {
public:
    std::string_view name() const override { return "validate"; }
    void run(FlowContext& ctx) override;
};

/// Runs the named adversaries from attack::AdversaryRegistry against the
/// camouflaged netlist (hidden configuration = select code 0).  Requires
/// CamoCoverStage output: configuring an attack without camouflage mapping
/// is a contradiction and fails fast with std::invalid_argument (it used
/// to be silently skipped).
class AttackStage final : public Stage {
public:
    explicit AttackStage(std::vector<std::string> adversaries = {"cegar"})
        : adversaries_(std::move(adversaries)) {}

    std::string_view name() const override { return "attack"; }
    void run(FlowContext& ctx) override;

    const std::vector<std::string>& adversaries() const { return adversaries_; }

private:
    std::vector<std::string> adversaries_;
};

/// Outcome of Pipeline::run.
struct PipelineStatus {
    bool completed = true;  ///< false when cancellation/deadline stopped it
    int stages_run = 0;
    /// Stages skipped by restoring a stage-store snapshot (they precede
    /// every stage counted in stages_run).
    int stages_cached = 0;
    /// Name of the first stage NOT run (empty when completed).
    std::string stopped_before;
};

class Pipeline {
public:
    Pipeline() = default;

    /// Appends a stage; returns *this for chaining.
    Pipeline& add(std::unique_ptr<Stage> stage);

    /// Convenience: emplace a stage of type S.
    template <typename S, typename... Args>
    Pipeline& add_stage(Args&&... args) {
        return add(std::make_unique<S>(std::forward<Args>(args)...));
    }

    int num_stages() const { return static_cast<int>(stages_.size()); }
    const Stage& stage(int i) const { return *stages_[static_cast<std::size_t>(i)]; }

    /// Runs the stages in order, honoring ctx.cancel/ctx.deadline between
    /// stages and reporting ctx.progress after each.
    PipelineStatus run(FlowContext& ctx) const;

    /// The staged equivalent of ObfuscationFlow::run for `params`:
    /// pin-search + synthesize always; camo-cover when run_camo_mapping;
    /// validate when additionally params.verify; attack when
    /// params.adversaries is non-empty.
    ///
    /// When params.circuit.path is set the subject comes from a file
    /// instead: import + (camo-inject when run_camo_mapping) + attack.
    static Pipeline standard(const FlowParams& params);

private:
    std::vector<std::unique_ptr<Stage>> stages_;
};

}  // namespace mvf::flow
