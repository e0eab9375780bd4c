#include "flow/pipeline.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "audit/attack_proof.hpp"
#include "camo/inject.hpp"
#include "flow/scenario_keys.hpp"
#include "flow/stage_io.hpp"
#include "io/import.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace mvf::flow {

CancelToken::CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

void CancelToken::cancel() { flag_->store(true, std::memory_order_relaxed); }

bool CancelToken::cancelled() const {
    return flag_->load(std::memory_order_relaxed);
}

FlowContext::FlowContext(ObfuscationFlow& engine,
                         const std::vector<ViableFunction>& fns,
                         FlowParams p)
    : flow(&engine), functions(&fns), params(std::move(p)) {
    // Circuit scenarios carry no viable functions -- the subject is a file.
    if (fns.empty() && params.circuit.path.empty()) {
        throw std::invalid_argument("FlowContext: empty viable-function set");
    }
}

void ImportStage::run(FlowContext& ctx) {
    const io::ImportedCircuit circuit =
        io::load_circuit(ctx.params.circuit.path);
    tech::Netlist mapped = io::import_netlist(
        circuit, tech::MatchCache::standard(), ctx.params.map);
    ctx.result.ga_area = mapped.area();
    ctx.result.synthesized = std::move(mapped);
}

void InjectStage::run(FlowContext& ctx) {
    if (!ctx.result.synthesized) {
        throw std::logic_error(
            "InjectStage: no imported netlist in the context (run "
            "ImportStage first)");
    }
    const CircuitParams& cp = ctx.params.circuit;
    camo::InjectParams inject_params;
    inject_params.density = cp.camo_density;
    inject_params.cells = cp.camo_cells;
    inject_params.seed = cp.camo_seed != 0 ? cp.camo_seed : ctx.params.seed;
    if (!camo::inject_policy_from_name(cp.camo_policy,
                                       &inject_params.policy)) {
        throw std::invalid_argument(
            "InjectStage: unknown camouflage policy \"" + cp.camo_policy +
            "\" (expected random, fanout or depth)");
    }
    camo::InjectResult injected = camo::inject(
        *ctx.result.synthesized, ctx.flow->camo_library(), inject_params);
    ctx.result.ga_tm_area = injected.stats.area;
    ctx.result.camo_stats = injected.stats;
    ctx.result.camouflaged = std::move(injected.netlist);
    ctx.result.fixed_nominal = std::move(injected.fixed_nominal);
}

void FlowContext::set_timeout(double seconds) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(seconds));
}

bool FlowContext::should_stop() const {
    if (cancel.cancelled()) return true;
    return deadline && std::chrono::steady_clock::now() >= *deadline;
}

void PinSearchStage::run(FlowContext& ctx) {
    const std::vector<ViableFunction>& functions = *ctx.functions;
    const int n = static_cast<int>(functions.size());
    const int m = functions.front().num_inputs;
    const int r = functions.front().num_outputs;

    const ga::FitnessFn fitness = [&](const ga::PinAssignment& pa) {
        return ctx.flow->evaluate_area(functions, pa, ctx.params.fitness_effort,
                                       ctx.params.fitness_build);
    };

    ga::GaParams ga_params = ctx.params.ga;
    ga_params.seed = ctx.params.seed;
    ctx.result.ga = ga::run_ga(n, m, r, fitness, ga_params);

    if (ctx.params.run_random_baseline) {
        const int count = ctx.params.random_count > 0
                              ? ctx.params.random_count
                              : ctx.result.ga.history.evaluations;
        const ga::RandomSearchResult rs = random_search(
            n, m, r, fitness, count, ctx.params.seed ^ 0xabcdef12345ull);
        ctx.result.random_avg = rs.avg_area;
        ctx.result.random_best = rs.best_area;
        ctx.result.random_areas = rs.all_areas;
    }
}

void SynthesizeStage::run(FlowContext& ctx) {
    const std::vector<ViableFunction>& functions = *ctx.functions;
    // Standalone invocation (no pin search): the identity assignment.
    // (A default-constructed PinAssignment is empty, which valid() accepts
    // vacuously -- hence the function-count check.)
    const int n = static_cast<int>(functions.size());
    if (ctx.result.ga.best.num_functions() != n || !ctx.result.ga.best.valid()) {
        ctx.result.ga.best = ga::PinAssignment::identity(
            n, functions.front().num_inputs, functions.front().num_outputs);
    }

    ctx.best_spec.emplace(functions, ctx.result.ga.best);
    tech::Netlist mapped =
        ctx.params.final_best_of_builds
            ? ctx.flow->synthesize_best(*ctx.best_spec, ctx.params.final_effort,
                                        ctx.params.map)
            : ctx.flow->synthesize(*ctx.best_spec, ctx.params.final_effort,
                                   ctx.params.map, ctx.params.fitness_build);
    ctx.result.ga_area = mapped.area();
    // The paper reports the GA column from synthesis; keep the smaller of
    // fitness-effort and final-effort areas as "GA" (when a search ran).
    if (ctx.result.ga.best_area > 0.0) {
        ctx.result.ga_area = std::min(ctx.result.ga_area, ctx.result.ga.best_area);
    }
    ctx.result.synthesized = std::move(mapped);
}

void CamoCoverStage::run(FlowContext& ctx) {
    if (!ctx.result.synthesized) {
        throw std::logic_error(
            "CamoCoverStage: no synthesized netlist in the context (run "
            "SynthesizeStage first)");
    }
    const int n = static_cast<int>(ctx.functions->size());
    camo::CamoMapResult cm = camo::camo_map(
        *ctx.result.synthesized, ctx.flow->camo_library(), n, ctx.params.camo);
    ctx.result.ga_tm_area = cm.stats.area;
    ctx.result.camo_stats = cm.stats;
    ctx.result.camouflaged = std::move(cm.netlist);
}

void ValidateStage::run(FlowContext& ctx) {
    if (!ctx.result.camouflaged || !ctx.best_spec) {
        throw std::logic_error(
            "ValidateStage: needs a camouflaged netlist and its merged "
            "specification (run SynthesizeStage and CamoCoverStage first)");
    }
    ctx.result.verified = ObfuscationFlow::verify_configurations(
        *ctx.best_spec, *ctx.result.camouflaged);
}

namespace {

attack::OracleTranscript load_transcript(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::invalid_argument("cannot open replay transcript: " + path);
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
        // Strict: a transcript with duplicate keys would replay different
        // content than another parser sees -- reject instead of last-wins.
        return attack::OracleTranscript::from_json(
            report::Json::parse_strict(text.str()));
    } catch (const report::JsonError& e) {
        throw std::invalid_argument("malformed replay transcript " + path +
                                    ": " + e.what());
    }
}

}  // namespace

void AttackStage::run(FlowContext& ctx) {
    if (!ctx.result.camouflaged) {
        throw std::invalid_argument(
            "AttackStage: no camouflaged netlist to attack -- the flow was "
            "configured with run_camo_mapping=false (or CamoCoverStage was "
            "not run).  Enable camouflage mapping or drop the attack stage; "
            "this combination used to be silently ignored.");
    }
    const camo::CamoNetlist& netlist = *ctx.result.camouflaged;

    // Scenario validation rejects these at parse time; API users get the
    // same rule here.
    const std::string proof_conflict = emit_proof_conflict(
        ctx.params, adversaries_,
        [](std::string_view key) { return std::string(key); });
    if (!proof_conflict.empty()) {
        throw std::invalid_argument("AttackStage: " + proof_conflict);
    }

    attack::AdversaryOptions options;
    options.oracle = ctx.params.oracle;
    options.random_queries = ctx.params.random_queries;
    options.random_seed = ctx.params.seed;
    // Circuit scenarios: the attacker knows which cells were NOT
    // camouflaged (they are ordinary gates under any imaging attack).
    if (!ctx.result.fixed_nominal.empty()) {
        options.oracle.fixed_nominal = &ctx.result.fixed_nominal;
    }

    std::optional<attack::OracleTranscript> replay;
    if (!ctx.params.replay_transcript.empty()) {
        replay = load_transcript(ctx.params.replay_transcript);
    }

    // The proof artifact embeds (and its commitment chain binds) the
    // netlist snapshot, so serialize it once up front.
    std::optional<report::Json> netlist_snapshot;
    if (!ctx.params.emit_proof.empty()) {
        netlist_snapshot = camo_netlist_to_json(netlist);
    }

    attack::SimOracle chip(netlist, netlist.configuration_for_code(0));
    for (const std::string& name : adversaries_) {
        // Per-adversary span: progress is visible DURING the attack stage,
        // not just in the after-the-fact stage event.
        report::Json adv_args;
        if (obs::tracing()) {
            adv_args = report::Json::object();
            adv_args.set("adversary", name);
        }
        obs::Span adv_span("adversary", "flow", std::move(adv_args));
        std::unique_ptr<attack::Adversary> adversary =
            attack::AdversaryRegistry::instance().create(name, options);
        // The per-code truth-table extraction is only paid when a
        // viable-set adversary is actually in the panel (and only once).
        if (adversary->knowledge() == attack::Knowledge::kViableSet &&
            options.viable_targets.empty()) {
            if (!ctx.best_spec) {
                throw std::invalid_argument(
                    "AttackStage: adversary \"" + name +
                    "\" needs the viable-function set, which circuit "
                    "scenarios do not have -- pick oracle-granted "
                    "adversaries (e.g. cegar, random-sampling)");
            }
            for (int code = 0; code < ctx.best_spec->num_functions(); ++code) {
                options.viable_targets.push_back(
                    ctx.best_spec->expected_outputs_for_code(code));
            }
            adversary = attack::AdversaryRegistry::instance().create(name, options);
        }
        const bool grant_oracle =
            adversary->knowledge() == attack::Knowledge::kWorkingChip;
        if (!grant_oracle) {
            ctx.result.attack_reports.push_back(
                adversary->attack(netlist, nullptr));
            continue;
        }
        // A fresh decorator stack per adversary keeps accounting, budget
        // and transcript per-attack instead of smeared across the panel.
        const bool prove_this = !ctx.params.emit_proof.empty() && name == "cegar";
        attack::OracleModelParams model = ctx.params.oracle_model;
        model.record =
            model.record || !ctx.params.save_transcript.empty() || prove_this;
        if (prove_this) {
            model.commit = true;
            model.commit_seed = ctx.params.seed;
            model.commit_context =
                audit::AttackProof::netlist_context(*netlist_snapshot);
        }
        if (replay) model.replay = &*replay;
        attack::OracleStack stack(model.replay ? nullptr : &chip, model);

        attack::AdversaryReport report = adversary->attack(netlist, &stack.top());
        report.oracle = stack.stats();
        if (prove_this) {
            const audit::CommittingOracle* committer = stack.committer();
            report.audit_merkle_root = committer->merkle_root();
            report.audit_committed = committer->committed();
            // options.oracle, not ctx.params.oracle: the proof's replay
            // parameters must include the fixed_nominal wiring above, or
            // chip-free verification would free every cell and diverge.
            ctx.result.attack_proof =
                audit::AttackProof::prove(*netlist_snapshot, report,
                                          *stack.recorded(), *committer,
                                          options.oracle)
                    .to_json();
        }
        ctx.result.attack_reports.push_back(std::move(report));

        if (!ctx.params.save_transcript.empty() && stack.recorded()) {
            const report::JsonWriter writer(ctx.params.save_transcript);
            if (!writer.write(stack.recorded()->to_json())) {
                throw std::runtime_error("cannot write oracle transcript: " +
                                         ctx.params.save_transcript);
            }
        }
    }
}

Pipeline& Pipeline::add(std::unique_ptr<Stage> stage) {
    stages_.push_back(std::move(stage));
    return *this;
}

PipelineStatus Pipeline::run(FlowContext& ctx) const {
    PipelineStatus status;
    const int total = num_stages();
    int start = 0;
    if (ctx.stage_store && ctx.stage_key) {
        // Deepest hit wins: a snapshot taken after stage k contains the
        // output of every stage up to k, so one restore covers them all.
        for (int i = total - 1; i >= 0; --i) {
            const std::string key =
                ctx.stage_key(stages_[static_cast<std::size_t>(i)]->name());
            if (key.empty()) continue;
            report::Json snapshot;
            if (!ctx.stage_store->load(key, &snapshot)) continue;
            try {
                restore_context(snapshot, &ctx);
            } catch (const report::JsonError&) {
                // A corrupt snapshot (e.g. a truncated disk spill) misses
                // instead of sinking the run; shallower entries may still
                // hit.
                continue;
            }
            start = i + 1;
            status.stages_cached = start;
            for (int k = 0; k < start; ++k) {
                if (ctx.progress) {
                    ctx.progress(
                        StageEvent{stages_[static_cast<std::size_t>(k)]->name(),
                                   k, total, 0.0, true, true});
                }
            }
            if (obs::TraceSink* sink = obs::tracing()) {
                report::Json args = report::Json::object();
                args.set("stage",
                         std::string(
                             stages_[static_cast<std::size_t>(i)]->name()));
                args.set("key", key);
                args.set("stages_restored", start);
                sink->instant("stage-cache-hit", "flow", std::move(args));
            }
            break;
        }
    }
    for (int i = start; i < total; ++i) {
        Stage& stage = *stages_[static_cast<std::size_t>(i)];
        if (ctx.should_stop()) {
            status.completed = false;
            status.stopped_before = std::string(stage.name());
            // A cut-short run used to go silent here, breaking the "called
            // after every stage" progress contract; report the abort with
            // the stage that was cut, to the progress callback and trace.
            if (ctx.progress) {
                ctx.progress(StageEvent{stage.name(), i, total, 0.0, false});
            }
            if (obs::TraceSink* sink = obs::tracing()) {
                report::Json args = report::Json::object();
                args.set("stopped_before", std::string(stage.name()));
                args.set("stages_run", status.stages_run);
                sink->instant("pipeline-aborted", "flow", std::move(args));
            }
            return status;
        }
        util::Stopwatch sw;
        {
            obs::Span span(stage.name(), "flow");
            stage.run(ctx);
        }
        ++status.stages_run;
        if (ctx.stage_store && ctx.stage_key) {
            const std::string key = ctx.stage_key(stage.name());
            if (!key.empty()) {
                ctx.stage_store->store(key, snapshot_context(ctx));
            }
        }
        if (ctx.progress) {
            ctx.progress(StageEvent{stage.name(), i, total, sw.elapsed_seconds()});
        }
    }
    return status;
}

Pipeline Pipeline::standard(const FlowParams& params) {
    Pipeline p;
    if (!params.circuit.path.empty()) {
        p.add_stage<ImportStage>();
        if (params.run_camo_mapping) p.add_stage<InjectStage>();
    } else {
        p.add_stage<PinSearchStage>();
        p.add_stage<SynthesizeStage>();
        if (params.run_camo_mapping) {
            p.add_stage<CamoCoverStage>();
            if (params.verify) p.add_stage<ValidateStage>();
        }
    }
    if (!params.adversaries.empty()) {
        p.add_stage<AttackStage>(params.adversaries);
    }
    return p;
}

}  // namespace mvf::flow
