// sbox-flow: the paper's pipeline, one scenario at a time: pin-search (the
// GA plus the equal-budget random baseline), synthesize, camo-cover,
// validate, and the plausibility adversary.  Repeated synthesis inside the
// GA does most of the work; plausibility is the one-shot half of the SAT
// use (a few large solves over the input-enumeration encoding).
//
// Scenarios are PRESENT-style merges of 2-8 functions and DES merges of 2-4
// with a reduced GA budget; the workload seed draws each scenario's flow
// seed from a screened list, and the scenario order.  Plausibility runs on
// the 2- and 3-function PRESENT merges only: on 8 it takes 16-19 s and on a
// DES pair 30 s.  Each op builds a fresh ObfuscationFlow, as run_scenario
// does, so it pays the engine warm-up.
//
// In a traced pass the benchmark runs its own pin-search and synthesize
// stages, which call MergedSpec::build_aig, synth::optimize and
// tech::tech_map separately so the three can be timed; the determinism
// check proves they reproduce the library's stages (areas, evaluations and
// cell counts repeat exactly across plain and traced passes).

#include <algorithm>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "flow/pipeline.hpp"
#include "harness.hpp"
#include "sbox/sbox_data.hpp"
#include "sim/netlist_sim.hpp"

namespace perfbench {
namespace {

using mvf::flow::FlowContext;
using mvf::flow::MergedSpec;

struct ScenarioShape {
    const char* family;
    int n;
    bool plausibility;
    /// Flow seeds the workload seed draws from: among seeds 1-16, the ones
    /// whose scenario costs lie within 3% of each other (the op cost moves
    /// up to 2x with the GA seed).  The times are the median of three rounds
    /// that interleaved all 80 candidates, on a 4-core x86-64 host in a slow
    /// state.  The shapes' costs lie apart, so that the median op is the
    /// PRESENT 8 merge and op_tail_s the DES pair.
    std::vector<std::uint64_t> flow_seeds;
};

const std::vector<ScenarioShape> kScenarios = {
    {"present", 2, true, {3, 4, 8, 9, 14, 16}},         // 0.34-0.35 s
    {"present", 3, true, {5, 6, 13}},                   // 0.52-0.53 s
    {"present", 8, false, {1, 2, 3, 4, 7, 9, 10, 13}},  // 0.67-0.68 s
    {"des", 2, false, {1, 2, 5, 10}},                   // 0.78-0.80 s
    {"des", 4, false, {3, 11, 12, 15}},                 // 1.24-1.26 s
};

struct Scenario {
    std::string name;
    std::vector<mvf::sbox::Sbox> sboxes;
    std::vector<mvf::flow::ViableFunction> functions;
    mvf::flow::FlowParams params;
    bool plausibility = false;
};

/// Synthesis split into its three timed calls (traced passes only).
struct Synthesis {
    mvf::tech::MatchCache match_cache{mvf::tech::GateLibrary::standard()};
    double build_s = 0.0;
    double optimize_s = 0.0;
    double map_s = 0.0;
    double ands = 0.0;
    double cells = 0.0;

    /// ObfuscationFlow::synthesize, one call at a time.
    mvf::tech::Netlist run(mvf::flow::ObfuscationFlow& engine, const MergedSpec& spec,
                           mvf::synth::Effort effort,
                           const mvf::tech::TechMapParams& map_params,
                           mvf::flow::BuildStyle style) {
        auto t0 = Clock::now();
        mvf::net::Aig aig = spec.build_aig(style);
        build_s += since(t0);
        t0 = Clock::now();
        mvf::synth::optimize(&aig, engine.synth_context(), effort);
        optimize_s += since(t0);
        ands += aig.num_ands();
        t0 = Clock::now();
        mvf::tech::Netlist mapped = mvf::tech::tech_map(
            aig, match_cache, map_params, spec.pi_names(), spec.pi_select_flags());
        map_s += since(t0);
        cells += mapped.num_cells();
        return mapped;
    }
};

/// PinSearchStage with the fitness evaluated through Synthesis.
void traced_pin_search(FlowContext& ctx, Synthesis* synth, double* fitness_s) {
    const auto& functions = *ctx.functions;
    const int n = static_cast<int>(functions.size());
    const int m = functions.front().num_inputs;
    const int r = functions.front().num_outputs;
    const mvf::ga::FitnessFn fitness = [&](const mvf::ga::PinAssignment& pa) {
        const auto t0 = Clock::now();
        const MergedSpec spec(functions, pa);
        synth->build_s += since(t0);
        const double area = synth->run(*ctx.flow, spec, ctx.params.fitness_effort,
                                       {}, ctx.params.fitness_build)
                                .area();
        *fitness_s += since(t0);
        return area;
    };
    mvf::ga::GaParams ga_params = ctx.params.ga;
    ga_params.seed = ctx.params.seed;
    ctx.result.ga = mvf::ga::run_ga(n, m, r, fitness, ga_params);
    if (ctx.params.run_random_baseline) {
        const int count = ctx.params.random_count > 0
                              ? ctx.params.random_count
                              : ctx.result.ga.history.evaluations;
        const mvf::ga::RandomSearchResult rs = mvf::ga::random_search(
            n, m, r, fitness, count, ctx.params.seed ^ 0xabcdef12345ull);
        ctx.result.random_avg = rs.avg_area;
        ctx.result.random_best = rs.best_area;
        ctx.result.random_areas = rs.all_areas;
    }
}

/// SynthesizeStage (after a pin search) with synthesis through Synthesis.
void traced_synthesize(FlowContext& ctx, Synthesis* synth) {
    ctx.best_spec.emplace(*ctx.functions, ctx.result.ga.best);
    const mvf::flow::FlowParams& p = ctx.params;
    mvf::tech::Netlist mapped =
        synth->run(*ctx.flow, *ctx.best_spec, p.final_effort, p.map,
                   p.final_best_of_builds ? mvf::flow::BuildStyle::kFactored
                                          : p.fitness_build);
    if (p.final_best_of_builds) {
        mvf::tech::Netlist shared =
            synth->run(*ctx.flow, *ctx.best_spec, p.final_effort, p.map,
                       mvf::flow::BuildStyle::kSharedExtract);
        if (shared.area() < mapped.area()) mapped = std::move(shared);
    }
    ctx.result.ga_area = mapped.area();
    if (ctx.result.ga.best_area > 0.0) {
        ctx.result.ga_area = std::min(ctx.result.ga_area, ctx.result.ga.best_area);
    }
    ctx.result.synthesized = std::move(mapped);
}

/// Every select code's configuration against its S-box table, read straight
/// from sbox_data through the chosen pin assignment.  Returns "" when all
/// codes reproduce their S-box.
std::string check_sboxes(const Scenario& sc, const mvf::flow::FlowResult& res) {
    if (!res.camouflaged) return "no camouflaged netlist";
    const mvf::camo::CamoNetlist& nl = *res.camouflaged;
    const mvf::ga::PinAssignment& pa = res.ga.best;
    const int m = sc.functions.front().num_inputs;
    const int r = sc.functions.front().num_outputs;
    if (nl.num_pis() != m || nl.num_pos() != r) return "netlist width mismatch";
    for (int k = 0; k < static_cast<int>(sc.sboxes.size()); ++k) {
        const auto& in_perm = pa.input_perms[static_cast<std::size_t>(k)];
        const auto& out_perm = pa.output_perms[static_cast<std::size_t>(k)];
        const std::vector<mvf::logic::TruthTable> got =
            mvf::sim::simulate_camo_full(nl, nl.configuration_for_code(k));
        for (std::uint32_t x = 0; x < (1u << m); ++x) {
            std::uint32_t u = 0;
            for (int j = 0; j < m; ++j) {
                u |= ((x >> in_perm[static_cast<std::size_t>(j)]) & 1u) << j;
            }
            const std::uint8_t v = sc.sboxes[static_cast<std::size_t>(k)].lookup(u);
            for (int j = 0; j < r; ++j) {
                const int q = out_perm[static_cast<std::size_t>(j)];
                if (got[static_cast<std::size_t>(q)].bit(x) != (((v >> j) & 1u) != 0)) {
                    return "select code " + std::to_string(k) + " differs from " +
                           sc.sboxes[static_cast<std::size_t>(k)].name +
                           " at input " + std::to_string(x);
                }
            }
        }
    }
    return "";
}

class SboxFlow final : public Workload {
public:
    explicit SboxFlow(const Options& options) {
        Draw draw(options.seed);
        for (const ScenarioShape& shape : kScenarios) {
            Scenario sc;
            sc.sboxes = std::string(shape.family) == "present"
                            ? mvf::sbox::present_viable_set(shape.n)
                            : mvf::sbox::des_viable_set(shape.n);
            sc.functions = mvf::flow::from_sboxes(sc.sboxes);
            sc.params.ga.population = 6;
            sc.params.ga.generations = 2;
            sc.params.seed = shape.flow_seeds[draw.below(shape.flow_seeds.size())];
            sc.plausibility = shape.plausibility;
            sc.name = std::string(shape.family) + ":" + std::to_string(shape.n) +
                      "/s" + std::to_string(sc.params.seed);
            scenarios_.push_back(std::move(sc));
        }
        for (std::size_t i = scenarios_.size() - 1; i > 0; --i) {
            std::swap(scenarios_[i], scenarios_[draw.below(i + 1)]);
        }
        // Warm-up outside the timed window: the process-wide lazy state of
        // synthesis, mapping and camouflage (the per-engine warm-up stays in
        // every op, as run_scenario users pay it).
        Scenario warm;
        warm.sboxes = mvf::sbox::present_viable_set(2);
        warm.functions = mvf::flow::from_sboxes(warm.sboxes);
        warm.params.ga.population = 2;
        warm.params.ga.generations = 1;
        warm.plausibility = true;
        run_op(warm, false, nullptr);
    }

    Pass run_pass(bool traced) override {
        Pass pass;
        Figures f;
        const auto t0 = Clock::now();
        std::vector<mvf::flow::FlowResult> results(scenarios_.size());
        std::vector<std::string> errors(scenarios_.size());
        for (std::size_t i = 0; i < scenarios_.size(); ++i) {
            const auto op0 = Clock::now();
            try {
                results[i] = run_op(scenarios_[i], traced, &f);
            } catch (const std::exception& e) {
                errors[i] = std::string("scenario threw: ") + e.what();
            }
            pass.op_s.push_back(since(op0));
        }
        pass.wall_s = since(t0);
        pass.attempted = static_cast<int>(scenarios_.size());

        double area = 0.0;
        double evaluations = 0.0;
        double camo_cells = 0.0;
        double config_bits = 0.0;
        mvf::sat::Solver::Stats sat;
        std::vector<double> solve_ms;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const Scenario& sc = scenarios_[i];
            if (!errors[i].empty()) {
                pass.failures.push_back(sc.name + ": " + errors[i]);
                continue;
            }
            const mvf::flow::FlowResult& res = results[i];
            area += res.ga_tm_area;
            evaluations += res.ga.history.evaluations +
                           static_cast<double>(res.random_areas.size());
            camo_cells += res.camo_stats.num_cells;
            config_bits += res.camo_stats.config_space_bits;
            std::string error = res.verified ? check_sboxes(sc, res)
                                             : "flow validation failed";
            for (const mvf::attack::AdversaryReport& rep : res.attack_reports) {
                if (rep.survivors != sc.sboxes.size() || rep.success) {
                    error = rep.outcome;
                }
                add_sat_stats(&sat, rep.sat);
                if (rep.sat.solves > 0) {
                    solve_ms.push_back(rep.sat.solve_seconds * 1e3 /
                                       static_cast<double>(rep.sat.solves));
                }
            }
            if (sc.plausibility && res.attack_reports.size() != 1) {
                error = "plausibility did not run";
            }
            if (!error.empty()) pass.failures.push_back(sc.name + ": " + error);
        }
        pass.counters["area_ge"] = area;
        pass.counters["ga.evaluations"] = evaluations;
        pass.counters["camo.cells"] = camo_cells;
        pass.counters["sat.conflicts"] = static_cast<double>(sat.conflicts);
        pass.counters["sat.propagations"] = static_cast<double>(sat.propagations);
        if (!traced) return pass;

        Figures& m = pass.layer;
        for (const char* key : {"flow.pin_search_s", "flow.synthesize_s",
                                "flow.camo_cover_s", "flow.validate_s",
                                "flow.attack_s", "ga.self_s", "synth.build_s",
                                "synth.optimize_s", "map.tech_map_s", "synth.ands",
                                "map.cells"}) {
            m[key] = f[key];
        }
        m["ga.evaluations"] = evaluations;
        m["ga.evals_per_s"] = evaluations / f["flow.pin_search_s"];
        m["camo.cells"] = camo_cells;
        m["camo.config_bits"] = config_bits;
        m["attack.other_s"] = f["flow.attack_s"] - sat.solve_seconds;
        put_sat_metrics(sat, &m);
        // One sample per adversary run: its mean solve latency.
        m["sat.solve_p50_ms"] = median(solve_ms);
        m["sat.solve_tail_ms"] = percentile(solve_ms, 100.0);

        pass.self_s["ga"] = f["ga.self_s"];
        pass.self_s["synth"] = f["self.synth"];
        pass.self_s["map"] = f["self.map"];
        pass.self_s["camo"] = f["flow.camo_cover_s"];
        pass.self_s["flow"] = f["self.flow"];
        pass.self_s["attack"] = f["flow.attack_s"] - sat.solve_seconds;
        pass.self_s["sat"] = sat.solve_seconds;
        return pass;
    }

    std::vector<Extra> extras(const Pass& pass) const override {
        return {{"area_ge", pass.counters.at("area_ge"), "GE"}};
    }

private:
    /// One scenario.  When f is set, adds the stage times (flow.*_s) and,
    /// for traced ops, the synthesis split and the layer self times
    /// (self.*) to it.
    mvf::flow::FlowResult run_op(const Scenario& sc, bool traced, Figures* f) {
        const auto op0 = Clock::now();
        mvf::flow::ObfuscationFlow engine;
        FlowContext ctx(engine, sc.functions, sc.params);
        const auto timed = [](const auto& body) {
            const auto t0 = Clock::now();
            body();
            return since(t0);
        };
        Synthesis synth;
        double fitness_s = 0.0;
        const double search_s = timed([&] {
            if (traced) {
                traced_pin_search(ctx, &synth, &fitness_s);
            } else {
                mvf::flow::PinSearchStage().run(ctx);
            }
        });
        const double search_map_s = synth.map_s;
        const double synth_s = timed([&] {
            if (traced) {
                traced_synthesize(ctx, &synth);
            } else {
                mvf::flow::SynthesizeStage().run(ctx);
            }
        });
        const double camo_s = timed([&] { mvf::flow::CamoCoverStage().run(ctx); });
        const double validate_s = timed([&] { mvf::flow::ValidateStage().run(ctx); });
        const double attack_s = timed([&] {
            if (sc.plausibility) mvf::flow::AttackStage({"plausibility"}).run(ctx);
        });
        const double op_s = since(op0);
        if (f) {
            Figures& x = *f;
            x["flow.pin_search_s"] += search_s;
            x["flow.synthesize_s"] += synth_s;
            x["flow.camo_cover_s"] += camo_s;
            x["flow.validate_s"] += validate_s;
            x["flow.attack_s"] += attack_s;
            if (traced) {
                x["ga.self_s"] += search_s - fitness_s;
                x["synth.build_s"] += synth.build_s;
                x["synth.optimize_s"] += synth.optimize_s;
                x["map.tech_map_s"] += synth.map_s;
                x["synth.ands"] += synth.ands;
                x["map.cells"] += synth.cells;
                // Everything in fitness calls and final synthesis but the
                // mapping is synthesis; engine warm-up, context set-up and
                // validation are the flow's own.
                x["self.synth"] += (fitness_s - search_map_s) +
                                   (synth_s - (synth.map_s - search_map_s));
                x["self.map"] += synth.map_s;
                x["self.flow"] += op_s - search_s - synth_s - camo_s - attack_s;
            }
        }
        return std::move(ctx.result);
    }

    std::vector<Scenario> scenarios_;
};

}  // namespace

std::unique_ptr<Workload> make_sbox_flow(const Options& options) {
    return std::make_unique<SboxFlow>(options);
}

}  // namespace perfbench
