#include "flow/obfuscation_flow.hpp"

#include <cassert>

#include "flow/pipeline.hpp"
#include "sim/netlist_sim.hpp"

namespace mvf::flow {

using logic::TruthTable;

ObfuscationFlow::ObfuscationFlow()
    : camo_lib_(camo::CamoLibrary::from_gate_library(gate_library())) {}

tech::Netlist ObfuscationFlow::synthesize(const MergedSpec& spec,
                                          synth::Effort effort,
                                          const tech::TechMapParams& map_params,
                                          BuildStyle style) {
    net::Aig aig = spec.build_aig(style);
    synth::optimize(&aig, synth_ctx_, effort);
    return tech::tech_map(aig, tech::MatchCache::standard(), map_params,
                          spec.pi_names(), spec.pi_select_flags());
}

tech::Netlist ObfuscationFlow::synthesize_best(
    const MergedSpec& spec, synth::Effort effort,
    const tech::TechMapParams& map_params) {
    tech::Netlist factored =
        synthesize(spec, effort, map_params, BuildStyle::kFactored);
    tech::Netlist shared =
        synthesize(spec, effort, map_params, BuildStyle::kSharedExtract);
    return shared.area() < factored.area() ? std::move(shared)
                                           : std::move(factored);
}

double ObfuscationFlow::evaluate_area(const std::vector<ViableFunction>& functions,
                                      const ga::PinAssignment& assignment,
                                      synth::Effort effort, BuildStyle style) {
    const MergedSpec spec(functions, assignment);
    return synthesize(spec, effort, {}, style).area();
}

FlowResult ObfuscationFlow::run(const std::vector<ViableFunction>& functions,
                                const FlowParams& params) {
    // Thin compatibility wrapper over the staged pipeline (flow/pipeline.hpp);
    // tests/test_pipeline.cpp proves the results are identical at fixed seed.
    FlowContext ctx(*this, functions, params);
    Pipeline::standard(params).run(ctx);
    return std::move(ctx.result);
}

bool ObfuscationFlow::verify_configurations(const MergedSpec& spec,
                                            const camo::CamoNetlist& netlist) {
    for (int code = 0; code < spec.num_functions(); ++code) {
        const std::vector<int> config = netlist.configuration_for_code(code);
        const std::vector<TruthTable> got =
            sim::simulate_camo_full(netlist, config);
        const std::vector<TruthTable> expected =
            spec.expected_outputs_for_code(code);
        if (got.size() != expected.size()) return false;
        for (std::size_t q = 0; q < got.size(); ++q) {
            if (got[q] != expected[q]) return false;
        }
    }
    return true;
}

}  // namespace mvf::flow
