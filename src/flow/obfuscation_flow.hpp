#pragma once
// The end-to-end obfuscation flow (the paper's primary contribution).
//
// Phase I   merge the viable functions into one circuit (MergedSpec),
//           synthesize (balance/rewrite/refactor) and tech-map to gates;
// Phase II  genetic algorithm over pin assignments with synthesized area as
//           fitness, plus the equal-budget random baseline of Fig. 4;
// Phase III Algorithm-1 camouflage covering that eliminates the selects
//           while keeping every viable function plausible;
// finally   a ModelSim-style validation replaying each per-code dopant
//           configuration in simulation.
//
// One ObfuscationFlow instance owns the memoized synthesis caches (NPN
// classes, rewrite structures) and should be reused across experiments;
// cell matching reads the process-wide tech::MatchCache::standard() table.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "attack/adversary.hpp"
#include "attack/oracle_attack.hpp"
#include "camo/camo_cell.hpp"
#include "camo/camo_map.hpp"
#include "flow/merged_spec.hpp"
#include "ga/ga.hpp"
#include "map/tech_map.hpp"
#include "synth/optimize.hpp"

namespace mvf::flow {

/// File-based scenario subject: instead of merging viable functions, the
/// pipeline imports a benchmark circuit (BLIF/AIGER/.bench, see
/// io/import.hpp) and camouflages a fraction of its cells (camo/inject.hpp).
/// Active when `path` is non-empty; mutually exclusive with a viable-
/// function family.
struct CircuitParams {
    std::string path;  ///< circuit file; empty = S-box flow
    /// Fraction of cells to camouflage, in (0, 1].  Ignored when
    /// camo_cells > 0.
    double camo_density = 0.1;
    /// Absolute camouflaged-cell budget (0 = use camo_density).
    int camo_cells = 0;
    /// Injection RNG seed; 0 = derive from the scenario seed.
    std::uint64_t camo_seed = 0;
    /// Cell-selection policy: "random", "fanout" or "depth".
    std::string camo_policy = "random";
};

struct FlowParams {
    /// When set, replaces pin-search/synthesize/camo-cover with
    /// import/camo-inject (see Pipeline::standard).
    CircuitParams circuit;
    ga::GaParams ga;
    /// Synthesis effort for GA fitness evaluations (fast) and for the final
    /// selected circuit (stronger).
    synth::Effort fitness_effort = synth::Effort::kFast;
    synth::Effort final_effort = synth::Effort::kDefault;
    tech::TechMapParams map;
    camo::CamoMapParams camo;
    /// Build style for GA/random fitness evaluations (kFactored is the
    /// paper's per-function RTL and is the cheapest).
    BuildStyle fitness_build = BuildStyle::kFactored;
    /// Try the shared-divisor-extraction build as well for the final
    /// circuit and keep whichever maps smaller.
    bool final_best_of_builds = true;
    /// Random pin assignments for the baseline; -1 = same count as the GA's
    /// fitness evaluations (the paper's equal-budget comparison).
    int random_count = -1;
    bool run_random_baseline = true;
    bool run_camo_mapping = true;
    /// Verify each viable function by replaying configurations (ModelSim
    /// substitute).  Cheap; leave on.
    bool verify = true;
    /// Knobs of the oracle-guided CEGAR attack ("cegar" in `adversaries`;
    /// hidden configuration = select code 0).
    attack::OracleAttackParams oracle;
    /// Oracle threat-model decorators for the attack stage: query budget,
    /// measurement noise, pattern cache, transcript recording (see
    /// attack/oracle.hpp).  A fresh decorator stack is built per
    /// oracle-granted adversary so the accounting in each
    /// AdversaryReport::oracle block is per-attack.  The `replay` pointer
    /// is managed by the attack stage from replay_transcript below.
    attack::OracleModelParams oracle_model;
    /// Record the attacker-visible oracle transcript and write it to this
    /// JSON file (empty = off).  With several oracle-granted adversaries
    /// in the panel, the last one's transcript wins.
    std::string save_transcript;
    /// Replay a transcript JSON recorded by save_transcript instead of
    /// consulting the simulated chip (empty = off).  Contradicts
    /// oracle_model.noise; harnesses reject that combination at parse
    /// time.
    std::string replay_transcript;
    /// Emit a verifiable audit::AttackProof artifact for the CEGAR
    /// adversary's run to this JSON file (empty = off).  Implies
    /// transcript recording and per-query commitments.  Contradicts
    /// replay_transcript (a replay proves nothing new) and needs "cegar" in
    /// the panel; harnesses reject both at parse time and the attack stage
    /// guards them again at run time.
    std::string emit_proof;
    /// Patterns the random-sampling baseline adversary draws.
    int random_queries = 128;
    /// Registered adversaries the attack stage should run (see
    /// attack::AdversaryRegistry); empty = no attack stage.  Attacks need
    /// run_camo_mapping: the attack stage throws std::invalid_argument
    /// without a camouflaged netlist.  The oracle-granted ones (cegar,
    /// random-sampling) model a STRONGER adversary (working chip in hand)
    /// than the paper's viable-set attacker.
    std::vector<std::string> adversaries;
    std::uint64_t seed = 1;
};

struct FlowResult {
    // Table I columns (GE).
    double random_avg = 0.0;
    double random_best = 0.0;
    double ga_area = 0.0;
    double ga_tm_area = 0.0;
    /// (random_best - ga_tm_area) / random_best * 100, Table I's last column.
    double improvement_percent() const {
        return random_best > 0.0 ? (random_best - ga_tm_area) / random_best * 100.0
                                 : 0.0;
    }

    ga::GaResult ga;
    std::vector<double> random_areas;  ///< Fig. 4a samples

    std::optional<tech::Netlist> synthesized;    ///< best GA circuit, mapped
    std::optional<camo::CamoNetlist> camouflaged;
    camo::CamoMapStats camo_stats;

    /// Circuit scenarios only (camo::inject): cells the attacker knows are
    /// ordinary, indexed by camouflaged-netlist node id.  Wired into
    /// OracleAttackParams::fixed_nominal by the attack stage; empty for the
    /// S-box flow, where every look-alike is unknown.
    std::vector<bool> fixed_nominal;

    bool verified = false;  ///< every viable function replayed correctly

    /// Uniform per-adversary reports from the attack stage, in run order
    /// (one per requested adversary; includes the CEGAR attacker's).
    std::vector<attack::AdversaryReport> attack_reports;

    /// The audit::AttackProof artifact (serialized) when
    /// FlowParams::emit_proof is set.  Held here instead of written by the
    /// attack stage so the scenario runner can stamp the spec hash into it
    /// before it reaches disk.
    std::optional<report::Json> attack_proof;
};

class ObfuscationFlow {
public:
    ObfuscationFlow();

    const tech::GateLibrary& gate_library() const {
        return tech::MatchCache::standard().library();
    }
    const camo::CamoLibrary& camo_library() const { return camo_lib_; }

    /// Phase I for a fixed pin assignment: merged AIG -> optimize -> map.
    tech::Netlist synthesize(const MergedSpec& spec, synth::Effort effort,
                             const tech::TechMapParams& map_params = {},
                             BuildStyle style = BuildStyle::kFactored);

    /// Like synthesize() but tries both build styles and keeps the smaller
    /// mapped netlist.
    tech::Netlist synthesize_best(const MergedSpec& spec, synth::Effort effort,
                                  const tech::TechMapParams& map_params = {});

    /// Synthesized area in GE (the GA fitness).
    double evaluate_area(const std::vector<ViableFunction>& functions,
                         const ga::PinAssignment& assignment,
                         synth::Effort effort = synth::Effort::kFast,
                         BuildStyle style = BuildStyle::kFactored);

    /// Full Phases I-III plus baseline and validation.  Compatibility
    /// wrapper over flow::Pipeline::standard (see flow/pipeline.hpp for the
    /// staged API; results are identical at fixed seed).
    FlowResult run(const std::vector<ViableFunction>& functions,
                   const FlowParams& params);

    /// ModelSim substitute: for every select code, applies the recorded
    /// dopant configuration and checks the camouflaged netlist against the
    /// expected viable function.
    static bool verify_configurations(const MergedSpec& spec,
                                      const camo::CamoNetlist& netlist);

    synth::SynthContext& synth_context() { return synth_ctx_; }

private:
    synth::SynthContext synth_ctx_;
    camo::CamoLibrary camo_lib_;
};

}  // namespace mvf::flow
