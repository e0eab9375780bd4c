#pragma once
// Deterministic canonical scenario hashing.
//
// Two scenario specs that mean the same experiment must hash identically
// no matter how they were spelled (key order in the spec line, defaults
// written out vs. omitted), and any semantic change -- a different seed, a
// GA knob, an oracle budget -- must change the hash.  The canonical form is
// a JSON object with every semantically relevant parameter materialized
// (defaults included) and keys recursively sorted; the hash is FNV-1a over
// its compact dump.
//
// Uses:
//   * provenance: every ScenarioRecord and AdversaryReport carries
//     `spec_hash`, so archived reports state exactly which experiment
//     produced them;
//   * the serve stage-result cache: keys are (stage-subset hash, seed,
//     stage), where the subset covers only the parameters that influence
//     the pipeline up to and including that stage -- so re-submitting a
//     sweep with only attack knobs changed re-uses the synthesized and
//     camouflaged netlists and re-runs just the attack.
//
// Deliberately EXCLUDED from the canonical form: the scenario `name`
// (cosmetic), `save_transcript` and `oracle_model.record` (observational
// side effects that do not alter results), and `ga.seed` (dead: the
// pipeline overrides it with the scenario seed).  `replay_transcript` IS
// included -- replaying changes results -- but a scenario naming transcript
// files is never stage-cached (the cache cannot see the file contents).
//
// Circuit scenarios (`circuit=PATH`) hash the referenced file's CONTENTS
// (SHA-256 of its bytes) into every subset, so editing the benchmark on
// disk changes the spec hash and invalidates stage-cache entries instead
// of warm-hitting stale snapshots.
//
// The canonical form and the per-stage subsets are generated from the
// scenario-key table (flow/scenario_keys.hpp): each hashed row names its
// canonical path and owning stages, and a stage's subset is every row
// owned at or before it in the scenario's chain, plus the computed
// entries (schema, family/n or kind/circuit_sha256).

#include <string>
#include <string_view>

#include "flow/scenario_keys.hpp"
#include "report/json.hpp"

namespace mvf::flow {

/// Folded into every hash, so stale spill-directory entries from older
/// builds miss instead of deserializing garbage.  Bump it for a shape
/// change that leaves the hash inputs unchanged, such as the stage-snapshot
/// serialization.  Adding or removing a canonical leaf needs no bump:
/// every hash whose subset held that leaf changes anyway, and the others
/// keep serving valid entries.
inline constexpr int kSpecSchemaVersion = 1;

/// SHA-256 (hex) of the bytes of the circuit file a circuit scenario
/// names, or "unreadable" when it cannot be opened; "" for S-box
/// scenarios.  Never throws: spec hashes are stamped into records before
/// the pipeline runs, so a missing circuit file must surface as the import
/// stage's ParseError, not here.  Each call reads the whole file, so a run
/// reads it once and hands the result to the overloads below.
std::string circuit_fingerprint(const Scenario& scenario);

/// Full canonical form (keys sorted, defaults materialized, seed included).
report::Json canonical_spec_json(const Scenario& scenario);

/// 16-hex-digit FNV-1a of canonical_spec_json's compact dump.  This form
/// and stage_cache_key's below fingerprint the circuit file themselves;
/// the overloads taking `fingerprint` (circuit_fingerprint of the same
/// scenario) hash one reading of the file consistently.
std::string spec_hash(const Scenario& scenario);
std::string spec_hash(const Scenario& scenario, std::string_view fingerprint);

/// Cache key "<subset-hash>:s<seed>:<stage>" for one pipeline stage, where
/// the subset hash covers exactly the parameters stages up to and
/// including `stage` consume.  Returns "" (do not cache) for unknown stage
/// names and for scenarios whose results depend on state outside the spec
/// (transcript record/replay files).
std::string stage_cache_key(const Scenario& scenario, std::string_view stage);
std::string stage_cache_key(const Scenario& scenario, std::string_view stage,
                            std::string_view fingerprint);

}  // namespace mvf::flow
