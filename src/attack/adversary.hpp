#pragma once
// Unified adversary interface and registry.
//
// The red-teaming literature (see PAPERS.md) evaluates an obfuscation
// scheme against a *panel* of attackers under one harness, not against
// whichever ad-hoc API each attack happens to expose.  Every de-camouflaging
// adversary in this repo implements `Adversary`: it declares its name and
// the knowledge its threat model assumes, consumes a camouflaged netlist
// (plus an oracle when its model grants one), and produces a uniform
// `AdversaryReport` that serializes to JSON.  The registry maps names to
// factories so experiment drivers -- flow::AttackStage, the job scheduler,
// and the mvf CLI -- can run any subset chosen at runtime with zero new C++.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "attack/oracle_attack.hpp"
#include "camo/camo_netlist.hpp"
#include "logic/truth_table.hpp"
#include "report/json.hpp"

namespace mvf::attack {

/// What an adversary's threat model assumes it can access, beyond imaging
/// the netlist of look-alike cells (which every adversary gets).
enum class Knowledge {
    kNetlistOnly,  ///< just the camouflaged netlist
    kViableSet,    ///< additionally knows the candidate function set
    kWorkingChip,  ///< additionally owns an I/O oracle
};

std::string_view knowledge_name(Knowledge k);

/// Uniform attack outcome record.  Field meanings are shared across
/// adversaries so batch reports stay comparable; adversary-specific nuance
/// goes into `outcome`.
struct AdversaryReport {
    std::string adversary;
    /// The attack achieved its goal (recovered the function / could not be
    /// ruled out on any viable candidate -- see each adversary's docs).
    bool success = false;
    /// Human-readable status ("solved", "iteration limit", ...).
    std::string outcome;
    /// Oracle queries issued (0 for oracle-less adversaries, where it
    /// counts SAT decision problems instead).
    int queries = 0;
    /// Configurations (or candidate functions, for the plausibility model)
    /// the adversary could NOT eliminate, saturated to uint64.
    std::uint64_t survivors = 0;
    /// Full-precision survivor count as a decimal string (counting
    /// adversaries only; empty otherwise).  Authoritative when present --
    /// JSON numbers are doubles and lose precision beyond 2^53.
    std::string survivors_str;
    /// CountMode that produced the survivor figure ("exact" or
    /// "enumerate"; empty for adversaries that do not count).
    std::string count_mode;
    /// Exact projected-counter statistics (zeroed unless count_mode is
    /// "exact").
    count::CounterStats count;
    /// Uniform oracle accounting from the harness's OracleStack
    /// (CountingOracle and friends): queries/blocks/patterns answered,
    /// cache hits, noisy bits, budget state.  All-zero for oracle-less
    /// adversaries, and the JSON block is omitted then.
    OracleStats oracle;
    /// Latency histograms (obs::AttackMetrics) when the attack collected
    /// them; empty() otherwise, and the JSON block is omitted then.
    obs::AttackMetrics metrics;
    double seconds = 0.0;
    sat::Solver::Stats sat;  ///< aggregated over the attack's SAT queries
    /// Canonical hash of the scenario spec that produced this report
    /// (flow::spec_hash), stamped by the attack stage; empty when the
    /// attack ran outside a scenario.  Provenance: an archived report
    /// names exactly which experiment it came from.
    std::string spec_hash;
    /// Audit trail (attacks run with commitments enabled, e.g.
    /// --emit-proof): Merkle root over the chained per-query commitments
    /// and the number of committed queries.  Empty/zero otherwise, and the
    /// JSON block is omitted then.  The full evidence lives in the
    /// audit::AttackProof artifact; this block lets a report name the root
    /// it was proven under.
    std::string audit_merkle_root;
    std::uint64_t audit_committed = 0;

    report::Json to_json() const;
    /// Inverse of to_json(); throws report::JsonError on malformed input.
    static AdversaryReport from_json(const report::Json& j);

    bool operator==(const AdversaryReport&) const;
};

/// Cross-checks a SERIALIZED report's numeric `survivors` field against its
/// full-precision `count.survivors_str` mirror (which wins on parse, so a
/// round trip alone cannot see a hand-edited disagreement).  Returns "" when
/// consistent or when there is no count block; otherwise a description of
/// the disagreement.  `mvf check-report` rejects on non-empty.
std::string survivors_mismatch(const report::Json& report_json);

class Adversary {
public:
    virtual ~Adversary() = default;

    virtual std::string_view name() const = 0;
    virtual Knowledge knowledge() const = 0;

    /// Attacks `netlist`.  `oracle` is non-null iff the harness grants
    /// working-chip access; adversaries requiring it must reject a null
    /// oracle with std::invalid_argument rather than silently degrade.
    virtual AdversaryReport attack(const camo::CamoNetlist& netlist,
                                   Oracle* oracle) = 0;
};

/// Knobs a factory may draw on; harnesses fill in what they know.
struct AdversaryOptions {
    /// CEGAR parameters (oracle-guided adversaries).
    OracleAttackParams oracle;
    /// viable_targets[k][q] = PO q of viable function k over the netlist's
    /// PIs (viable-set adversaries; empty when the set is withheld).
    std::vector<std::vector<logic::TruthTable>> viable_targets;
    /// random-sampling baseline: patterns drawn and the sampling seed.
    int random_queries = 128;
    std::uint64_t random_seed = 1;
};

using AdversaryFactory =
    std::function<std::unique_ptr<Adversary>(const AdversaryOptions&)>;

/// Name -> factory registry of the built-in adversaries ("plausibility",
/// "cegar", "random-sampling"), registered on first access.
class AdversaryRegistry {
public:
    static AdversaryRegistry& instance();

    bool contains(const std::string& name) const;

    /// Instantiates `name`; throws std::invalid_argument for unknown names
    /// (message lists what is registered).
    std::unique_ptr<Adversary> create(const std::string& name,
                                      const AdversaryOptions& options) const;

    /// Registered names, in registration order.
    std::vector<std::string> names() const;

private:
    AdversaryRegistry();
    std::vector<std::pair<std::string, AdversaryFactory>> factories_;
};

/// The paper's attacker: knows the viable set, solves one plausibility SAT
/// query per candidate function.  Reported from the attacker's perspective:
/// success = at least one candidate ruled out (the defense holds exactly
/// when success is false); `survivors` counts candidates still plausible.
class PlausibilityAdversary final : public Adversary {
public:
    explicit PlausibilityAdversary(
        std::vector<std::vector<logic::TruthTable>> viable_targets)
        : targets_(std::move(viable_targets)) {}

    std::string_view name() const override { return "plausibility"; }
    Knowledge knowledge() const override { return Knowledge::kViableSet; }
    AdversaryReport attack(const camo::CamoNetlist& netlist,
                           Oracle* oracle) override;

private:
    std::vector<std::vector<logic::TruthTable>> targets_;
};

/// The oracle-guided CEGAR attacker (attack/oracle_attack.hpp) behind the
/// uniform interface.  success = CEGAR converged (every surviving
/// configuration implements the oracle's function).
class CegarAdversary final : public Adversary {
public:
    explicit CegarAdversary(OracleAttackParams params = {}) : params_(params) {}

    std::string_view name() const override { return "cegar"; }
    Knowledge knowledge() const override { return Knowledge::kWorkingChip; }
    AdversaryReport attack(const camo::CamoNetlist& netlist,
                           Oracle* oracle) override;

    /// Full typed result of the last attack() call (for harnesses that
    /// want more than the uniform report, e.g. the distinguishing inputs).
    const std::optional<OracleAttackResult>& last_result() const {
        return last_result_;
    }

private:
    OracleAttackParams params_;
    std::optional<OracleAttackResult> last_result_;
};

/// Scenario-diversity baseline: no SAT-guided query selection at all, just
/// `num_queries` random patterns pushed through the batched word-parallel
/// oracle path, then a survivor count over the gathered I/O constraints
/// (the same counting backends as the CEGAR attacker).  success = the
/// random sample alone pinned the chip down to one surviving
/// configuration.  Under a replaying TranscriptOracle the recorded
/// patterns are re-issued instead of fresh random ones, and a transcript
/// shorter than `num_queries` ends in "query budget", as a live budget
/// trip does.
class RandomSamplingAdversary final : public Adversary {
public:
    explicit RandomSamplingAdversary(OracleAttackParams params = {},
                                     int num_queries = 128,
                                     std::uint64_t seed = 1)
        : params_(params), num_queries_(num_queries), seed_(seed) {}

    std::string_view name() const override { return "random-sampling"; }
    Knowledge knowledge() const override { return Knowledge::kWorkingChip; }
    AdversaryReport attack(const camo::CamoNetlist& netlist,
                           Oracle* oracle) override;

    /// Full typed result of the last attack() call.
    const std::optional<OracleAttackResult>& last_result() const {
        return last_result_;
    }

private:
    OracleAttackParams params_;
    int num_queries_;
    std::uint64_t seed_;
    std::optional<OracleAttackResult> last_result_;
};

}  // namespace mvf::attack
