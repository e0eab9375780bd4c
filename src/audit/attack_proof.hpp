// Self-contained, third-party-checkable attack evidence.
//
// The paper's game is adversarial -- a defender claims >= K viable
// functions survive, an attacker claims de-camouflage in N queries -- but
// a bare AdversaryReport is just JSON either party could fabricate.  An
// AttackProof turns one oracle-guided attack run into an artifact a
// distrusting verifier checks WITHOUT the chip:
//
//   * the camouflaged netlist snapshot the attack ran on,
//   * the full attacker-visible transcript plus one salt per query,
//   * the Merkle root over the chained per-query commitments the
//     CommittingOracle produced while the attack ran (the chain is seeded
//     with the netlist digest, so the root binds circuit + queries +
//     answers + order in one value the prover can publish at attack time),
//   * the claimed AdversaryReport and the counting parameters needed to
//     re-derive it.
//
// verify() re-derives every commitment from the artifact's own salts and
// transcript and compares the recomputed root (constant-time) -- a flipped
// answer bit, a truncated transcript, or a corrupted salt all land here --
// then replays the transcript chip-free through TranscriptOracle under the
// claimed adversary and recomputes the surviving-configuration count,
// rejecting on any claim mismatch.
//
// What the proof does NOT show: that the transcript's answers came from a
// real chip.  A prover can fabricate a self-consistent transcript for a
// function of its choosing; the binding comes from publishing the Merkle
// root at attack time (or opening sampled queries against a live chip via
// MerkleTree::path).  Noise is likewise baked in: a noisy run's transcript
// replays the noisy answers, so the proof certifies "this query sequence,
// with these observed answers, pins the survivor count to X" -- not that
// the answers were noise-free.

#ifndef MVF_AUDIT_ATTACK_PROOF_HPP
#define MVF_AUDIT_ATTACK_PROOF_HPP

#include <string>
#include <vector>

#include "attack/adversary.hpp"
#include "attack/oracle.hpp"
#include "attack/oracle_attack.hpp"
#include "audit/committing_oracle.hpp"
#include "camo/camo_netlist.hpp"
#include "report/json.hpp"

namespace mvf::audit {

/// The semantic subset of OracleAttackParams a verifier needs to recompute
/// the survivor count (both counting backends are deterministic, so
/// carrying these pins the count exactly).  The attack has one encoding
/// and one solver pipeline, so nothing else selects how it counts.  The
/// warm-up split is deliberately absent: under replay ALL transcript
/// entries are constrained as scripted warm-up, which yields the same
/// constraint set -- and hence the same survivors and status -- as the
/// live run regardless of how the live attack classified each query.
struct ReplayParams {
    attack::CountMode count_mode = attack::CountMode::kExact;
    std::uint64_t max_survivors = 1u << 20;
    int count_cache_mb = 64;
    std::uint64_t count_max_decisions = 100'000;
    bool enumerate_survivors = true;
    /// Cells the live attack knew were uncamouflaged (circuit scenarios,
    /// see camo::inject); indexed by netlist node id, empty for the S-box
    /// flow.  Semantic, not performance: replaying without it would free
    /// every cell and change the survivor count.
    std::vector<bool> fixed_nominal;

    static ReplayParams from_attack_params(
        const attack::OracleAttackParams& p);
    /// The OracleAttackParams a verifier runs the replay with:
    /// `transcript_entries` patterns of scripted warm-up, no iteration cap.
    /// The result's fixed_nominal pointer aliases this ReplayParams, which
    /// must outlive the replay (AttackProof::verify holds it as a member).
    attack::OracleAttackParams to_attack_params(
        std::size_t transcript_entries) const;

    report::Json to_json() const;
    static ReplayParams from_json(const report::Json& j);
};

/// Outcome of AttackProof::verify().
struct ProofVerification {
    bool ok = false;
    /// Commitment layer: recomputed chain + Merkle root matched the
    /// committed root.
    bool commitments_ok = false;
    /// Replay layer: the chip-free replay reproduced the claim.
    bool replay_ok = false;
    /// Human-readable reasons for every rejection (empty when ok).
    std::vector<std::string> failures;
    /// The report the chip-free replay produced (meaningful when the
    /// replay ran, even if it then mismatched the claim).
    attack::AdversaryReport replayed;
};

struct AttackProof {
    static constexpr int kVersion = 1;

    /// Canonical scenario hash (flow::spec_hash) for provenance; empty for
    /// attacks run outside a scenario.  NOT covered by the commitments --
    /// the netlist digest in the chain is the binding identity.
    std::string spec_hash;
    /// Camouflaged-netlist snapshot (flow/stage_io.hpp schema), kept as an
    /// opaque document so the audit layer does not depend on flow.
    report::Json netlist;
    /// The claimed outcome, verbatim from the live run.
    attack::AdversaryReport report;
    /// The attacker-visible query sequence.
    attack::OracleTranscript transcript;
    /// One commitment salt per transcript entry, in query order.
    std::vector<std::string> salts;
    /// Merkle root over the chained commitment digests.
    std::string merkle_root;
    ReplayParams params;

    /// The commitment-chain context: SHA-256 of the canonicalized netlist
    /// snapshot.  Harnesses feed this to OracleModelParams::commit_context
    /// before the attack and prove() re-derives it.
    static std::string netlist_context(const report::Json& netlist_snapshot);

    /// Assembles the artifact at attack end.  Cross-checks that the
    /// committer's chain matches `transcript` exactly (count, messages,
    /// digests) and throws std::runtime_error on any disagreement -- a
    /// mismatch here is a harness wiring bug, not a tampered artifact.
    static AttackProof prove(report::Json netlist_snapshot,
                             const attack::AdversaryReport& report,
                             const attack::OracleTranscript& transcript,
                             const CommittingOracle& committer,
                             const attack::OracleAttackParams& live_params);

    /// Checks the artifact chip-free; `netlist` must be the snapshot
    /// reconstructed from this proof's `netlist` document (the caller owns
    /// the CamoLibrary needed to rebuild it).  Never throws on tampered
    /// content -- every rejection is reported in the result.
    ProofVerification verify(const camo::CamoNetlist& netlist) const;

    report::Json to_json() const;
    /// Inverse of to_json(); throws report::JsonError on malformed input.
    /// Load proof files with report::Json::parse_strict so duplicate keys
    /// are rejected rather than resolved last-wins.
    static AttackProof from_json(const report::Json& j);
};

}  // namespace mvf::audit

#endif  // MVF_AUDIT_ATTACK_PROOF_HPP
