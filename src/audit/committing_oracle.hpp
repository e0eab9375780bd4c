// Oracle decorator that commits to every answer as it is served.
//
// Slots into OracleStack just below the counter (chip -> noise -> budget
// -> cache -> recorder -> COMMITTER -> counter), so it sees exactly the
// attacker-visible query sequence the transcript recorder sees.  Each
// answered pattern becomes one salted commitment whose message embeds the
// PREVIOUS commitment's digest, chaining the leaves: the commitments bind
// the query ORDER, not just the set.  A Merkle tree over the leaf digests
// gives a single root a prover can publish, and lets any one query be
// opened (leaf + salt + sibling path) without revealing the rest.
//
// Like TranscriptOracle's recorder this is deliberately NOT thread-safe:
// a commitment chain is one ordered sequence, which the serial CEGAR loop
// produces.

#ifndef MVF_AUDIT_COMMITTING_ORACLE_HPP
#define MVF_AUDIT_COMMITTING_ORACLE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "attack/oracle.hpp"
#include "audit/commitment.hpp"
#include "util/rng.hpp"

namespace mvf::audit {

class CommittingOracle final : public attack::OracleDecorator {
public:
    /// Salts are drawn from a seeded stream so a run is reproducible at
    /// fixed seed; the seed itself never appears in the proof artifact
    /// (the per-query salts do).  `context_hex` seeds the chain: the FIRST
    /// leaf's message embeds it where later leaves embed their
    /// predecessor's digest, so commitments made over different contexts
    /// (e.g. different netlists -- harnesses pass a netlist digest) can
    /// never be spliced together.
    CommittingOracle(attack::Oracle& inner, std::uint64_t salt_seed,
                     std::string context_hex = "");

    std::vector<bool> query(const std::vector<bool>& inputs) override;
    std::vector<std::uint64_t> query_block(
        const std::vector<std::uint64_t>& inputs, int count) override;

    const std::vector<Commitment>& commitments() const { return commitments_; }
    std::uint64_t committed() const { return commitments_.size(); }

    /// Merkle root over the commitment digests (rebuilt per call; callers
    /// take it once at attack end).
    std::string merkle_root() const;

    /// The committed message for query `index`: the chain format verifiers
    /// re-derive.  `prev_digest_hex` is the context for the first query and
    /// the previous commitment's digest afterwards.
    static std::string leaf_message(std::uint64_t index,
                                    const std::vector<bool>& inputs,
                                    const std::vector<bool>& outputs,
                                    const std::string& prev_digest_hex);

private:
    void commit_one(const std::vector<bool>& inputs,
                    const std::vector<bool>& outputs);
    std::string next_salt_hex();

    util::Rng rng_;
    std::string context_hex_;
    std::vector<Commitment> commitments_;
};

}  // namespace mvf::audit

#endif  // MVF_AUDIT_COMMITTING_ORACLE_HPP
