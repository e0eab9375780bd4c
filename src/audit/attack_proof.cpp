#include "audit/attack_proof.hpp"

#include <climits>
#include <stdexcept>

#include "audit/commitment.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/sha256.hpp"

namespace mvf::audit {
namespace {

/// Recomputes the full commitment chain from salts + transcript + context;
/// returns the digests in query order.  Shared by prove() (cross-check
/// against the live committer) and verify() (recompute from the artifact).
std::vector<std::string> chain_digests(
    const attack::OracleTranscript& transcript,
    const std::vector<std::string>& salts, const std::string& context) {
    std::vector<std::string> digests;
    digests.reserve(transcript.entries.size());
    for (std::size_t i = 0; i < transcript.entries.size(); ++i) {
        const attack::OracleTranscript::Entry& e = transcript.entries[i];
        const std::string& prev = i == 0 ? context : digests.back();
        const std::string msg =
            CommittingOracle::leaf_message(i, e.inputs, e.outputs, prev);
        digests.push_back(Commitment::commit(msg, salts[i]).digest_hex);
    }
    return digests;
}

bool truncated_outcome(const std::string& outcome) {
    // A replay classifies every scripted entry as warm-up, so a live run
    // stopped by max_iterations resurfaces as the transcript running out
    // (query budget).  Both mean the same thing to a verifier: the run was
    // cut off before convergence and claims no count.
    return outcome == "iteration limit" || outcome == "query budget";
}

}  // namespace

ReplayParams ReplayParams::from_attack_params(
    const attack::OracleAttackParams& p) {
    ReplayParams r;
    r.count_mode = p.count_mode;
    r.max_survivors = p.max_survivors;
    r.count_cache_mb = p.count_cache_mb;
    r.count_max_decisions = p.count_max_decisions;
    r.enumerate_survivors = p.enumerate_survivors;
    if (p.fixed_nominal) r.fixed_nominal = *p.fixed_nominal;
    return r;
}

attack::OracleAttackParams ReplayParams::to_attack_params(
    std::size_t transcript_entries) const {
    attack::OracleAttackParams p;
    p.count_mode = count_mode;
    p.max_survivors = max_survivors;
    p.count_cache_mb = count_cache_mb;
    p.count_max_decisions = count_max_decisions;
    p.enumerate_survivors = enumerate_survivors;
    // Every scripted entry is consumed as warm-up (see the ReplayParams doc
    // comment); no iteration cap, so the only terminations are convergence
    // and the transcript running out.
    p.random_warmup = transcript_entries > static_cast<std::size_t>(INT_MAX)
                          ? INT_MAX
                          : static_cast<int>(transcript_entries);
    p.max_iterations = 0;
    if (!fixed_nominal.empty()) p.fixed_nominal = &fixed_nominal;
    return p;
}

report::Json ReplayParams::to_json() const {
    report::Json j = report::Json::object();
    j.set("count_mode", std::string(attack::count_mode_name(count_mode)));
    j.set("max_survivors", max_survivors);
    j.set("count_cache_mb", count_cache_mb);
    j.set("count_max_decisions", count_max_decisions);
    j.set("enumerate_survivors", enumerate_survivors);
    if (!fixed_nominal.empty()) {
        j.set("fixed_nominal", attack::bits_to_string(fixed_nominal));
    }
    return j;
}

ReplayParams ReplayParams::from_json(const report::Json& j) {
    ReplayParams r;
    const std::string& mode = j.at("count_mode").as_string();
    if (!attack::count_mode_from_name(mode, &r.count_mode)) {
        throw report::JsonError("attack proof: unknown count_mode \"" + mode +
                                "\"");
    }
    r.max_survivors = j.at("max_survivors").as_uint();
    if (r.max_survivors == 0) {
        // A zero cap clamps every count to 0, which reads as "no survivor".
        throw report::JsonError("attack proof: max_survivors must be >= 1");
    }
    r.count_cache_mb = static_cast<int>(j.at("count_cache_mb").as_int());
    r.count_max_decisions = j.at("count_max_decisions").as_uint();
    r.enumerate_survivors = j.at("enumerate_survivors").as_bool();
    // Proofs from before approximate counting was removed also carry
    // epsilon, delta and count_seed; no backend reads them, so they are
    // skipped (an "approx" count_mode is refused above).
    // Absent in proofs from S-box scenarios and in pre-circuit artifacts;
    // both mean "no cell is known nominal".  Its width is checked against
    // the netlist in verify().
    if (const report::Json* f = j.find("fixed_nominal")) {
        const std::string& bits = f->as_string();
        r.fixed_nominal =
            attack::bits_from_string(bits, bits.size(), "fixed_nominal");
    }
    return r;
}

std::string AttackProof::netlist_context(const report::Json& netlist_snapshot) {
    // Canonicalized so member order never changes the identity; the domain
    // prefix keeps a netlist digest from colliding with a leaf digest.
    return util::sha256_hex("mvf-netlist|" +
                            report::canonicalized(netlist_snapshot).dump());
}

AttackProof AttackProof::prove(report::Json netlist_snapshot,
                               const attack::AdversaryReport& report,
                               const attack::OracleTranscript& transcript,
                               const CommittingOracle& committer,
                               const attack::OracleAttackParams& live_params) {
    obs::Span span("prove", "audit");
    AttackProof proof;
    proof.netlist = std::move(netlist_snapshot);
    proof.report = report;
    proof.transcript = transcript;
    proof.params = ReplayParams::from_attack_params(live_params);

    const std::vector<Commitment>& commitments = committer.commitments();
    if (commitments.size() != transcript.entries.size()) {
        throw std::runtime_error(
            "AttackProof::prove: committer saw " +
            std::to_string(commitments.size()) + " queries but the transcript "
            "recorded " + std::to_string(transcript.entries.size()) +
            " -- the committer and recorder are not observing the same "
            "oracle stream");
    }
    proof.salts.reserve(commitments.size());
    for (const Commitment& c : commitments) proof.salts.push_back(c.salt_hex);

    // Cross-check: the chain recomputed from the transcript must reproduce
    // the committer's digests bit-for-bit.  A disagreement means the
    // harness wired the committer below the cache or above the counter --
    // a bug to fix, not an artifact to emit.
    const std::string context = netlist_context(proof.netlist);
    const std::vector<std::string> digests =
        chain_digests(transcript, proof.salts, context);
    for (std::size_t i = 0; i < digests.size(); ++i) {
        if (digests[i] != commitments[i].digest_hex) {
            throw std::runtime_error(
                "AttackProof::prove: commitment " + std::to_string(i) +
                " does not match the transcript entry it should bind");
        }
    }
    proof.merkle_root = committer.merkle_root();
    if (obs::metrics_enabled()) {
        obs::MetricsRegistry::global().counter("audit.proofs").add();
    }
    if (span) {
        report::Json ea = report::Json::object();
        ea.set("queries", static_cast<std::uint64_t>(digests.size()));
        ea.set("merkle_root", proof.merkle_root);
        span.set_end_args(std::move(ea));
    }
    return proof;
}

ProofVerification AttackProof::verify(const camo::CamoNetlist& netlist) const {
    obs::Span span("verify-proof", "audit");
    ProofVerification v;
    const std::size_t entries = transcript.entries.size();

    // --- Structural + commitment layer -----------------------------------
    if (salts.size() != entries) {
        v.failures.push_back("salt count (" + std::to_string(salts.size()) +
                             ") does not match transcript length (" +
                             std::to_string(entries) + ")");
    }
    if (entries > 0 && (transcript.num_inputs != netlist.num_pis() ||
                        transcript.num_outputs != netlist.num_pos())) {
        v.failures.push_back("transcript widths do not match the netlist");
    }
    if (v.failures.empty()) {
        const std::string context = netlist_context(this->netlist);
        const std::vector<std::string> digests =
            chain_digests(transcript, salts, context);
        std::vector<std::string> leaves = digests;
        const std::string root = MerkleTree(std::move(leaves)).root();
        if (constant_time_equal(root, merkle_root)) {
            v.commitments_ok = true;
        } else {
            v.failures.push_back(
                "recomputed Merkle root does not match the committed root "
                "(tampered answer, transcript, salt, or netlist)");
        }
    }
    if (!report.audit_merkle_root.empty() &&
        !constant_time_equal(report.audit_merkle_root, merkle_root)) {
        v.failures.push_back(
            "claimed report's audit block names a different Merkle root");
    }

    // --- Replay layer ----------------------------------------------------
    // Runs even when the commitment layer failed: "the commitments are
    // forged AND the claim does not follow from the transcript" is more
    // actionable than stopping at the first failure.
    attack::AdversaryOptions options;
    options.oracle = params.to_attack_params(entries);
    options.random_queries = options.oracle.random_warmup;
    try {
        // The encoder indexes fixed_nominal by node id: a proof whose width
        // differs from the netlist's node count is refused, not replayed.
        const std::size_t nodes = static_cast<std::size_t>(netlist.num_nodes());
        if (!params.fixed_nominal.empty() &&
            params.fixed_nominal.size() != nodes) {
            throw std::invalid_argument(
                "fixed_nominal has width " +
                std::to_string(params.fixed_nominal.size()) + ", expected " +
                std::to_string(nodes) + " (the netlist's node count)");
        }
        std::unique_ptr<attack::Adversary> adversary =
            attack::AdversaryRegistry::instance().create(report.adversary,
                                                         options);
        if (adversary->knowledge() != attack::Knowledge::kWorkingChip) {
            throw std::invalid_argument(
                "adversary \"" + report.adversary +
                "\" does not take an oracle; its reports cannot be replayed");
        }
        attack::OracleModelParams model;
        model.replay = &transcript;
        attack::OracleStack stack(nullptr, model);
        v.replayed = adversary->attack(netlist, &stack.top());

        const auto mismatch = [&v](const std::string& field,
                                   const std::string& claimed,
                                   const std::string& got) {
            v.failures.push_back("replay mismatch on " + field + ": claimed " +
                                 claimed + ", replay produced " + got);
        };
        bool replay_ok = true;
        if (v.replayed.success != report.success) {
            mismatch("success", report.success ? "true" : "false",
                     v.replayed.success ? "true" : "false");
            replay_ok = false;
        }
        if (v.replayed.outcome != report.outcome &&
            !(truncated_outcome(v.replayed.outcome) &&
              truncated_outcome(report.outcome))) {
            mismatch("outcome", report.outcome, v.replayed.outcome);
            replay_ok = false;
        }
        if (v.replayed.queries != report.queries) {
            mismatch("queries", std::to_string(report.queries),
                     std::to_string(v.replayed.queries));
            replay_ok = false;
        }
        if (v.replayed.survivors != report.survivors) {
            mismatch("survivors", std::to_string(report.survivors),
                     std::to_string(v.replayed.survivors));
            replay_ok = false;
        }
        if (v.replayed.survivors_str != report.survivors_str) {
            mismatch("survivors_str", report.survivors_str,
                     v.replayed.survivors_str);
            replay_ok = false;
        }
        if (v.replayed.count_mode != report.count_mode) {
            mismatch("count_mode", report.count_mode, v.replayed.count_mode);
            replay_ok = false;
        }
        v.replay_ok = replay_ok;
    } catch (const std::exception& e) {
        v.failures.push_back(std::string("replay failed: ") + e.what());
    }

    v.ok = v.commitments_ok && v.replay_ok && v.failures.empty();
    if (obs::metrics_enabled()) {
        obs::MetricsRegistry::global()
            .counter(v.ok ? "audit.verify_pass" : "audit.verify_fail")
            .add();
    }
    if (span) {
        report::Json ea = report::Json::object();
        ea.set("ok", v.ok);
        ea.set("commitments_ok", v.commitments_ok);
        ea.set("replay_ok", v.replay_ok);
        ea.set("failures", static_cast<std::uint64_t>(v.failures.size()));
        span.set_end_args(std::move(ea));
    }
    return v;
}

report::Json AttackProof::to_json() const {
    report::Json j = report::Json::object();
    j.set("format", "mvf-attack-proof");
    j.set("version", kVersion);
    j.set("spec_hash", spec_hash);
    j.set("merkle_root", merkle_root);
    j.set("params", params.to_json());
    j.set("report", report.to_json());
    j.set("transcript", transcript.to_json());
    report::Json s = report::Json::array();
    for (const std::string& salt : salts) s.push_back(report::Json(salt));
    j.set("salts", std::move(s));
    j.set("netlist", netlist);
    return j;
}

AttackProof AttackProof::from_json(const report::Json& j) {
    const std::string& format = j.at("format").as_string();
    if (format != "mvf-attack-proof") {
        throw report::JsonError("not an attack proof (format \"" + format +
                                "\")");
    }
    const int version = static_cast<int>(j.at("version").as_int());
    if (version != kVersion) {
        throw report::JsonError("unsupported attack-proof version " +
                                std::to_string(version));
    }
    AttackProof p;
    p.spec_hash = j.at("spec_hash").as_string();
    p.merkle_root = j.at("merkle_root").as_string();
    p.params = ReplayParams::from_json(j.at("params"));
    p.report = attack::AdversaryReport::from_json(j.at("report"));
    p.transcript = attack::OracleTranscript::from_json(j.at("transcript"));
    for (const report::Json& s : j.at("salts").items()) {
        p.salts.push_back(s.as_string());
    }
    p.netlist = j.at("netlist");
    return p;
}

}  // namespace mvf::audit
