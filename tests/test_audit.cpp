// Tests for the verifiable-attack-evidence subsystem (src/audit/).
//
// Anchors: (a) commitment and Merkle-tree primitives (hiding is out of
// scope, binding is not); (b) the CommittingOracle's chain -- one
// commitment per attacker-visible pattern, each leaf bound to its
// predecessor and the chain seeded by the netlist context; (c) the full
// prove -> serialize -> verify round trip on a real flow run, plus every
// tamper mode the ISSUE names (flipped answer bit, truncated transcript,
// corrupted salt) and a forged claim, all rejected; (d) the check-report
// survivors/survivors_str cross-check that a parse round trip alone
// cannot perform.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "attack/adversary.hpp"
#include "attack/oracle.hpp"
#include "attack/random_camo.hpp"
#include "audit/attack_proof.hpp"
#include "audit/commitment.hpp"
#include "audit/committing_oracle.hpp"
#include "flow/obfuscation_flow.hpp"
#include "flow/stage_io.hpp"
#include "sbox/sbox_data.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

namespace mvf::audit {
namespace {

using attack::pack_block;
using attack::unpack_lane;
using camo::CamoLibrary;
using camo::CamoNetlist;

CamoLibrary standard_camo_library() {
    return CamoLibrary::from_gate_library(tech::GateLibrary::standard());
}

// ------------------------------------------------------------ primitives --

TEST(Commitment, OpensOnlyWithTheCommittedMessageAndSalt) {
    const Commitment c = Commitment::commit("attack answer 0110", "a1b2c3d4");
    EXPECT_TRUE(c.open("attack answer 0110"));
    EXPECT_FALSE(c.open("attack answer 0111"));
    EXPECT_FALSE(c.open(""));

    Commitment wrong_salt = c;
    wrong_salt.salt_hex = "a1b2c3d5";
    EXPECT_FALSE(wrong_salt.open("attack answer 0110"));

    // Different salts hide equal messages behind different digests.
    const Commitment c2 = Commitment::commit("attack answer 0110", "00000000");
    EXPECT_NE(c.digest_hex, c2.digest_hex);
}

TEST(Commitment, ConstantTimeEqualMatchesOperatorEq) {
    EXPECT_TRUE(constant_time_equal("", ""));
    EXPECT_TRUE(constant_time_equal("abcdef", "abcdef"));
    EXPECT_FALSE(constant_time_equal("abcdef", "abcdeg"));
    EXPECT_FALSE(constant_time_equal("abcdef", "abcde"));
    EXPECT_FALSE(constant_time_equal("", "x"));
}

TEST(MerkleTree, RootBindsEveryLeafAndOrder) {
    std::vector<std::string> leaves;
    for (int i = 0; i < 7; ++i) {
        leaves.push_back(util::sha256_hex("leaf " + std::to_string(i)));
    }
    const MerkleTree tree(leaves);
    EXPECT_EQ(tree.num_leaves(), 7u);

    // Any single-leaf change, and any order change, changes the root.
    for (std::size_t i = 0; i < leaves.size(); ++i) {
        std::vector<std::string> tampered = leaves;
        tampered[i] = util::sha256_hex("evil");
        EXPECT_NE(MerkleTree(tampered).root(), tree.root()) << "leaf " << i;
    }
    std::vector<std::string> swapped = leaves;
    std::swap(swapped[1], swapped[2]);
    EXPECT_NE(MerkleTree(swapped).root(), tree.root());
}

TEST(MerkleTree, PathsVerifyForEveryLeafAtEveryCount) {
    // Odd counts exercise the promoted-node case (1, 3, 5, 7); powers of
    // two the balanced case.
    for (const int count : {1, 2, 3, 4, 5, 7, 8}) {
        std::vector<std::string> leaves;
        for (int i = 0; i < count; ++i) {
            leaves.push_back(util::sha256_hex('q' + std::to_string(i)));
        }
        const MerkleTree tree(leaves);
        for (int i = 0; i < count; ++i) {
            const auto path = tree.path(static_cast<std::size_t>(i));
            EXPECT_TRUE(MerkleTree::verify_path(
                leaves[static_cast<std::size_t>(i)],
                static_cast<std::size_t>(i), path, tree.root()))
                << "count " << count << " leaf " << i;
            // The same path must NOT authenticate a different leaf.
            EXPECT_FALSE(MerkleTree::verify_path(
                util::sha256_hex("forged"), static_cast<std::size_t>(i), path,
                tree.root()));
        }
    }
}

// ------------------------------------------------------ committing oracle --

TEST(CommittingOracle, ChainsEveryPatternAndBindsTheContext) {
    const CamoLibrary lib = standard_camo_library();
    util::Rng rng(17);
    const CamoNetlist nl = attack::random_camo_netlist(lib, 4, 2, 7, rng);
    attack::SimOracle chip(nl, nl.configuration_for_code(0));
    const std::string context = util::sha256_hex("netlist context");
    CommittingOracle committer(chip, /*salt_seed=*/7, context);

    std::vector<std::vector<bool>> patterns;
    for (int k = 0; k < 6; ++k) {
        std::vector<bool> p(4);
        for (int i = 0; i < 4; ++i) p[static_cast<std::size_t>(i)] = (k >> i) & 1;
        patterns.push_back(std::move(p));
    }
    std::vector<std::vector<bool>> answers;
    answers.push_back(committer.query(patterns[0]));
    answers.push_back(committer.query(patterns[1]));
    const std::vector<std::uint64_t> block = committer.query_block(
        pack_block({patterns[2], patterns[3], patterns[4], patterns[5]}), 4);
    for (int k = 0; k < 4; ++k) answers.push_back(unpack_lane(block, k));

    ASSERT_EQ(committer.committed(), 6u);
    const std::vector<Commitment>& chain = committer.commitments();
    std::string prev = context;
    for (std::size_t i = 0; i < chain.size(); ++i) {
        // Each commitment opens exactly the chained leaf message: index,
        // the pattern, the chip's answer, and the predecessor digest.
        const std::string message = CommittingOracle::leaf_message(
            i, patterns[i], answers[i], prev);
        EXPECT_TRUE(chain[i].open(message)) << "leaf " << i;
        EXPECT_FALSE(chain[i].open(
            CommittingOracle::leaf_message(i, patterns[i], answers[i],
                                           util::sha256_hex("wrong prev"))));
        prev = chain[i].digest_hex;
    }

    // Same seed + context + query sequence => identical chain and root;
    // different context => different chain from the first leaf on.
    attack::SimOracle chip2(nl, nl.configuration_for_code(0));
    CommittingOracle twin(chip2, 7, context);
    attack::SimOracle chip3(nl, nl.configuration_for_code(0));
    CommittingOracle other(chip3, 7, util::sha256_hex("other context"));
    for (const std::vector<bool>& p : patterns) {
        twin.query(p);
        other.query(p);
    }
    EXPECT_EQ(twin.merkle_root(), committer.merkle_root());
    EXPECT_NE(other.merkle_root(), committer.merkle_root());
    EXPECT_NE(other.commitments()[0].digest_hex, chain[0].digest_hex);
}

// ------------------------------------------------------ end-to-end proofs --

/// One small attacked flow with proof emission, shared by the round-trip
/// and tamper tests (the GA + attack dominate; run it once).
const flow::FlowResult& proven_flow_result() {
    static const flow::FlowResult result = [] {
        flow::FlowParams p;
        p.ga.population = 8;
        p.ga.generations = 4;
        p.adversaries = {"cegar"};
        p.oracle.count_mode = attack::CountMode::kEnumerate;
        p.oracle.max_survivors = 256;
        // Non-empty path arms proof emission; the file itself is only
        // written by the scenario runner, so nothing touches disk here.
        p.emit_proof = "unused.json";
        flow::ObfuscationFlow engine;
        return engine.run(flow::from_sboxes(sbox::present_viable_set(2)), p);
    }();
    return result;
}

AttackProof parsed_proof() {
    const flow::FlowResult& r = proven_flow_result();
    EXPECT_TRUE(r.attack_proof.has_value());
    // Serialize/parse round trip: what the verifier sees is the document,
    // not the in-memory struct.
    return AttackProof::from_json(
        report::Json::parse_strict(r.attack_proof->dump(2)));
}

ProofVerification verify_proof(const AttackProof& proof) {
    const CamoNetlist nl =
        flow::camo_netlist_from_json(proof.netlist, standard_camo_library());
    return proof.verify(nl);
}

TEST(AttackProof, EndToEndRoundTripVerifies) {
    const AttackProof proof = parsed_proof();
    EXPECT_EQ(proof.report.adversary, "cegar");
    EXPECT_FALSE(proof.merkle_root.empty());
    EXPECT_EQ(proof.salts.size(), proof.transcript.entries.size());
    EXPECT_EQ(proof.report.audit_merkle_root, proof.merkle_root);
    EXPECT_EQ(proof.report.audit_committed, proof.transcript.entries.size());

    const ProofVerification v = verify_proof(proof);
    EXPECT_TRUE(v.commitments_ok);
    EXPECT_TRUE(v.replay_ok);
    EXPECT_TRUE(v.failures.empty())
        << (v.failures.empty() ? "" : v.failures.front());
    EXPECT_TRUE(v.ok);
    // The chip-free replay reproduced the exact claim.
    EXPECT_EQ(v.replayed.survivors, proof.report.survivors);
    EXPECT_EQ(v.replayed.survivors_str, proof.report.survivors_str);
}

TEST(AttackProof, FlippedAnswerBitIsRejected) {
    AttackProof proof = parsed_proof();
    ASSERT_FALSE(proof.transcript.entries.empty());
    auto& outputs = proof.transcript.entries.front().outputs;
    ASSERT_FALSE(outputs.empty());
    outputs[0] = !outputs[0];
    const ProofVerification v = verify_proof(proof);
    EXPECT_FALSE(v.commitments_ok);
    EXPECT_FALSE(v.ok);
}

TEST(AttackProof, TruncatedTranscriptIsRejected) {
    AttackProof proof = parsed_proof();
    ASSERT_GT(proof.transcript.entries.size(), 1u);
    proof.transcript.entries.pop_back();
    proof.salts.pop_back();
    const ProofVerification v = verify_proof(proof);
    EXPECT_FALSE(v.commitments_ok);
    EXPECT_FALSE(v.ok);

    // Dropping the entry but not its salt is a structural mismatch.
    AttackProof ragged = parsed_proof();
    ragged.transcript.entries.pop_back();
    EXPECT_FALSE(verify_proof(ragged).ok);
}

TEST(AttackProof, CorruptedSaltIsRejected) {
    AttackProof proof = parsed_proof();
    ASSERT_FALSE(proof.salts.empty());
    std::string& salt = proof.salts.front();
    salt[0] = salt[0] == '0' ? '1' : '0';
    const ProofVerification v = verify_proof(proof);
    EXPECT_FALSE(v.commitments_ok);
    EXPECT_FALSE(v.ok);
}

TEST(AttackProof, ForgedClaimIsRejectedByTheReplayLayer) {
    // An untouched transcript with an inflated claim: the commitments
    // still check out, but the chip-free recount disagrees.
    AttackProof proof = parsed_proof();
    proof.report.survivors += 1;
    proof.report.survivors_str =
        std::to_string(proof.report.survivors);
    const ProofVerification v = verify_proof(proof);
    EXPECT_TRUE(v.commitments_ok);
    EXPECT_FALSE(v.replay_ok);
    EXPECT_FALSE(v.ok);
}

TEST(AttackProof, ArchivedApproxFieldsStillVerifyAndApproxModeIsRefused) {
    // Proofs written while approximate counting existed carry epsilon,
    // delta and count_seed in their params, and approx_xor_levels and
    // approx_rounds in the report's count block.  No backend reads them:
    // such a proof parses and verifies.
    const flow::FlowResult& r = proven_flow_result();
    ASSERT_TRUE(r.attack_proof.has_value());
    report::Json archived = report::Json::parse_strict(r.attack_proof->dump());
    report::Json params = archived.at("params");
    params.set("epsilon", 0.8);
    params.set("delta", 0.2);
    params.set("count_seed", std::uint64_t{1});
    archived.set("params", params);
    report::Json claim = archived.at("report");
    report::Json count = claim.at("count");
    count.set("approx_xor_levels", 0);
    count.set("approx_rounds", 0);
    claim.set("count", std::move(count));
    archived.set("report", std::move(claim));
    const ProofVerification v = verify_proof(AttackProof::from_json(
        report::Json::parse_strict(archived.dump())));
    EXPECT_TRUE(v.ok) << (v.failures.empty() ? "" : v.failures.front());

    // An approx proof cannot be replayed: the mode is refused by name.
    params.set("count_mode", "approx");
    archived.set("params", std::move(params));
    try {
        AttackProof::from_json(archived);
        ADD_FAILURE() << "an approx proof parsed";
    } catch (const report::JsonError& e) {
        EXPECT_NE(std::string(e.what()).find("\"approx\""),
                  std::string::npos)
            << e.what();
    }
}

TEST(AttackProof, ZeroSurvivorCapIsRefused) {
    // A zero cap clamped the replayed count to 0, so a proof of "no
    // survivor" verified although configurations survive.  The cap is
    // refused by name before any replay.
    const flow::FlowResult& r = proven_flow_result();
    ASSERT_TRUE(r.attack_proof.has_value());
    report::Json doc = report::Json::parse_strict(r.attack_proof->dump());
    report::Json params = doc.at("params");
    params.set("count_mode", "enumerate");
    params.set("max_survivors", std::uint64_t{0});
    doc.set("params", std::move(params));
    try {
        AttackProof::from_json(doc);
        ADD_FAILURE() << "a proof with a zero survivor cap parsed";
    } catch (const report::JsonError& e) {
        EXPECT_NE(std::string(e.what()).find("max_survivors"),
                  std::string::npos)
            << e.what();
    }
}

TEST(AttackProof, RandomWarmupProofStaysVerifiable) {
    // A warm-up block puts random patterns ahead of the distinguishing
    // inputs; the replay layer classifies ALL transcript entries as
    // scripted warm-up, so the proof of such a mixed transcript must still
    // verify.
    flow::FlowParams p;
    p.ga.population = 8;
    p.ga.generations = 4;
    p.adversaries = {"cegar"};
    p.oracle.count_mode = attack::CountMode::kEnumerate;
    p.oracle.max_survivors = 256;
    p.oracle.random_warmup = 16;
    p.emit_proof = "unused.json";
    flow::ObfuscationFlow engine;
    const flow::FlowResult r =
        engine.run(flow::from_sboxes(sbox::present_viable_set(2)), p);
    ASSERT_TRUE(r.attack_proof.has_value());
    const AttackProof proof = AttackProof::from_json(
        report::Json::parse_strict(r.attack_proof->dump()));
    // Both kinds of entry are in the transcript: 16 warm-up patterns,
    // then at least one distinguishing input.
    EXPECT_GT(proof.report.queries, 16);
    EXPECT_EQ(proof.transcript.entries.size(),
              static_cast<std::size_t>(proof.report.queries));
    const ProofVerification v = verify_proof(proof);
    EXPECT_TRUE(v.ok) << (v.failures.empty() ? "" : v.failures.front());
}

TEST(AttackProof, EmitProofContradictionsAreRejectedAtTheAttackStage) {
    flow::FlowParams p;
    p.ga.population = 8;
    p.ga.generations = 4;
    p.adversaries = {"cegar"};
    p.emit_proof = "unused.json";
    p.replay_transcript = "unused-transcript.json";
    flow::ObfuscationFlow engine;
    const auto fns = flow::from_sboxes(sbox::present_viable_set(2));
    EXPECT_THROW(engine.run(fns, p), std::invalid_argument);

    p.replay_transcript.clear();
    p.adversaries = {"random-sampling"};
    EXPECT_THROW(engine.run(fns, p), std::invalid_argument);
}

// --------------------------------------------------- check-report mirror --

TEST(SurvivorsMismatch, CatchesAHandEditedNumericField) {
    attack::AdversaryReport r;
    r.adversary = "cegar";
    r.success = false;
    r.outcome = "survivor limit";
    r.survivors = 256;
    r.survivors_str = "256";
    r.count_mode = "enumerate";
    report::Json j = r.to_json();
    EXPECT_EQ(attack::survivors_mismatch(j), "");

    // Tamper the clamped numeric mirror only.  A parse round trip rebuilds
    // it from survivors_str and so reports no disagreement -- which is
    // exactly why check-report must cross-check the RAW document.
    j.set("survivors", std::uint64_t{9999});
    EXPECT_EQ(attack::AdversaryReport::from_json(j).survivors, 256u);
    EXPECT_NE(attack::survivors_mismatch(j), "");

    // A saturated survivors_str clamps to 2^53 in the numeric mirror.
    attack::AdversaryReport big;
    big.adversary = "cegar";
    big.outcome = "solved";
    big.survivors_str = ">=18446744073709551615";
    big.survivors = UINT64_MAX;
    big.count_mode = "exact";
    EXPECT_EQ(attack::survivors_mismatch(big.to_json()), "");

    // Garbage in the authoritative string is itself a rejection.
    report::Json garbage = r.to_json();
    report::Json count = garbage.at("count");
    count.set("survivors_str", "not-a-count");
    garbage.set("count", std::move(count));
    EXPECT_NE(attack::survivors_mismatch(garbage), "");
}

TEST(AdversaryReport, ArchivedApproxCountFieldsAreIgnored) {
    // Reports written while approximate counting existed carry
    // approx_xor_levels and approx_rounds in their count block; they parse
    // to the same report and pass the check-report mirror.
    attack::AdversaryReport r;
    r.adversary = "cegar";
    r.outcome = "solved";
    r.survivors = 1536;
    r.survivors_str = "1536";
    r.count_mode = "exact";
    r.count.decisions = 12;
    report::Json j = r.to_json();
    report::Json count = j.at("count");
    EXPECT_EQ(count.find("approx_rounds"), nullptr);
    count.set("approx_xor_levels", 0);
    count.set("approx_rounds", 0);
    j.set("count", std::move(count));
    const report::Json archived = report::Json::parse_strict(j.dump());
    EXPECT_EQ(attack::AdversaryReport::from_json(archived), r);
    EXPECT_EQ(attack::survivors_mismatch(archived), "");
}

TEST(AdversaryReport, AuditBlockRoundTripsAndTolerantlyDefaults) {
    attack::AdversaryReport r;
    r.adversary = "cegar";
    r.outcome = "solved";
    r.audit_merkle_root = util::sha256_hex("root");
    r.audit_committed = 42;
    const attack::AdversaryReport back =
        attack::AdversaryReport::from_json(r.to_json());
    EXPECT_EQ(back, r);

    // Pre-audit reports (no block) parse with empty/zero audit fields.
    attack::AdversaryReport plain;
    plain.adversary = "cegar";
    plain.outcome = "solved";
    const report::Json j = plain.to_json();
    EXPECT_EQ(j.find("audit"), nullptr);
    EXPECT_EQ(attack::AdversaryReport::from_json(j), plain);
}

}  // namespace
}  // namespace mvf::audit
