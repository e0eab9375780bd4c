// The scenario-key table (flow/scenario_keys.hpp): one row per knob drives
// the spec parser, the command-line parser, validation and the
// spec_hash/stage_cache_key subsets.  These tests run over the table
// itself, so a new row that lacks a sample value, spells differently in
// the two front ends or skips its stage's hash fails here.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "flow/scenario_keys.hpp"
#include "flow/spec_hash.hpp"

namespace mvf::flow {
namespace {

/// A circuit path that exists on no host: its fingerprint is "unreadable",
/// so the golden literals do not depend on the machine.
constexpr const char* kNoFile = "/nonexistent/mvf-golden/c.bench";

std::string with_file(std::string line) {
    for (std::size_t at; (at = line.find('@')) != std::string::npos;) {
        line.replace(at, 1, kNoFile);
    }
    return line;
}

/// The key, or the canonical path of an API-only row.
std::string id(const ScenarioKey& k) {
    if (!k.key.empty()) return k.key;
    std::string path;
    for (const std::string& part : k.owner.path) {
        path += (path.empty() ? "" : ".") + part;
    }
    return path;
}

const ScenarioKey& row(const std::string& key) {
    for (const ScenarioKey& k : scenario_keys()) {
        if (id(k) == key) return k;
    }
    throw std::invalid_argument("no row " + key);
}

/// Unhashed rows are the ones no stage owns.
bool hashed(const ScenarioKey& k) {
    return k.owner.sbox_stage != kNoStage || k.owner.circuit_stage != kNoStage;
}

bool applies_to(const ScenarioKey& k, bool circuit) {
    const int own = circuit ? k.owner.circuit_stage : k.owner.sbox_stage;
    const int other = circuit ? k.owner.sbox_stage : k.owner.circuit_stage;
    return own != kNoStage || other == kNoStage;
}

std::vector<std::string_view> stages_of(bool circuit) {
    if (circuit) return {kCircuitStages.begin(), kCircuitStages.end()};
    return {kSboxStages.begin(), kSboxStages.end()};
}

// ---------------------------------------------------------- golden hashes --

struct Golden {
    const char* spec;    ///< one spec line; '@' stands for kNoFile
    const char* api;     ///< "id=value" set through the row after parsing
    /// spec_hash, then each stage's subset hash ("-" = uncacheable).
    const char* hashes;
};

// Recorded by running this corpus against the library before the table
// replaced the hand-written parsers and subsets: the example specs, the
// serve-resubmit lines, and one scenario per row with a non-default value
// on each chain the row applies to.  The spec_hash and attack-stage
// columns were re-recorded when the portfolio, neighborhood_queries and
// run_oracle_attack leaves left the canonical form, again when the
// epsilon, delta and count_seed leaves did, and again when attack_threads
// and cube_vars did; no pre-attack column changed.
const Golden kGolden[] = {
    {"name=audit-present2 funcs=present:2 seed=3 population=8 generations=3 attack=cegar max_survivors=64 random_warmup=8 emit_proof=audit-proof.json", "",
     "1f35742158ef37fb - - - - -"},
    {"name=c17-bench circuit=@ seed=1 camo_density=0.4 attack=cegar,random-sampling", "",
     "06048ad054e0d0c5 beaef8af1a320615 da71bc9be3542304 a792bab5013776cb"},
    {"name=c17-blif circuit=@ seed=1 camo_density=0.4 attack=cegar", "",
     "bd12ffd5e97e7ece beaef8af1a320615 da71bc9be3542304 a0b1c93c37c158ce"},
    {"name=rca4 circuit=@ seed=2 camo_cells=3 camo_policy=fanout attack=cegar max_survivors=256", "",
     "034489c79af0e463 beaef8af1a320615 810981beddf307c1 9e223cdf2298a4fc"},
    {"name=maj3 circuit=@ seed=3 camo_density=1.0 camo_seed=7 camo_policy=depth attack=cegar count_mode=exact", "",
     "37de612f56ad4b32 beaef8af1a320615 23cf1f67af4e344c 39cb5239ac76b3a0"},
    {"name=smoke-present2 funcs=present:2 seed=1 population=8 generations=3 attack=cegar,plausibility max_survivors=64 oracle_cache=1 random_warmup=8", "",
     "e637aef21ba0aedd deafce9886ee5f6f 4204d2331224b30a 2643672ffb54a628 2643672ffb54a628 b352dea5eb56cd11"},
    {"name=smoke-des2 funcs=des:2 seed=2 population=6 generations=2 attack=plausibility", "",
     "91f0f87955309ca7 b60f279006147377 3c9b1c0375447754 a09fd09d5d3b0f8e a09fd09d5d3b0f8e 12b8fd8f290e28c6"},
    {"funcs=present:2 seed=1 population=6 generations=3 attack=cegar max_survivors=128", "",
     "b2117ec0594b9242 8dee510af0fba035 246ef7a18f4557a4 cadafcf60add21e6 cadafcf60add21e6 e37d29b1748d9018"},
    {"funcs=present:2 seed=2 population=6 generations=3 attack=cegar max_survivors=128", "",
     "0417ee51b20e8bd1 8dee510af0fba035 246ef7a18f4557a4 cadafcf60add21e6 cadafcf60add21e6 e37d29b1748d9018"},
    {"funcs=present:2 seed=3 population=6 generations=3 attack=cegar max_survivors=128", "",
     "d5dfe6ea18bc87c8 8dee510af0fba035 246ef7a18f4557a4 cadafcf60add21e6 cadafcf60add21e6 e37d29b1748d9018"},
    {"funcs=present:4 seed=1 population=6 generations=3 attack=cegar max_survivors=128", "",
     "67052a0c56c76e20 93a4f59fd811cd37 cb3cb4ebb12055e6 240d3fabe90223a4 240d3fabe90223a4 747a13602465e0ca"},
    {"funcs=present:4 seed=2 population=6 generations=3 attack=cegar max_survivors=128", "",
     "f5f538eaace32d63 93a4f59fd811cd37 cb3cb4ebb12055e6 240d3fabe90223a4 240d3fabe90223a4 747a13602465e0ca"},
    {"funcs=present:4 seed=3 population=6 generations=3 attack=cegar max_survivors=128", "",
     "320fd1f26982ddda 93a4f59fd811cd37 cb3cb4ebb12055e6 240d3fabe90223a4 240d3fabe90223a4 747a13602465e0ca"},
    {"funcs=present:8 seed=1 population=6 generations=3 attack=cegar max_survivors=128", "",
     "60b2d70686d9843c 8fb074bae39ee42b 7e5001e6cf88d402 d5bb574c8a1271c8 d5bb574c8a1271c8 d9563f3b6823cf5e"},
    {"funcs=present:8 seed=2 population=6 generations=3 attack=cegar max_survivors=128", "",
     "e37c6af2d09799ef 8fb074bae39ee42b 7e5001e6cf88d402 d5bb574c8a1271c8 d5bb574c8a1271c8 d9563f3b6823cf5e"},
    {"name=p2s5 funcs=present:2 seed=5 population=6 generations=2 attack=plausibility", "",
     "2e5e0fc3ae81d12d c42f7c71b796591a 070654412f85d747 0641fce2f1d139d1 0641fce2f1d139d1 c70c711e30df110d"},
    {"name=p2s5 funcs=present:2 seed=5 population=6 generations=2 attack=plausibility query_budget=1000", "",
     "a79da6203cb5e850 c42f7c71b796591a 070654412f85d747 0641fce2f1d139d1 0641fce2f1d139d1 52a490fa5cadbb4e"},
    {"funcs=present:2", "",
     "24ec6db464e6ba1a c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 680333c967a28b20"},
    {"funcs=present:2 funcs=des:3", "",
     "909bb29fe1f9c6f4 223649524aee5b52 c47e925975f90be1 3a1793c1870cd4df 3a1793c1870cd4df 39692c69be1a5e26"},
    {"funcs=present:2 population=9", "",
     "fdad31923698acc3 fa183f204c72fd8d 807f1ec6a442d602 81ed78212bc75b3c 81ed78212bc75b3c 3fe029fa5bf37533"},
    {"funcs=present:2 pop=9", "",
     "fdad31923698acc3 fa183f204c72fd8d 807f1ec6a442d602 81ed78212bc75b3c 81ed78212bc75b3c 3fe029fa5bf37533"},
    {"funcs=present:2 generations=5", "",
     "078617ee702ef8fd 51724ada9c0ccdef 1aad73ff7eb2f7c4 6b916dd720ce85ba 6b916dd720ce85ba 4531021573b80f31"},
    {"funcs=present:2 gens=5", "",
     "078617ee702ef8fd 51724ada9c0ccdef 1aad73ff7eb2f7c4 6b916dd720ce85ba 6b916dd720ce85ba 4531021573b80f31"},
    {"funcs=present:2 baseline=0", "",
     "2e73ef77f5ce7c23 23384929cc75121f f0a22a3af75561d0 a46e8c80ec3fa47e a46e8c80ec3fa47e b69c0a42c3d67593"},
    {"funcs=present:2 final_best=0", "",
     "f6a66d594e1305c7 c1a76688cfc4e2a6 cd93f1a7d771a0aa 687c26309a62e2a8 687c26309a62e2a8 55e39a1f118ab6cf"},
    {"funcs=present:2 verify=0", "",
     "d4b3d1eabb0b44a9 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 9535c0551007a1f7"},
    {"funcs=present:2 name=golden", "",
     "24ec6db464e6ba1a c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 680333c967a28b20"},
    {"funcs=present:2 seed=42", "",
     "ff605edf571c3eef c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 680333c967a28b20"},
    {"funcs=present:2 camo=0", "",
     "8d5cd81ee3a6173f c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 6e08509b25664d17"},
    {"funcs=present:2 attack=cegar", "",
     "64eebdddf527beba c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 144030feeab70040"},
    {"funcs=present:2 attack=none", "",
     "24ec6db464e6ba1a c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 680333c967a28b20"},
    {"funcs=present:2 count_mode=enumerate", "",
     "e0a9126de05234b7 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 7e4fe8d61bdb2d3f"},
    {"funcs=present:2 count_cache_mb=16", "",
     "2dc4138b78697ac1 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 6e5a68c69a6bcbfd"},
    {"funcs=present:2 count_max_decisions=5000", "",
     "f99190fbfecf0e7e c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 8f4ff6db759264bc"},
    {"funcs=present:2 max_survivors=99", "",
     "9b158f25998b9876 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 18b2d169013865a4"},
    {"funcs=present:2 enum_survivors=0", "",
     "4b40b635c8671ff1 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 1337593d42568ced"},
    {"funcs=present:2 preprocess=0", "",
     "a5e57d143e55f7eb c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 4010e5aa549d9fab"},
    {"funcs=present:2 shared_miter=0", "",
     "b9e0d5b12e4418ed c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 f89627cb7f7c1ca1"},
    {"funcs=present:2 canonical_inputs=1", "",
     "ee5dd75910703d81 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 064debd27e016f3d"},
    {"funcs=present:2 query_budget=64", "",
     "3cd854513eb38e74 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 67ee9aedf23068a6"},
    {"funcs=present:2 oracle_noise=0.05", "",
     "bf7ae6a9f530b6ec c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 25e3417a31d1adce"},
    {"funcs=present:2 oracle_cache=1", "",
     "c5c6733b80188dd7 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 e4b2e1ee3203c05f"},
    {"funcs=present:2 save_transcript=t.json", "",
     "24ec6db464e6ba1a - - - - -"},
    {"funcs=present:2 replay_transcript=t.json", "",
     "07d9bb8bef7092da - - - - -"},
    {"funcs=present:2 attack=cegar emit_proof=p.json", "",
     "64eebdddf527beba - - - - -"},
    {"funcs=present:2 random_warmup=32", "",
     "61b3323f7f467629 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 1a4b9bcb2e59d515"},
    {"funcs=present:2 random_queries=64", "",
     "c924d3e9e996b725 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 375cae548b1cb049"},
    {"funcs=present:2 metrics=1", "",
     "dd169df2a45c5d57 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 cb130eb863c8a2df"},
    {"funcs=present:2", "elim_occ=16",
     "5896dcd08ac27e70 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 faa175e85572d41a"},
    {"funcs=present:2", "elim_growth=4",
     "2ab0bdca69b5eb5e c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 0684dec1c10e9a1c"},
    {"funcs=present:2", "map.cut_max_leaves=3",
     "9375bfe8d7113771 0e2152094d2da3bb ace02dedbdcb86f2 14cfd82b3db3343c 14cfd82b3db3343c 0c19a53be005076d"},
    {"funcs=present:2", "map.cut_max_cuts_per_node=6",
     "6a9f9f289d09896c 6ff15dd0fea23b40 d3e08f3b66671d79 945cf8f3c48fef73 945cf8f3c48fef73 1e264b059419e14e"},
    {"funcs=present:2", "map.cut_include_trivial=0",
     "deb333127c64c077 ff0e4e499b72b809 6e610a4f71feb49e 16365ea71630421c 16365ea71630421c 949653879ac78d7f"},
    {"funcs=present:2", "map.recovery_iterations=2",
     "7b4541a156cc4429 99a18b4b467928e3 20b7f8b213e680f2 3fd35b1081822fcc 3fd35b1081822fcc 94588e32f22e8f15"},
    {"funcs=present:2", "attack.oracle.max_iterations=7",
     "365c79a9c857d571 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 6ec641cfe26fb16d"},
    {"funcs=present:2", "attack.oracle.warmup_seed=9",
     "7f4f99ddd3b56cb2 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 a64d6f92939edf08"},
    {"funcs=present:2", "attack.oracle.solver.elim_resolvent_limit=12",
     "fcea36c7d4294415 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 1a54087367d57e39"},
    {"funcs=present:2", "attack.oracle.solver.max_rounds=2",
     "e60db7655d37f974 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 5ea30238b993b1a6"},
    {"funcs=present:2", "attack.oracle.solver.inprocess_growth=1.5",
     "ae2ae388c05ff254 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 992a082d61a32486"},
    {"funcs=present:2", "attack.oracle_model.noise_seed=3",
     "93df14e7659fb77c c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 0a7cee61ca26841e"},
    {"funcs=present:2", "ga.crossover_prob=0.5",
     "0b25b89b4dff2448 f7f1ecd51d868ce4 d20374e5b7c9fbd9 d5f0ecd6f48f4b33 d5f0ecd6f48f4b33 4b101c1a4a33ff42"},
    {"funcs=present:2", "ga.mutation_prob=0.5",
     "3f91a9c9bf682f78 db930b5241de7194 e307260aca2b1c2f 13c3414fdbfec1bd 13c3414fdbfec1bd 3087aa47b35fd172"},
    {"funcs=present:2", "ga.tournament_size=4",
     "9ef3e1ad0fb13fb9 2accbfb454778d73 59534aa9d8af02aa 24ef2b553d052064 24ef2b553d052064 958c1bbbfcea1ce5"},
    {"funcs=present:2", "ga.elite=3",
     "fec9c5af53392c7b 9a14cdd90d400e85 5f43a754671b58d0 bbfd84fb07894926 bbfd84fb07894926 652f0d08ae3cccfb"},
    {"funcs=present:2", "fitness_effort=high",
     "443c1fe37dc890e0 48dd95609444bb2c 7f9d8d4b29323ccd 2e43ef6c3a9c9f6f 2e43ef6c3a9c9f6f 69d7ae7ec57be60a"},
    {"funcs=present:2", "fitness_build=shared-extract",
     "1d1ff1063296098f a5031b00f2a40351 18345a6d22d2ddb4 a122d4e26925afba a122d4e26925afba b5d9ffb4611ad267"},
    {"funcs=present:2", "random_count=10",
     "a941102a3de80779 217d183bd75f0063 35abc555ac289a12 2ee56db478c524d0 2ee56db478c524d0 b001578b229b8e25"},
    {"funcs=present:2", "final_effort=high",
     "13d3c8a4e2ef195f c1a76688cfc4e2a6 bbdd4ee1016f800a 1409b454ce7641c4 1409b454ce7641c4 67ec3a13f8a97337"},
    {"funcs=present:2", "camo.subtree_max_depth=2",
     "65646598319b5549 c1a76688cfc4e2a6 592dfe538565796f 6827c858e4f5ffb8 6827c858e4f5ffb8 718d722e8e1634b5"},
    {"funcs=present:2", "camo.subtree_max_signal_leaves=3",
     "0d96ae34236fb123 c1a76688cfc4e2a6 592dfe538565796f be1e1e87962f7dee be1e1e87962f7dee 53a9f808a2eb0c93"},
    {"funcs=present:2", "camo.subtree_max_candidates=64",
     "8b7b70b63f21cfb1 c1a76688cfc4e2a6 592dfe538565796f 2e9705a7174ebba2 2e9705a7174ebba2 559a33aa5392402d"},
    {"circuit=@", "",
     "67260d99720a7924 beaef8af1a320615 30097c906b6f0f6e c21161166fb15070"},
    {"circuit=@ camo_density=0.25", "",
     "130a4616d6dc5e03 beaef8af1a320615 2ff71a24ec85c991 b7cfbc3a0e6f507d"},
    {"circuit=@ camo_cells=3", "",
     "cdadca634f84cc45 beaef8af1a320615 14941faf811f574d 985131d466d0fd4b"},
    {"circuit=@ camo_seed=11", "",
     "5fa4554cd9d82f2a beaef8af1a320615 35422219e63965a6 d9442ea731fceb22"},
    {"circuit=@ camo_policy=fanout", "",
     "a9da74cbf1d35cc8 beaef8af1a320615 a082e2a17c07761e 57db6a84ce2dd85c"},
    {"circuit=/nonexistent/mvf-golden/d.blif", "",
     "446e9352ce8075ae 5a6cc440f7775383 c5ad362cb6348476 11dfddc24486302e"},
    {"circuit=@ name=golden", "",
     "67260d99720a7924 beaef8af1a320615 30097c906b6f0f6e c21161166fb15070"},
    {"circuit=@ seed=42", "",
     "6a5eefbcd6ba232f beaef8af1a320615 30097c906b6f0f6e c21161166fb15070"},
    {"circuit=@ camo=0", "",
     "43ae6c55176e9b37 beaef8af1a320615 30097c906b6f0f6e a423fef9add5e229"},
    {"circuit=@ attack=cegar", "",
     "8b24d1d71521bec4 beaef8af1a320615 30097c906b6f0f6e ac7f69f5a9cd7010"},
    {"circuit=@ attack=none", "",
     "67260d99720a7924 beaef8af1a320615 30097c906b6f0f6e c21161166fb15070"},
    {"circuit=@ count_mode=enumerate", "",
     "35dd6e0ff9ddb121 beaef8af1a320615 30097c906b6f0f6e e1bb2c8c95b6bdff"},
    {"circuit=@ count_cache_mb=16", "",
     "09e53a6f403a2e9f beaef8af1a320615 30097c906b6f0f6e ebf3cf15bc4a23a1"},
    {"circuit=@ count_max_decisions=5000", "",
     "fa5fcf94e0f8a060 beaef8af1a320615 30097c906b6f0f6e e527b7b72a9f1564"},
    {"circuit=@ max_survivors=99", "",
     "c7e1cddb60f39468 beaef8af1a320615 30097c906b6f0f6e e0396834ed146a7c"},
    {"circuit=@ enum_survivors=0", "",
     "ad25a8389ceaf80f beaef8af1a320615 30097c906b6f0f6e 2f1b90336827af91"},
    {"circuit=@ preprocess=0", "",
     "4898e4535488c5dd beaef8af1a320615 30097c906b6f0f6e f52f88fc2a4b5d33"},
    {"circuit=@ shared_miter=0", "",
     "6efcbd6591fe96c3 beaef8af1a320615 30097c906b6f0f6e 01ff6913898506bd"},
    {"circuit=@ canonical_inputs=1", "",
     "dbf76cdf69f4025f beaef8af1a320615 30097c906b6f0f6e d141e09273f70be1"},
    {"circuit=@ query_budget=64", "",
     "ca82c021bfd50732 beaef8af1a320615 30097c906b6f0f6e 41c448ce4d64491a"},
    {"circuit=@ oracle_noise=0.05", "",
     "fbdfbcf96fa0ff1a beaef8af1a320615 30097c906b6f0f6e 58aca24835edb212"},
    {"circuit=@ oracle_cache=1", "",
     "ad7fa92a9fca8941 beaef8af1a320615 30097c906b6f0f6e 971843db7355781f"},
    {"circuit=@ save_transcript=t.json", "",
     "67260d99720a7924 - - -"},
    {"circuit=@ replay_transcript=t.json", "",
     "c069b8e5cdc60ae4 - - -"},
    {"circuit=@ attack=cegar emit_proof=p.json", "",
     "8b24d1d71521bec4 - - -"},
    {"circuit=@ random_warmup=32", "",
     "1cb4464dfe12fd57 beaef8af1a320615 30097c906b6f0f6e 150ed95afe6395c9"},
    {"circuit=@ random_queries=64", "",
     "f600625743d19eeb beaef8af1a320615 30097c906b6f0f6e 9943eee249e247d5"},
    {"circuit=@ metrics=1", "",
     "b1617b151684e0c1 beaef8af1a320615 30097c906b6f0f6e 7abd04609bbab29f"},
    {"circuit=@", "elim_occ=16",
     "59ab923bc65b30d6 beaef8af1a320615 30097c906b6f0f6e 387499dd148061e6"},
    {"circuit=@", "elim_growth=4",
     "9448a0d515fd67c0 beaef8af1a320615 30097c906b6f0f6e 7ad95a4a0d560044"},
    {"circuit=@", "map.cut_max_leaves=3",
     "67723b7e70d64631 633760290bbeb0c2 cd11d05741689bb9 614bda1edb655a8f"},
    {"circuit=@", "map.cut_max_cuts_per_node=6",
     "15458e755744568e b0e9a304a12e9e63 2943805bebda153c a705ede6ade89c0e"},
    {"circuit=@", "map.cut_include_trivial=0",
     "d95bafa566cc99b1 fa11074bd6db8442 c8ee6d619178e33b f99364e5ba0e290f"},
    {"circuit=@", "map.recovery_iterations=2",
     "2e085e639234e6f9 f9e61e06996d771a 12e0c407eb437f69 e1e8de081c84a9a7"},
    {"circuit=@", "attack.oracle.max_iterations=7",
     "6be96dd6f1b9d58f beaef8af1a320615 30097c906b6f0f6e bf709522664f0c11"},
    {"circuit=@", "attack.oracle.warmup_seed=9",
     "0a26bab1312c79cc beaef8af1a320615 30097c906b6f0f6e 3f1065b0470844a8"},
    {"circuit=@", "attack.oracle.solver.elim_resolvent_limit=12",
     "b409c4b21757f29b beaef8af1a320615 30097c906b6f0f6e e8024d594c2d1c45"},
    {"circuit=@", "attack.oracle.solver.max_rounds=2",
     "4c618429e8e5c232 beaef8af1a320615 30097c906b6f0f6e 43b9f0a846d4021a"},
    {"circuit=@", "attack.oracle.solver.inprocess_growth=1.5",
     "5f1bbd1eda253712 beaef8af1a320615 30097c906b6f0f6e cdbacec24adf457a"},
    {"circuit=@", "attack.oracle_model.noise_seed=3",
     "a92a21bbd9b2c86a beaef8af1a320615 30097c906b6f0f6e 71414d7cc1655de2"},
};

TEST(ScenarioKeys, HashesMatchTheGoldenLiterals) {
    for (const Golden& g : kGolden) {
        Scenario s = parse_scenario_spec(with_file(g.spec)).at(0);
        const std::string api = g.api;
        if (!api.empty()) {
            const std::size_t eq = api.find('=');
            row(api.substr(0, eq)).set(s, api.substr(eq + 1));
        }
        std::istringstream expected(g.hashes);
        std::string hash;
        expected >> hash;
        EXPECT_EQ(spec_hash(s), hash) << g.spec << " " << api;
        const bool circuit = !s.params.circuit.path.empty();
        for (const std::string_view stage : stages_of(circuit)) {
            expected >> hash;
            const std::string want =
                hash == "-" ? "" : hash + ":s" + std::to_string(s.params.seed) +
                                       ":" + std::string(stage);
            EXPECT_EQ(stage_cache_key(s, stage), want)
                << g.spec << " " << api << " @" << stage;
        }
        EXPECT_FALSE(expected >> hash) << "extra literal for " << g.spec;
    }
}

// ------------------------------------------------------- the rows' samples --

struct Sample {
    const char* value;      ///< a non-default value
    const char* companion;  ///< spec tokens the value needs ("" = none)
};

/// One sample per row, by id.  A row missing here fails every test below.
const std::map<std::string, Sample> kSamples = {
    {"name", {"golden", ""}},
    {"funcs", {"des:3", ""}},
    {"circuit", {"/nonexistent/mvf-golden/d.blif", ""}},
    {"camo_density", {"0.25", ""}},
    {"camo_cells", {"3", ""}},
    {"camo_seed", {"11", ""}},
    {"camo_policy", {"fanout", ""}},
    {"seed", {"42", ""}},
    {"population", {"9", ""}},
    {"generations", {"5", ""}},
    {"baseline", {"0", ""}},
    {"final_best", {"0", ""}},
    {"camo", {"0", ""}},
    {"verify", {"0", ""}},
    {"attack", {"cegar,random-sampling", ""}},
    {"count_mode", {"enumerate", ""}},
    {"count_cache_mb", {"16", ""}},
    {"count_max_decisions", {"5000", ""}},
    {"max_survivors", {"99", ""}},
    {"enum_survivors", {"0", ""}},
    {"preprocess", {"0", ""}},
    {"shared_miter", {"0", ""}},
    {"canonical_inputs", {"1", ""}},
    {"elim_occ", {"16", ""}},
    {"elim_growth", {"4", ""}},
    {"query_budget", {"64", ""}},
    {"oracle_noise", {"0.05", ""}},
    {"oracle_cache", {"1", ""}},
    {"save_transcript", {"t.json", ""}},
    {"replay_transcript", {"t.json", ""}},
    {"emit_proof", {"p.json", "attack=cegar"}},
    {"random_warmup", {"32", ""}},
    {"random_queries", {"64", ""}},
    {"metrics", {"1", ""}},
    {"ga.crossover_prob", {"0.5", ""}},
    {"ga.mutation_prob", {"0.5", ""}},
    {"ga.tournament_size", {"4", ""}},
    {"ga.elite", {"3", ""}},
    {"fitness_effort", {"high", ""}},
    {"fitness_build", {"shared-extract", ""}},
    {"map.cut_max_leaves", {"3", ""}},
    {"map.cut_max_cuts_per_node", {"6", ""}},
    {"map.cut_include_trivial", {"0", ""}},
    {"map.recovery_iterations", {"2", ""}},
    {"random_count", {"10", ""}},
    {"final_effort", {"high", ""}},
    {"camo.subtree_max_depth", {"2", ""}},
    {"camo.subtree_max_signal_leaves", {"3", ""}},
    {"camo.subtree_max_candidates", {"64", ""}},
    {"attack.oracle.max_iterations", {"7", ""}},
    {"attack.oracle.warmup_seed", {"9", ""}},
    {"attack.oracle.solver.elim_resolvent_limit", {"12", ""}},
    {"attack.oracle.solver.max_rounds", {"2", ""}},
    {"attack.oracle.solver.inprocess_growth", {"1.5", ""}},
    {"attack.oracle_model.noise_seed", {"3", ""}},
};

const Sample& sample(const ScenarioKey& k) {
    const auto it = kSamples.find(id(k));
    if (it == kSamples.end()) {
        throw std::invalid_argument("no sample value for row " + id(k));
    }
    return it->second;
}

std::string base_line(bool circuit) {
    return circuit ? std::string("circuit=") + kNoFile : "funcs=present:2";
}

/// The command-line form of a spec line: key=value -> --key value, a bool
/// as --key / --no-key; a token without '=' stays as it is.
std::vector<std::string> to_argv(const std::string& line) {
    std::vector<std::string> argv;
    std::istringstream tokens(line);
    for (std::string token; tokens >> token;) {
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos) {
            argv.push_back(token);
            continue;
        }
        std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        bool is_bool = false;
        for (const ScenarioKey& k : scenario_keys()) {
            if (k.key.empty()) continue;
            std::vector<std::string> names = k.aliases;
            names.push_back(k.key);
            for (const std::string& n : names) {
                if (n == key) is_bool = k.is_bool;
            }
        }
        std::replace(key.begin(), key.end(), '_', '-');
        if (is_bool && (value == "1" || value == "true")) {
            argv.push_back("--" + key);
        } else if (is_bool && (value == "0" || value == "false")) {
            argv.push_back("--no-" + key);
        } else {
            argv.push_back("--" + key);
            argv.push_back(value);
        }
    }
    return argv;
}

/// What `mvf run` does with scenario flags, minus the process flags.
Scenario parse_argv(const std::vector<std::string>& args) {
    std::vector<const char*> argv;
    for (const std::string& a : args) argv.push_back(a.c_str());
    ScenarioDraft draft(ScenarioDraft::Front::kCli);
    const int argc = static_cast<int>(argv.size());
    for (int i = 0; i < argc; ++i) {
        if (!draft.set_flag(argc, argv.data(), &i)) {
            throw std::invalid_argument("unknown option " + args[i]);
        }
    }
    return std::move(draft).finish();
}

void expect_same(const Scenario& a, const Scenario& b,
                 const std::string& what) {
    EXPECT_EQ(canonical_spec_json(a).dump(), canonical_spec_json(b).dump())
        << what;
    EXPECT_EQ(a.name, b.name) << what;
    EXPECT_EQ(a.params.circuit.path, b.params.circuit.path) << what;
    EXPECT_EQ(a.params.save_transcript, b.params.save_transcript) << what;
    EXPECT_EQ(a.params.replay_transcript, b.params.replay_transcript) << what;
    EXPECT_EQ(a.params.emit_proof, b.params.emit_proof) << what;
}

TEST(ScenarioKeys, RowsHaveSamplesHelpAndDistinctPaths) {
    const std::string help = scenario_help();
    std::map<std::string, int> ids;
    for (const ScenarioKey& k : scenario_keys()) {
        EXPECT_NO_THROW(sample(k)) << id(k);
        EXPECT_EQ(k.help.empty(), k.key.empty()) << id(k);
        EXPECT_NE(help.find(k.help), std::string::npos) << id(k);
        // Two rows on one canonical path would hash one of them twice and
        // the other not at all.
        EXPECT_EQ(++ids[id(k)], 1) << id(k);
        if (!k.owner.path.empty()) {
            std::string path;
            for (const std::string& part : k.owner.path) path += "." + part;
            EXPECT_EQ(++ids[path], 1) << id(k);
        }
    }
}

TEST(ScenarioKeys, CliAndSpecSpellingsAgree) {
    for (const ScenarioKey& k : scenario_keys()) {
        if (k.key.empty()) continue;
        const Sample& s = sample(k);
        std::vector<std::string> names = k.aliases;
        names.insert(names.begin(), k.key);
        for (const bool circuit : {false, true}) {
            if (!applies_to(k, circuit)) continue;
            for (const std::string& name : names) {
                const std::string line = base_line(circuit) + " " +
                                         s.companion + " " + name + "=" +
                                         s.value;
                const Scenario spec = parse_scenario_spec(line).at(0);
                // Each spelling reaches this row, not one that shadows it.
                ScenarioDraft draft(ScenarioDraft::Front::kSpec);
                draft.set_spec(name, s.value);
                EXPECT_TRUE(draft.given(k.key)) << name;
                if (!k.cli) continue;
                expect_same(spec, parse_argv(to_argv(line)), line);
                std::string flag = "--" + name;
                std::replace(flag.begin(), flag.end(), '_', '-');
                std::vector<std::string> flags = {flag};
                if (k.is_bool) flags.push_back("--no-" + flag.substr(2));
                for (const std::string& spelling : flags) {
                    const std::vector<const char*> argv = {spelling.c_str(),
                                                           s.value};
                    int i = 0;
                    ScenarioDraft cli(ScenarioDraft::Front::kCli);
                    EXPECT_TRUE(cli.set_flag(2, argv.data(), &i)) << spelling;
                    EXPECT_TRUE(cli.given(k.key)) << spelling;
                }
            }
        }
    }
}

TEST(ScenarioKeys, EachRowChangesExactlyTheStagesFromItsOwner) {
    for (const ScenarioKey& k : scenario_keys()) {
        const Sample& s = sample(k);
        for (const bool circuit : {false, true}) {
            if (!applies_to(k, circuit)) continue;
            const Scenario base =
                parse_scenario_spec(base_line(circuit) + " " + s.companion)
                    .at(0);
            Scenario changed = base;
            k.set(changed, s.value);
            const int owner =
                circuit ? k.owner.circuit_stage : k.owner.sbox_stage;
            const std::vector<std::string_view> stages = stages_of(circuit);
            for (std::size_t i = 0; i < stages.size(); ++i) {
                const std::string before = stage_cache_key(base, stages[i]);
                const std::string after = stage_cache_key(changed, stages[i]);
                const std::string what = id(k) + " @" + std::string(stages[i]);
                ASSERT_FALSE(before.empty()) << what;
                if (k.owner.makes_uncacheable) {
                    EXPECT_EQ(after, "") << what;
                } else if (hashed(k) && static_cast<int>(i) >= owner) {
                    EXPECT_NE(after, before) << what;
                } else {
                    EXPECT_EQ(after, before) << what;
                }
            }
            EXPECT_EQ(spec_hash(changed) != spec_hash(base), hashed(k))
                << id(k);
        }
    }
}

// ---------------------------------------------------------- rejections --

TEST(ScenarioKeys, BothFrontEndsRejectTheNegativeCorpus) {
    const char* bad[] = {
        // The spec tests of test_pipeline.
        "bogus",
        "funcs=present",
        "color=red",
        "camo=maybe",
        "count_mode=banana",
        "funcs=present:2 count_mode=exact max_survivors=5",
        "funcs=present:2 count_mode=enumerate count_cache_mb=8",
        "funcs=present:2 max_survivors=5 count_cache_mb=8",
        "funcs=present:2 max_survivors=5 count_max_decisions=8",
        "funcs=present:2 enum_survivors=0 count_mode=exact",
        "funcs=present:2 enum_survivors=0 max_survivors=5",
        "funcs=present:2 count_mode=exact count_cache_mb=0",
        "funcs=present:2 replay_transcript=t.json oracle_noise=0.1",
        "funcs=present:2 replay_transcript=t.json oracle_cache=1",
        "funcs=present:2 query_budget=0",
        "funcs=present:2 oracle_noise=1.0",
        "funcs=present:2 oracle_noise=-0.5",
        "funcs=present:2 random_warmup=-1",
        "funcs=present:2 random_queries=0",
        // An empty GA population crashed run_ga; a negative one threw a
        // std::length_error from std::vector.
        "funcs=present:2 population=0",
        "funcs=present:2 population=-3",
        "funcs=present:2 attack=cegar emit_proof=p.json "
        "replay_transcript=t.json",
        // CircuitSpec.ContradictionsAreRejected.
        "circuit=a.blif funcs=present:2",
        "funcs=present:2 camo_density=0.5",
        "circuit=a.blif population=8",
        "circuit=a.blif generations=4",
        "circuit=a.blif baseline=1",
        "circuit=a.blif verify=1",
        "circuit=a.blif final_best=0",
        "circuit=a.blif camo_density=0.5 camo_cells=2",
        "circuit=a.blif attack=plausibility",
        "circuit=a.blif camo_density=1.5",
        "circuit=a.blif camo_density=0",
        "circuit=a.blif camo_cells=0",
        "circuit=a.blif camo_policy=bogus",
        "circuit=",
        // Unsigned keys read digits only: -1 used to wrap to 2^64 - 1.
        "funcs=present:2 seed=-1",
        "circuit=a.blif camo_seed=-1",
        "funcs=present:2 max_survivors=-1",
        "funcs=present:2 count_max_decisions=-1",
        "funcs=present:2 query_budget=-1",
        // Holes the command line used to have.
        "funcs=present:2 seed=abc",
        "funcs=present:2x",
        // emit_proof needs cegar in the final panel.
        "funcs=present:2 emit_proof=p.json",
        "funcs=present:2 attack=plausibility emit_proof=p.json",
        "funcs=present:2 attack=none emit_proof=p.json",
        // Removed keys: the portfolio CEGAR and the neighbourhood queries.
        "funcs=present:2 portfolio=2",
        "funcs=present:2 neighborhood_queries=4",
        "circuit=a.blif portfolio=2",
        // Removed approximate counting: its mode and its two knobs.
        "funcs=present:2 count_mode=approx",
        "funcs=present:2 epsilon=0.5",
        "funcs=present:2 delta=0.1",
        "funcs=present:2 count_mode=approx epsilon=0.5 delta=0.1",
        "circuit=a.blif count_mode=approx",
        // Removed parallel counting: the cube workers and the cube width
        // (--attack-threads 4 and --cube-vars 3 on the command line).
        "funcs=present:2 attack_threads=4",
        "funcs=present:2 cube_vars=3",
    };
    for (const char* text : bad) {
        EXPECT_THROW(parse_scenario_spec(text), std::invalid_argument) << text;
        EXPECT_THROW(parse_argv(to_argv(text)), std::invalid_argument) << text;
    }
    // A flag that needs a value and has none.
    EXPECT_THROW(parse_argv({"--seed"}), std::invalid_argument);
    // Bool flags take no value; the negated form exists only for bools.
    EXPECT_THROW(parse_argv({"--no-population", "8"}), std::invalid_argument);
    // metrics is a spec key only: the process flag --metrics covers it.
    EXPECT_FALSE(is_scenario_flag("--metrics"));
    EXPECT_TRUE(is_scenario_flag("--no-enumerate"));
}

TEST(ScenarioKeys, UnsignedRowsAcceptDigitsInBothFrontEnds) {
    for (const char* key : {"seed", "camo_seed", "max_survivors",
                            "count_max_decisions", "query_budget"}) {
        const ScenarioKey& k = row(key);
        const bool circuit = !applies_to(k, false);
        const std::string line = base_line(circuit) + " " + key + "=17";
        const Scenario spec = parse_scenario_spec(line).at(0);
        expect_same(spec, parse_argv(to_argv(line)), line);
        EXPECT_EQ(k.get(spec).as_uint(), 17u) << key;
        for (const char* junk :
             {"-1", "+1", "1x", "", "18446744073709551616"}) {
            Scenario s;
            EXPECT_THROW(k.set(s, junk), std::invalid_argument)
                << key << "=" << junk;
        }
    }
}

}  // namespace
}  // namespace mvf::flow
