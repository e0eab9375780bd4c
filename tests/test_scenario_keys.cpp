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
// run_oracle_attack leaves left the canonical form, and again when the
// epsilon, delta and count_seed leaves did; no pre-attack column changed.
const Golden kGolden[] = {
    {"name=audit-present2 funcs=present:2 seed=3 population=8 generations=3 attack=cegar max_survivors=64 random_warmup=8 emit_proof=audit-proof.json", "",
     "1f8f88787a0a1fae - - - - -"},
    {"name=c17-bench circuit=@ seed=1 camo_density=0.4 attack=cegar,random-sampling", "",
     "cf53202e9295d36c beaef8af1a320615 da71bc9be3542304 14ed567afe64a248"},
    {"name=c17-blif circuit=@ seed=1 camo_density=0.4 attack=cegar", "",
     "e5c7bed68ced3505 beaef8af1a320615 da71bc9be3542304 821aea2dd7cf718b"},
    {"name=rca4 circuit=@ seed=2 camo_cells=3 camo_policy=fanout attack=cegar max_survivors=256", "",
     "b313e141b4a2280c beaef8af1a320615 810981beddf307c1 686a18a70de8b279"},
    {"name=maj3 circuit=@ seed=3 camo_density=1.0 camo_seed=7 camo_policy=depth attack=cegar count_mode=exact", "",
     "f2feee901f502bdf beaef8af1a320615 23cf1f67af4e344c 467f3f787192a607"},
    {"name=smoke-present2 funcs=present:2 seed=1 population=8 generations=3 attack=cegar,plausibility max_survivors=64 oracle_cache=1 random_warmup=8", "",
     "34d77516f519376c deafce9886ee5f6f 4204d2331224b30a 2643672ffb54a628 2643672ffb54a628 efe85bc065f93b4e"},
    {"name=smoke-des2 funcs=des:2 seed=2 population=6 generations=2 attack=plausibility", "",
     "fb21d4b39f892c0a b60f279006147377 3c9b1c0375447754 a09fd09d5d3b0f8e a09fd09d5d3b0f8e 9a8b91a799609f05"},
    {"funcs=present:2 seed=1 population=6 generations=3 attack=cegar max_survivors=128", "",
     "0778ca6cfb31d24d 8dee510af0fba035 246ef7a18f4557a4 cadafcf60add21e6 cadafcf60add21e6 d4abc56a78fd0d81"},
    {"funcs=present:2 seed=2 population=6 generations=3 attack=cegar max_survivors=128", "",
     "a612629da39c03ce 8dee510af0fba035 246ef7a18f4557a4 cadafcf60add21e6 cadafcf60add21e6 d4abc56a78fd0d81"},
    {"funcs=present:2 seed=3 population=6 generations=3 attack=cegar max_survivors=128", "",
     "dd6337dd9c57b0d7 8dee510af0fba035 246ef7a18f4557a4 cadafcf60add21e6 cadafcf60add21e6 d4abc56a78fd0d81"},
    {"funcs=present:4 seed=1 population=6 generations=3 attack=cegar max_survivors=128", "",
     "f432a2d5ff496293 93a4f59fd811cd37 cb3cb4ebb12055e6 240d3fabe90223a4 240d3fabe90223a4 8d56bed357e69543"},
    {"funcs=present:4 seed=2 population=6 generations=3 attack=cegar max_survivors=128", "",
     "d28270d46a8f99d0 93a4f59fd811cd37 cb3cb4ebb12055e6 240d3fabe90223a4 240d3fabe90223a4 8d56bed357e69543"},
    {"funcs=present:4 seed=3 population=6 generations=3 attack=cegar max_survivors=128", "",
     "9b5c63777123ce99 93a4f59fd811cd37 cb3cb4ebb12055e6 240d3fabe90223a4 240d3fabe90223a4 8d56bed357e69543"},
    {"funcs=present:8 seed=1 population=6 generations=3 attack=cegar max_survivors=128", "",
     "81326ef7643d1237 8fb074bae39ee42b 7e5001e6cf88d402 d5bb574c8a1271c8 d5bb574c8a1271c8 32edcd9281f689bf"},
    {"funcs=present:8 seed=2 population=6 generations=3 attack=cegar max_survivors=128", "",
     "857f524e0a118aa4 8fb074bae39ee42b 7e5001e6cf88d402 d5bb574c8a1271c8 d5bb574c8a1271c8 32edcd9281f689bf"},
    {"name=p2s5 funcs=present:2 seed=5 population=6 generations=2 attack=plausibility", "",
     "4ce844fe85851e3c c42f7c71b796591a 070654412f85d747 0641fce2f1d139d1 0641fce2f1d139d1 3a21261caad92eca"},
    {"name=p2s5 funcs=present:2 seed=5 population=6 generations=2 attack=plausibility query_budget=1000", "",
     "199c9a23fdf226c3 c42f7c71b796591a 070654412f85d747 0641fce2f1d139d1 0641fce2f1d139d1 b45e1a5f143a4aa7"},
    {"funcs=present:2", "",
     "cb8c297307afb339 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 24b782575aee4b65"},
    {"funcs=present:2 funcs=des:3", "",
     "4944ba55e25a641b 223649524aee5b52 c47e925975f90be1 3a1793c1870cd4df 3a1793c1870cd4df 0e9e9fc0f49ace1b"},
    {"funcs=present:2 population=9", "",
     "574693295720489a fa183f204c72fd8d 807f1ec6a442d602 81ed78212bc75b3c 81ed78212bc75b3c 9e61d457700e92a0"},
    {"funcs=present:2 pop=9", "",
     "574693295720489a fa183f204c72fd8d 807f1ec6a442d602 81ed78212bc75b3c 81ed78212bc75b3c 9e61d457700e92a0"},
    {"funcs=present:2 generations=5", "",
     "b926ce00b9791fec 51724ada9c0ccdef 1aad73ff7eb2f7c4 6b916dd720ce85ba 6b916dd720ce85ba e92efc74b258c0ce"},
    {"funcs=present:2 gens=5", "",
     "b926ce00b9791fec 51724ada9c0ccdef 1aad73ff7eb2f7c4 6b916dd720ce85ba 6b916dd720ce85ba e92efc74b258c0ce"},
    {"funcs=present:2 baseline=0", "",
     "536728ca5eb133ea 23384929cc75121f f0a22a3af75561d0 a46e8c80ec3fa47e a46e8c80ec3fa47e 6b7f0835cc7cf370"},
    {"funcs=present:2 final_best=0", "",
     "cbcf1829b3d0d67a c1a76688cfc4e2a6 cd93f1a7d771a0aa 687c26309a62e2a8 687c26309a62e2a8 68d2af56c0ac9a80"},
    {"funcs=present:2 verify=0", "",
     "42adc999cd99fb0c c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 1a74f3134126e090"},
    {"funcs=present:2 name=golden", "",
     "cb8c297307afb339 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 24b782575aee4b65"},
    {"funcs=present:2 seed=42", "",
     "c094e963cb81c9fa c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 24b782575aee4b65"},
    {"funcs=present:2 camo=0", "",
     "d718d06b7fe2b13a c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 f4813c4f6b5893c0"},
    {"funcs=present:2 attack=cegar", "",
     "b0220e4db12cbc59 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 c8f76ab9fe3fce85"},
    {"funcs=present:2 attack=none", "",
     "cb8c297307afb339 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 24b782575aee4b65"},
    {"funcs=present:2 count_mode=enumerate", "",
     "ef66ee5fff404dcc c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 8e272fa83276472e"},
    {"funcs=present:2 count_cache_mb=16", "",
     "f4fb1991a1ef8186 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 75b08a616640d4f4"},
    {"funcs=present:2 count_max_decisions=5000", "",
     "b5417840bbedf12d c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 38efcea7bcf5cd61"},
    {"funcs=present:2 max_survivors=99", "",
     "ba54c0b8b4f15943 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 178a562abd9fa6b3"},
    {"funcs=present:2 enum_survivors=0", "",
     "f1235994dcfde8b8 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 e2eefe0e603adc32"},
    {"funcs=present:2 preprocess=0", "",
     "1ea6b23c5e68c776 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 729762394c085aa4"},
    {"funcs=present:2 shared_miter=0", "",
     "8fd74db90631fb88 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 9e5626e0f22ca302"},
    {"funcs=present:2 canonical_inputs=1", "",
     "92688557e8b647f4 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 c150910eef3ff926"},
    {"funcs=present:2 attack_threads=4", "",
     "13f63a4c644825ea c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 40b9787cbdb07970"},
    {"funcs=present:2 cube_vars=3", "",
     "6cd3c661350d25a6 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 45dc37057abf3e14"},
    {"funcs=present:2 query_budget=64", "",
     "ee4a41b897edbde9 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 6b1b558949a61355"},
    {"funcs=present:2 oracle_noise=0.05", "",
     "fee73108a8a0c35d c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 63532ad1f84af691"},
    {"funcs=present:2 oracle_cache=1", "",
     "2d0801eb6ce7b89a c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 d021448da5d762a0"},
    {"funcs=present:2 save_transcript=t.json", "",
     "cb8c297307afb339 - - - - -"},
    {"funcs=present:2 replay_transcript=t.json", "",
     "642cfaaff52b0cd9 - - - - -"},
    {"funcs=present:2 attack=cegar emit_proof=p.json", "",
     "b0220e4db12cbc59 - - - - -"},
    {"funcs=present:2 random_warmup=32", "",
     "4f182533464b1e34 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 4f9144829902bae6"},
    {"funcs=present:2 random_queries=64", "",
     "4d45943e6627860c c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 b50fc6fcbc118eee"},
    {"funcs=present:2 metrics=1", "",
     "e85f4f8774c8f3ca c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 899a9ddd0bda74d0"},
    {"funcs=present:2", "elim_occ=16",
     "41dad70bcb9c8db7 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 dd0d6d61ad56903f"},
    {"funcs=present:2", "elim_growth=4",
     "3e9dd3148f9d9a1d c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 5f6c15d2caecbed1"},
    {"funcs=present:2", "map.cut_max_leaves=3",
     "dc661490b2110b62 0e2152094d2da3bb ace02dedbdcb86f2 14cfd82b3db3343c 14cfd82b3db3343c ca2a03e9adf0fdb8"},
    {"funcs=present:2", "map.cut_max_cuts_per_node=6",
     "3d30ca42aa2e5f4b 6ff15dd0fea23b40 d3e08f3b66671d79 945cf8f3c48fef73 945cf8f3c48fef73 6fe24e1e6a0bec0b"},
    {"funcs=present:2", "map.cut_include_trivial=0",
     "65a227451f81d006 ff0e4e499b72b809 6e610a4f71feb49e 16365ea71630421c 16365ea71630421c 8649fb1274091c74"},
    {"funcs=present:2", "map.recovery_iterations=2",
     "47d985fb0d53336a 99a18b4b467928e3 20b7f8b213e680f2 3fd35b1081822fcc 3fd35b1081822fcc 3df4807c4af0e5f0"},
    {"funcs=present:2", "attack.oracle.max_iterations=7",
     "d90c4a95285c0c22 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 77da6d2311b4aaf8"},
    {"funcs=present:2", "attack.oracle.warmup_seed=9",
     "3088c863cc1c6481 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 00ab394482858c3d"},
    {"funcs=present:2", "attack.oracle.solver.elim_resolvent_limit=12",
     "a1bfc97eb5c94f2a c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 858200cbb41a8130"},
    {"funcs=present:2", "attack.oracle.solver.max_rounds=2",
     "605798ed289812ff c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 7f9ba8e4d4004157"},
    {"funcs=present:2", "attack.oracle.solver.inprocess_growth=1.5",
     "f7432b3d73fac36b c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 772de0db7a8d162b"},
    {"funcs=present:2", "attack.oracle_model.noise_seed=3",
     "2d45707df5a0ff4b c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 1990905d71a2cc0b"},
    {"funcs=present:2", "ga.crossover_prob=0.5",
     "f1ac6ab05e8f920b f7f1ecd51d868ce4 d20374e5b7c9fbd9 d5f0ecd6f48f4b33 d5f0ecd6f48f4b33 866675c24cc7e44b"},
    {"funcs=present:2", "ga.mutation_prob=0.5",
     "0e832a56d90464a1 db930b5241de7194 e307260aca2b1c2f 13c3414fdbfec1bd 13c3414fdbfec1bd a019bc2a599d7e5d"},
    {"funcs=present:2", "ga.tournament_size=4",
     "5184b57a5ce52d9a 2accbfb454778d73 59534aa9d8af02aa 24ef2b553d052064 24ef2b553d052064 f72e9a64c5a6b9a0"},
    {"funcs=present:2", "ga.elite=3",
     "6ab62837b6186908 9a14cdd90d400e85 5f43a754671b58d0 bbfd84fb07894926 bbfd84fb07894926 3a26fdadde102f82"},
    {"funcs=present:2", "fitness_effort=high",
     "be5ef89ce7c295f7 48dd95609444bb2c 7f9d8d4b29323ccd 2e43ef6c3a9c9f6f 2e43ef6c3a9c9f6f f905e872abe311ff"},
    {"funcs=present:2", "fitness_build=shared-extract",
     "772228e8c3ab006c a5031b00f2a40351 18345a6d22d2ddb4 a122d4e26925afba a122d4e26925afba d3afa098d9bd6e4e"},
    {"funcs=present:2", "random_count=10",
     "a5cfdfe8dd552af2 217d183bd75f0063 35abc555ac289a12 2ee56db478c524d0 2ee56db478c524d0 e1044787351c5ac8"},
    {"funcs=present:2", "final_effort=high",
     "602d115b2c6d1432 c1a76688cfc4e2a6 bbdd4ee1016f800a 1409b454ce7641c4 1409b454ce7641c4 9659c57aaafb8988"},
    {"funcs=present:2", "camo.subtree_max_depth=2",
     "4dea120102cd4d4a c1a76688cfc4e2a6 592dfe538565796f 6827c858e4f5ffb8 6827c858e4f5ffb8 e4c272c72395e550"},
    {"funcs=present:2", "camo.subtree_max_signal_leaves=3",
     "b1b344b2bf2fd30c c1a76688cfc4e2a6 592dfe538565796f be1e1e87962f7dee be1e1e87962f7dee 6c3637a36965adee"},
    {"funcs=present:2", "camo.subtree_max_candidates=64",
     "3ad40a4b9ebc1cc8 c1a76688cfc4e2a6 592dfe538565796f 2e9705a7174ebba2 2e9705a7174ebba2 13376acbaca434c2"},
    {"circuit=@", "",
     "634c102c153f7be7 beaef8af1a320615 30097c906b6f0f6e 987dc97649cbbd59"},
    {"circuit=@ camo_density=0.25", "",
     "e3839ee8e49402da beaef8af1a320615 2ff71a24ec85c991 38aebcc0717e4952"},
    {"circuit=@ camo_cells=3", "",
     "f1689fb0081ac702 beaef8af1a320615 14941faf811f574d 3c02e0d0223e61ea"},
    {"circuit=@ camo_seed=11", "",
     "195ec4316c62a96b beaef8af1a320615 35422219e63965a6 b623002826786355"},
    {"circuit=@ camo_policy=fanout", "",
     "42ba6d10f0077f9f beaef8af1a320615 a082e2a17c07761e 5d8191658975aea1"},
    {"circuit=/nonexistent/mvf-golden/d.blif", "",
     "d8d00ae9e011d3a3 5a6cc440f7775383 c5ad362cb6348476 7e0ecea33bf9cc1d"},
    {"circuit=@ name=golden", "",
     "634c102c153f7be7 beaef8af1a320615 30097c906b6f0f6e 987dc97649cbbd59"},
    {"circuit=@ seed=42", "",
     "22b7e1e8316ded5e beaef8af1a320615 30097c906b6f0f6e 987dc97649cbbd59"},
    {"circuit=@ camo=0", "",
     "c5520fa1856e6542 beaef8af1a320615 30097c906b6f0f6e 9468d91dc56732aa"},
    {"circuit=@ attack=cegar", "",
     "221fe3aee62b2b87 beaef8af1a320615 30097c906b6f0f6e 2ef2d2f6fb9cfa79"},
    {"circuit=@ attack=none", "",
     "634c102c153f7be7 beaef8af1a320615 30097c906b6f0f6e 987dc97649cbbd59"},
    {"circuit=@ count_mode=enumerate", "",
     "1b3ed9e5230ef17a beaef8af1a320615 30097c906b6f0f6e 7002db4952903cf2"},
    {"circuit=@ count_cache_mb=16", "",
     "50b09de39af79bb8 beaef8af1a320615 30097c906b6f0f6e 7542dca7971f968c"},
    {"circuit=@ count_max_decisions=5000", "",
     "b1cea5066c455b03 beaef8af1a320615 30097c906b6f0f6e 82967699f8b5ff7d"},
    {"circuit=@ max_survivors=99", "",
     "c51a5180f50540a5 beaef8af1a320615 30097c906b6f0f6e 901ec419b802b62b"},
    {"circuit=@ enum_survivors=0", "",
     "0ff3cddd34f1914e beaef8af1a320615 30097c906b6f0f6e 3f2a7d4a144e4c4e"},
    {"circuit=@ preprocess=0", "",
     "1f26edade274d368 beaef8af1a320615 30097c906b6f0f6e a1d40a5041720f7c"},
    {"circuit=@ shared_miter=0", "",
     "d5ab1971f9491d9e beaef8af1a320615 30097c906b6f0f6e 2fe962ed2e580dde"},
    {"circuit=@ canonical_inputs=1", "",
     "124422f4b479a8b2 beaef8af1a320615 30097c906b6f0f6e dbf081925327519a"},
    {"circuit=@ attack_threads=4", "",
     "1f5ba684788bcaf4 beaef8af1a320615 30097c906b6f0f6e 03fd015e36efef80"},
    {"circuit=@ cube_vars=3", "",
     "a83839d32c5e8dd8 beaef8af1a320615 30097c906b6f0f6e f1c4efd10ae5632c"},
    {"circuit=@ query_budget=64", "",
     "1972f05c1555b517 beaef8af1a320615 30097c906b6f0f6e da839f58160bca09"},
    {"circuit=@ oracle_noise=0.05", "",
     "6ab8952928ce4af3 beaef8af1a320615 30097c906b6f0f6e 2617c170c891882d"},
    {"circuit=@ oracle_cache=1", "",
     "c33a1d6d7b260fa4 beaef8af1a320615 30097c906b6f0f6e a0544c8134142ff0"},
    {"circuit=@ save_transcript=t.json", "",
     "634c102c153f7be7 - - -"},
    {"circuit=@ replay_transcript=t.json", "",
     "d5a96dacacb0f407 - - -"},
    {"circuit=@ attack=cegar emit_proof=p.json", "",
     "221fe3aee62b2b87 - - -"},
    {"circuit=@ random_warmup=32", "",
     "03c73f6a6ac9bdf2 beaef8af1a320615 30097c906b6f0f6e f4125bab4c69b55a"},
    {"circuit=@ random_queries=64", "",
     "d4ab550b4b71f1ba beaef8af1a320615 30097c906b6f0f6e a3265403e19a7fb2"},
    {"circuit=@ metrics=1", "",
     "0f4953a9a990e0d4 beaef8af1a320615 30097c906b6f0f6e 40d82bdd4cd919e0"},
    {"circuit=@", "elim_occ=16",
     "69c50dbe9b537a21 beaef8af1a320615 30097c906b6f0f6e 5e264f37d786f0ff"},
    {"circuit=@", "elim_growth=4",
     "67db965ef988cdb3 beaef8af1a320615 30097c906b6f0f6e cc4f40d504c8256d"},
    {"circuit=@", "map.cut_max_leaves=3",
     "1adba8885f0e77ee 633760290bbeb0c2 cd11d05741689bb9 3132f9e960dbc0ee"},
    {"circuit=@", "map.cut_max_cuts_per_node=6",
     "eb05d39206d6930d b0e9a304a12e9e63 2943805bebda153c 3046550bdafe2463"},
    {"circuit=@", "map.cut_include_trivial=0",
     "9d9a9356603c0ad8 fa11074bd6db8442 c8ee6d619178e33b f1832a621d75922c"},
    {"circuit=@", "map.recovery_iterations=2",
     "f9f8b54b7f45bfee f9e61e06996d771a 12e0c407eb437f69 23aa03a4fdd058ee"},
    {"circuit=@", "attack.oracle.max_iterations=7",
     "015fb94f8c6e19bc beaef8af1a320615 30097c906b6f0f6e 83d26571a6e2c958"},
    {"circuit=@", "attack.oracle.warmup_seed=9",
     "0ac34f9c628cb95f beaef8af1a320615 30097c906b6f0f6e 549049decbae58e1"},
    {"circuit=@", "attack.oracle.solver.elim_resolvent_limit=12",
     "bd25b06938209a34 beaef8af1a320615 30097c906b6f0f6e 1a483506a4651c40"},
    {"circuit=@", "attack.oracle.solver.max_rounds=2",
     "4c1ac81b7dce8819 beaef8af1a320615 30097c906b6f0f6e 83153c65d8998c47"},
    {"circuit=@", "attack.oracle.solver.inprocess_growth=1.5",
     "1c8f0e1dcab0595d beaef8af1a320615 30097c906b6f0f6e 5289c021e325ebb3"},
    {"circuit=@", "attack.oracle_model.noise_seed=3",
     "0673791e7c5141bd beaef8af1a320615 30097c906b6f0f6e cc960db34e6fdb93"},
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
    {"attack_threads", {"4", ""}},
    {"cube_vars", {"3", ""}},
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
        "funcs=present:2 attack_threads=0",
        "funcs=present:2 attack_threads=257",
        "funcs=present:2 cube_vars=17",
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
    };
    for (const char* text : bad) {
        EXPECT_THROW(parse_scenario_spec(text), std::invalid_argument) << text;
        EXPECT_THROW(parse_argv(to_argv(text)), std::invalid_argument) << text;
    }
    // A flag that needs a value and has none.
    EXPECT_THROW(parse_argv({"--seed"}), std::invalid_argument);
    // Bool flags take no value; the negated form exists only for bools.
    EXPECT_THROW(parse_argv({"--no-population", "8"}), std::invalid_argument);
    // The CEGAR loop is serial at any attack_threads, so a proof may use
    // cube workers for its count.
    EXPECT_NO_THROW(parse_scenario_spec(
        "funcs=present:2 attack=cegar emit_proof=p.json attack_threads=2"));
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
