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
// on each chain the row applies to.
const Golden kGolden[] = {
    {"name=audit-present2 funcs=present:2 seed=3 population=8 generations=3 attack=cegar max_survivors=64 neighborhood_queries=4 emit_proof=audit-proof.json", "",
     "db613b5bd1309870 - - - - -"},
    {"name=c17-bench circuit=@ seed=1 camo_density=0.4 attack=cegar,random-sampling", "",
     "8b5b54715a390c32 beaef8af1a320615 da71bc9be3542304 deb4a423b444d01a"},
    {"name=c17-blif circuit=@ seed=1 camo_density=0.4 attack=cegar", "",
     "1f53f326510be083 beaef8af1a320615 da71bc9be3542304 c73be280d69c13fd"},
    {"name=rca4 circuit=@ seed=2 camo_cells=3 camo_policy=fanout attack=cegar max_survivors=256", "",
     "98d9951460227a7a beaef8af1a320615 810981beddf307c1 9d71e99f94bbca2f"},
    {"name=maj3 circuit=@ seed=3 camo_density=1.0 camo_seed=7 camo_policy=depth attack=cegar count_mode=exact", "",
     "081efa52c1b4b09d beaef8af1a320615 23cf1f67af4e344c ff99024b2bbf269d"},
    {"name=smoke-present2 funcs=present:2 seed=1 population=8 generations=3 attack=cegar,plausibility max_survivors=64 oracle_cache=1 random_warmup=8", "",
     "ae70ed2d3fb0e5ca deafce9886ee5f6f 4204d2331224b30a 2643672ffb54a628 2643672ffb54a628 bbd09e0c5098fad0"},
    {"name=smoke-des2 funcs=des:2 seed=2 population=6 generations=2 attack=plausibility", "",
     "53756e819a687118 b60f279006147377 3c9b1c0375447754 a09fd09d5d3b0f8e a09fd09d5d3b0f8e 337e84261e4a5d9b"},
    {"funcs=present:2 seed=1 population=6 generations=3 attack=cegar max_survivors=128", "",
     "16d89a4f27b7d62b 8dee510af0fba035 246ef7a18f4557a4 cadafcf60add21e6 cadafcf60add21e6 8571cf636476f76b"},
    {"funcs=present:2 seed=2 population=6 generations=3 attack=cegar max_survivors=128", "",
     "24d8811c4bef5468 8dee510af0fba035 246ef7a18f4557a4 cadafcf60add21e6 cadafcf60add21e6 8571cf636476f76b"},
    {"funcs=present:2 seed=3 population=6 generations=3 attack=cegar max_survivors=128", "",
     "83e8106e76b0d1f1 8dee510af0fba035 246ef7a18f4557a4 cadafcf60add21e6 cadafcf60add21e6 8571cf636476f76b"},
    {"funcs=present:4 seed=1 population=6 generations=3 attack=cegar max_survivors=128", "",
     "75c4870ee0b8df05 93a4f59fd811cd37 cb3cb4ebb12055e6 240d3fabe90223a4 240d3fabe90223a4 937db6d701944aa9"},
    {"funcs=present:4 seed=2 population=6 generations=3 attack=cegar max_survivors=128", "",
     "86c7d664347d1cc6 93a4f59fd811cd37 cb3cb4ebb12055e6 240d3fabe90223a4 240d3fabe90223a4 937db6d701944aa9"},
    {"funcs=present:4 seed=3 population=6 generations=3 attack=cegar max_survivors=128", "",
     "6e025fe927f0ed6f 93a4f59fd811cd37 cb3cb4ebb12055e6 240d3fabe90223a4 240d3fabe90223a4 937db6d701944aa9"},
    {"funcs=present:8 seed=1 population=6 generations=3 attack=cegar max_survivors=128", "",
     "7b8bcf1e634e8531 8fb074bae39ee42b 7e5001e6cf88d402 d5bb574c8a1271c8 d5bb574c8a1271c8 77e20438b5ff64ad"},
    {"funcs=present:8 seed=2 population=6 generations=3 attack=cegar max_survivors=128", "",
     "6c6bfb1f1bad3022 8fb074bae39ee42b 7e5001e6cf88d402 d5bb574c8a1271c8 d5bb574c8a1271c8 77e20438b5ff64ad"},
    {"name=p2s5 funcs=present:2 seed=5 population=6 generations=2 attack=plausibility", "",
     "941a7c5883dd6736 c42f7c71b796591a 070654412f85d747 0641fce2f1d139d1 0641fce2f1d139d1 30027fbf8f511850"},
    {"name=p2s5 funcs=present:2 seed=5 population=6 generations=2 attack=plausibility query_budget=1000", "",
     "84ff5d45acae0ead c42f7c71b796591a 070654412f85d747 0641fce2f1d139d1 0641fce2f1d139d1 295deb69395f8d8d"},
    {"funcs=present:2", "",
     "dcf19aaed313299f c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 34abb5b82f5771f7"},
    {"funcs=present:2 funcs=des:3", "",
     "af0578bc57d0e4e1 223649524aee5b52 c47e925975f90be1 3a1793c1870cd4df 3a1793c1870cd4df 05ba6a785bb1b91d"},
    {"funcs=present:2 population=9", "",
     "d755f01da638dae4 fa183f204c72fd8d 807f1ec6a442d602 81ed78212bc75b3c 81ed78212bc75b3c 0aa86b7df30a14d6"},
    {"funcs=present:2 pop=9", "",
     "d755f01da638dae4 fa183f204c72fd8d 807f1ec6a442d602 81ed78212bc75b3c 81ed78212bc75b3c 0aa86b7df30a14d6"},
    {"funcs=present:2 generations=5", "",
     "7a81b458ac9700b2 51724ada9c0ccdef 1aad73ff7eb2f7c4 6b916dd720ce85ba 6b916dd720ce85ba d6e4d68712b97b08"},
    {"funcs=present:2 gens=5", "",
     "7a81b458ac9700b2 51724ada9c0ccdef 1aad73ff7eb2f7c4 6b916dd720ce85ba 6b916dd720ce85ba d6e4d68712b97b08"},
    {"funcs=present:2 baseline=0", "",
     "91f3b5f7aa8e2490 23384929cc75121f f0a22a3af75561d0 a46e8c80ec3fa47e a46e8c80ec3fa47e 06e1b3b1f4e7ae3a"},
    {"funcs=present:2 final_best=0", "",
     "14770e9f39434020 c1a76688cfc4e2a6 cd93f1a7d771a0aa 687c26309a62e2a8 687c26309a62e2a8 f49ca64b0d3d06ca"},
    {"funcs=present:2 verify=0", "",
     "6ebf5007d8e9b10a c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 683f596f8d0409c2"},
    {"funcs=present:2 name=golden", "",
     "dcf19aaed313299f c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 34abb5b82f5771f7"},
    {"funcs=present:2 seed=42", "",
     "9406b6c74c502938 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 34abb5b82f5771f7"},
    {"funcs=present:2 camo=0", "",
     "f85877f511e12f48 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 c6ff9a8100f72842"},
    {"funcs=present:2 attack=cegar", "",
     "e1a4dbbf73f6a23f c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 12363fd945d0f617"},
    {"funcs=present:2 attack=none", "",
     "dcf19aaed313299f c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 34abb5b82f5771f7"},
    {"funcs=present:2 count_mode=approx", "",
     "46382dbf0bcf53f4 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 7cf7ec9a36143d26"},
    {"funcs=present:2 count_mode=enumerate", "",
     "66bde28524b26caa c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 0795ecc8ac069db0"},
    {"funcs=present:2 count_cache_mb=16", "",
     "1c148ede7a776790 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 4b57f1f4d34dbf3a"},
    {"funcs=present:2 count_max_decisions=5000", "",
     "3d69775779b4cc13 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 6c687c3c4ec0b5c3"},
    {"funcs=present:2 count_mode=approx epsilon=0.5", "",
     "81396c103ad1b909 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 456a875344d7e5f5"},
    {"funcs=present:2 count_mode=approx delta=0.1", "",
     "96afaad602c46a45 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 96062d60de258f69"},
    {"funcs=present:2 max_survivors=99", "",
     "1a79ad4029338fd9 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 7d0aa90876a61d05"},
    {"funcs=present:2 enum_survivors=0", "",
     "ed654441a817cc9a c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 ff5fddb4dd397ea0"},
    {"funcs=present:2 preprocess=0", "",
     "a9fd650b8747bbbc c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 40e6ffb7be01a9de"},
    {"funcs=present:2 shared_miter=0", "",
     "de4f1324912cd51e c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 aae6fdc917679b5c"},
    {"funcs=present:2 canonical_inputs=1", "",
     "8c14170b20d78a92 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 84fd91f6738c8ae8"},
    {"funcs=present:2 attack_threads=4", "",
     "2770dc7f0ba83a94 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 4d65337d8b312346"},
    {"funcs=present:2 portfolio=2", "",
     "36da1259ca249639 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 c596f5ba848e3c65"},
    {"funcs=present:2 cube_vars=3", "",
     "517040c0541ccb5a c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 22c8f5e4c3228ee0"},
    {"funcs=present:2 query_budget=64", "",
     "2c22974a03d50a1f c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 8fa2a70fa7ec1f77"},
    {"funcs=present:2 oracle_noise=0.05", "",
     "5b2be1e714894c8b c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 20314c5312288fcb"},
    {"funcs=present:2 oracle_cache=1", "",
     "76ad4f9df14f80b8 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 b642cb448935e432"},
    {"funcs=present:2 save_transcript=t.json", "",
     "dcf19aaed313299f - - - - -"},
    {"funcs=present:2 replay_transcript=t.json", "",
     "ef19940616bf679f - - - - -"},
    {"funcs=present:2 attack=cegar emit_proof=p.json", "",
     "e1a4dbbf73f6a23f - - - - -"},
    {"funcs=present:2 random_warmup=32", "",
     "07efa97cbd145272 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 fbc27f0108438548"},
    {"funcs=present:2 neighborhood_queries=4", "",
     "03e4953637ed9e9b c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 bf08f3cfd52bf99b"},
    {"funcs=present:2 random_queries=64", "",
     "947eb55106d5976a c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 25c6e065424171f0"},
    {"funcs=present:2 metrics=1", "",
     "73e4ab32aa4481f4 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 786516f7eaa81726"},
    {"funcs=present:2", "elim_occ=16",
     "57a6c30f4619098d c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 0f1efa2a1760b941"},
    {"funcs=present:2", "elim_growth=4",
     "98eb8cfe4df3295b c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 a3898e9aa81cd1db"},
    {"funcs=present:2", "map.cut_max_leaves=3",
     "897c0d2d3af7b11c 0e2152094d2da3bb ace02dedbdcb86f2 14cfd82b3db3343c 14cfd82b3db3343c e26a8c7d253f6c3e"},
    {"funcs=present:2", "map.cut_max_cuts_per_node=6",
     "f669df85d3ddf085 6ff15dd0fea23b40 d3e08f3b66671d79 945cf8f3c48fef73 945cf8f3c48fef73 de4f84d6eca32329"},
    {"funcs=present:2", "map.cut_include_trivial=0",
     "8e320f734fecbcfc ff0e4e499b72b809 6e610a4f71feb49e 16365ea71630421c 16365ea71630421c a288b90f773c189e"},
    {"funcs=present:2", "map.recovery_iterations=2",
     "2b101f387a1228c4 99a18b4b467928e3 20b7f8b213e680f2 3fd35b1081822fcc 3fd35b1081822fcc 9b8d20fa639c47b6"},
    {"funcs=present:2", "attack.run_oracle_attack=1",
     "540618960828e9a8 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 35ca1509632a1da2"},
    {"funcs=present:2", "attack.oracle.count_seed=5",
     "ca096970a41b7b0b c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 d4a76922dd6d774b"},
    {"funcs=present:2", "attack.oracle.max_iterations=7",
     "d95b35041aefec12 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 0f93b3498b84d368"},
    {"funcs=present:2", "attack.oracle.warmup_seed=9",
     "f3f53923b96c8a27 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 d22ad335a921c8af"},
    {"funcs=present:2", "attack.oracle.solver.elim_resolvent_limit=12",
     "4aba891757518648 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 48da54c659ec5542"},
    {"funcs=present:2", "attack.oracle.solver.max_rounds=2",
     "df2e86713b24d985 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 2a4d37ecb801b629"},
    {"funcs=present:2", "attack.oracle.solver.inprocess_growth=1.5",
     "a7f6458936841b29 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 c54c62de0eae3c15"},
    {"funcs=present:2", "attack.oracle_model.noise_seed=3",
     "07802f946ee65ec9 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 1b75a87619063535"},
    {"funcs=present:2", "ga.crossover_prob=0.5",
     "351e124f241760e5 f7f1ecd51d868ce4 d20374e5b7c9fbd9 d5f0ecd6f48f4b33 d5f0ecd6f48f4b33 4c0e1c44ab005289"},
    {"funcs=present:2", "ga.mutation_prob=0.5",
     "c4aa802b7ea8031f db930b5241de7194 e307260aca2b1c2f 13c3414fdbfec1bd 13c3414fdbfec1bd 83d538d547506277"},
    {"funcs=present:2", "ga.tournament_size=4",
     "1b6687e40ab40034 2accbfb454778d73 59534aa9d8af02aa 24ef2b553d052064 24ef2b553d052064 4055386ade1a90e6"},
    {"funcs=present:2", "ga.elite=3",
     "d23a3d5ae642c71e 9a14cdd90d400e85 5f43a754671b58d0 bbfd84fb07894926 bbfd84fb07894926 aae867c92700215c"},
    {"funcs=present:2", "fitness_effort=high",
     "96db669063643c59 48dd95609444bb2c 7f9d8d4b29323ccd 2e43ef6c3a9c9f6f 2e43ef6c3a9c9f6f e37b2d1d081a4e85"},
    {"funcs=present:2", "fitness_build=shared-extract",
     "4593945dfa5a0b82 a5031b00f2a40351 18345a6d22d2ddb4 a122d4e26925afba a122d4e26925afba 2eb1063e22e284d8"},
    {"funcs=present:2", "random_count=10",
     "55c262525abe0798 217d183bd75f0063 35abc555ac289a12 2ee56db478c524d0 2ee56db478c524d0 c2eb479281012292"},
    {"funcs=present:2", "final_effort=high",
     "300e8fdd1dd12b9c c1a76688cfc4e2a6 bbdd4ee1016f800a 1409b454ce7641c4 1409b454ce7641c4 395fa826d53957be"},
    {"funcs=present:2", "camo.subtree_max_depth=2",
     "6a7784e6c91d0568 c1a76688cfc4e2a6 592dfe538565796f 6827c858e4f5ffb8 6827c858e4f5ffb8 3f53872b60fd29e2"},
    {"funcs=present:2", "camo.subtree_max_signal_leaves=3",
     "e7ba649257ce264e c1a76688cfc4e2a6 592dfe538565796f be1e1e87962f7dee be1e1e87962f7dee 6326e8fdfc0c594c"},
    {"funcs=present:2", "camo.subtree_max_candidates=64",
     "77fe2715ebb5f3da c1a76688cfc4e2a6 592dfe538565796f 2e9705a7174ebba2 2e9705a7174ebba2 0b56d56ecb8bd460"},
    {"circuit=@", "",
     "d296de8b8f93c1b9 beaef8af1a320615 30097c906b6f0f6e 94df2c4af3529be7"},
    {"circuit=@ camo_density=0.25", "",
     "d7e00dc737e656dc beaef8af1a320615 2ff71a24ec85c991 3e061cc05fada078"},
    {"circuit=@ camo_cells=3", "",
     "da2dfe8222da9068 beaef8af1a320615 14941faf811f574d 7a4dea041760fe7c"},
    {"circuit=@ camo_seed=11", "",
     "00e3f3f0d9b9d069 beaef8af1a320615 35422219e63965a6 1876af3c539a3197"},
    {"circuit=@ camo_policy=fanout", "",
     "9c6cf7aef51780a1 beaef8af1a320615 a082e2a17c07761e 5727ccc9cb6da07f"},
    {"circuit=/nonexistent/mvf-golden/d.blif", "",
     "433fa45d72bf69e1 5a6cc440f7775383 c5ad362cb6348476 bcd26b7671fef43f"},
    {"circuit=@ name=golden", "",
     "d296de8b8f93c1b9 beaef8af1a320615 30097c906b6f0f6e 94df2c4af3529be7"},
    {"circuit=@ seed=42", "",
     "94bfb82510067de0 beaef8af1a320615 30097c906b6f0f6e 94df2c4af3529be7"},
    {"circuit=@ camo=0", "",
     "1d3a45409e81490c beaef8af1a320615 30097c906b6f0f6e 3e0b44940fc97468"},
    {"circuit=@ attack=cegar", "",
     "7dd0b4d092af6059 beaef8af1a320615 30097c906b6f0f6e e9780aa5eaf33b07"},
    {"circuit=@ attack=none", "",
     "d296de8b8f93c1b9 beaef8af1a320615 30097c906b6f0f6e 94df2c4af3529be7"},
    {"circuit=@ count_mode=approx", "",
     "9e9bd254f5adf4b2 beaef8af1a320615 30097c906b6f0f6e fff73f7043db559a"},
    {"circuit=@ count_mode=enumerate", "",
     "794acb9763895fb4 beaef8af1a320615 30097c906b6f0f6e 1226901e4e67f0c0"},
    {"circuit=@ count_cache_mb=16", "",
     "3efd73bbea5ba276 beaef8af1a320615 30097c906b6f0f6e a6255f84fc3f6d86"},
    {"circuit=@ count_max_decisions=5000", "",
     "ff839d29d5798035 beaef8af1a320615 30097c906b6f0f6e 1aff280dd25730bb"},
    {"circuit=@ count_mode=approx epsilon=0.5", "",
     "62250ccd78d3e5b7 beaef8af1a320615 30097c906b6f0f6e 5968977629cebda9"},
    {"circuit=@ count_mode=approx delta=0.1", "",
     "ce3079c59663170b beaef8af1a320615 30097c906b6f0f6e 7a6f2b0ae86135f5"},
    {"circuit=@ max_survivors=99", "",
     "06960849745c4707 beaef8af1a320615 30097c906b6f0f6e a05799a68d98e0f9"},
    {"circuit=@ enum_survivors=0", "",
     "50d287249bc8e3a4 beaef8af1a320615 30097c906b6f0f6e 1a195a03d9908bf0"},
    {"circuit=@ preprocess=0", "",
     "69cb89a32fb8c0aa beaef8af1a320615 30097c906b6f0f6e 5f9feb97d4d243a2"},
    {"circuit=@ shared_miter=0", "",
     "927433089f331d80 beaef8af1a320615 30097c906b6f0f6e 9f782c9b141c0584"},
    {"circuit=@ canonical_inputs=1", "",
     "aabd21b19aac76ac beaef8af1a320615 30097c906b6f0f6e d001d46bd785b708"},
    {"circuit=@ attack_threads=4", "",
     "7bd355e341a18752 beaef8af1a320615 30097c906b6f0f6e 73ef3cfa016c263a"},
    {"circuit=@ portfolio=2", "",
     "8ae6eaf685f12ee7 beaef8af1a320615 30097c906b6f0f6e 25adca4e4b159e59"},
    {"circuit=@ cube_vars=3", "",
     "e5542904eac33b64 beaef8af1a320615 30097c906b6f0f6e de3337bf72847930"},
    {"circuit=@ query_budget=64", "",
     "77bd6cfed1b41a39 beaef8af1a320615 30097c906b6f0f6e 8344267c90bdf167"},
    {"circuit=@ oracle_noise=0.05", "",
     "0f4dfda05623b0fd beaef8af1a320615 30097c906b6f0f6e 6b8e69c58a07e253"},
    {"circuit=@ oracle_cache=1", "",
     "0a3bb61e2701a94e beaef8af1a320615 30097c906b6f0f6e 4f232e2dba60d44e"},
    {"circuit=@ save_transcript=t.json", "",
     "d296de8b8f93c1b9 - - -"},
    {"circuit=@ replay_transcript=t.json", "",
     "78bf107ae84a1fb9 - - -"},
    {"circuit=@ attack=cegar emit_proof=p.json", "",
     "7dd0b4d092af6059 - - -"},
    {"circuit=@ random_warmup=32", "",
     "786e2d526eac608c beaef8af1a320615 30097c906b6f0f6e a62b2f605a12eee8"},
    {"circuit=@ neighborhood_queries=4", "",
     "dd7a7cfa0f91060d beaef8af1a320615 30097c906b6f0f6e 449fed9bf8344563"},
    {"circuit=@ random_queries=64", "",
     "59a848f15807a474 beaef8af1a320615 30097c906b6f0f6e b87203d92445e000"},
    {"circuit=@ metrics=1", "",
     "c781698c6a0e42b2 beaef8af1a320615 30097c906b6f0f6e 419e50681cbb8f9a"},
    {"circuit=@", "elim_occ=16",
     "bc09af0f98bbf7e3 beaef8af1a320615 30097c906b6f0f6e e96d799e5e65a2dd"},
    {"circuit=@", "elim_growth=4",
     "03f99d2c8d725ccd beaef8af1a320615 30097c906b6f0f6e f8f0e2dbe1b54ba3"},
    {"circuit=@", "map.cut_max_leaves=3",
     "3f244875903454ac 633760290bbeb0c2 cd11d05741689bb9 cc541615e1d22108"},
    {"circuit=@", "map.cut_max_cuts_per_node=6",
     "641bc760767aaa8b b0e9a304a12e9e63 2943805bebda153c f54be0bf8d8bc475"},
    {"circuit=@", "map.cut_include_trivial=0",
     "51aacfea0e3fa99a fa11074bd6db8442 c8ee6d619178e33b ecbcd44ec473ad92"},
    {"circuit=@", "map.recovery_iterations=2",
     "295cd7118b5cfde4 f9e61e06996d771a 12e0c407eb437f69 d33aafe1c0e5fcb0"},
    {"circuit=@", "attack.run_oracle_attack=1",
     "d64bccfb573ea6be beaef8af1a320615 30097c906b6f0f6e 3de751a8286f7dfe"},
    {"circuit=@", "attack.oracle.count_seed=5",
     "f90304b9b16d777d beaef8af1a320615 30097c906b6f0f6e 90aa2f8dee09d1d3"},
    {"circuit=@", "attack.oracle.max_iterations=7",
     "1a39e40ff874402c beaef8af1a320615 30097c906b6f0f6e 86bd63f8b29df788"},
    {"circuit=@", "attack.oracle.warmup_seed=9",
     "d9cf0b32627a7511 beaef8af1a320615 30097c906b6f0f6e da5ddea93631866f"},
    {"circuit=@", "attack.oracle.solver.elim_resolvent_limit=12",
     "4d998d3dbfe74b5e beaef8af1a320615 30097c906b6f0f6e 76dabeb00404271e"},
    {"circuit=@", "attack.oracle.solver.max_rounds=2",
     "98ee149fe959a64b beaef8af1a320615 30097c906b6f0f6e ea66c07b08560bb5"},
    {"circuit=@", "attack.oracle.solver.inprocess_growth=1.5",
     "68108fbad4335257 beaef8af1a320615 30097c906b6f0f6e 58d33b5887608cc9"},
    {"circuit=@", "attack.oracle_model.noise_seed=3",
     "dbc92790f47c6977 beaef8af1a320615 30097c906b6f0f6e da2915721b0b66e9"},
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
    {"count_mode", {"approx", ""}},
    {"count_cache_mb", {"16", ""}},
    {"count_max_decisions", {"5000", ""}},
    {"epsilon", {"0.5", "count_mode=approx"}},
    {"delta", {"0.1", "count_mode=approx"}},
    {"max_survivors", {"99", ""}},
    {"enum_survivors", {"0", ""}},
    {"preprocess", {"0", ""}},
    {"shared_miter", {"0", ""}},
    {"canonical_inputs", {"1", ""}},
    {"attack_threads", {"4", ""}},
    {"portfolio", {"2", ""}},
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
    {"neighborhood_queries", {"4", ""}},
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
    {"attack.run_oracle_attack", {"1", ""}},
    {"attack.oracle.count_seed", {"5", ""}},
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
        "funcs=present:2 count_mode=enumerate epsilon=0.5",
        "funcs=present:2 epsilon=0.5",
        "funcs=present:2 count_mode=exact max_survivors=5",
        "funcs=present:2 count_mode=approx count_cache_mb=8",
        "funcs=present:2 max_survivors=5 count_cache_mb=8",
        "funcs=present:2 max_survivors=5 count_max_decisions=8",
        "funcs=present:2 enum_survivors=0 count_mode=approx epsilon=0.5 "
        "delta=0.1",
        "funcs=present:2 enum_survivors=0 max_survivors=5",
        "funcs=present:2 count_mode=approx epsilon=-1",
        "funcs=present:2 count_mode=approx delta=1.5",
        "funcs=present:2 count_mode=exact count_cache_mb=0",
        "funcs=present:2 replay_transcript=t.json oracle_noise=0.1",
        "funcs=present:2 replay_transcript=t.json oracle_cache=1",
        "funcs=present:2 replay_transcript=t.json portfolio=2",
        "funcs=present:2 query_budget=0",
        "funcs=present:2 oracle_noise=1.0",
        "funcs=present:2 oracle_noise=-0.5",
        "funcs=present:2 random_warmup=-1",
        "funcs=present:2 random_queries=0",
        "funcs=present:2 neighborhood_queries=-1",
        "funcs=present:2 attack_threads=0",
        "funcs=present:2 portfolio=-1",
        "funcs=present:2 cube_vars=17",
        "funcs=present:2 attack=cegar emit_proof=p.json "
        "replay_transcript=t.json",
        "funcs=present:2 attack=cegar emit_proof=p.json portfolio=2",
        "funcs=present:2 attack=cegar emit_proof=p.json attack_threads=2",
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
