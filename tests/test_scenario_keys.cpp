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
// epsilon, delta and count_seed leaves did, again when attack_threads and
// cube_vars did, and again when shared_miter, canonical_inputs and the six
// attack.oracle.solver leaves did; no pre-attack column changed.
const Golden kGolden[] = {
    {"name=audit-present2 funcs=present:2 seed=3 population=8 generations=3 attack=cegar max_survivors=64 random_warmup=8 emit_proof=audit-proof.json", "",
     "5f706bdd126871e5 - - - - -"},
    {"name=c17-bench circuit=@ seed=1 camo_density=0.4 attack=cegar,random-sampling", "",
     "e7d0147be980d121 beaef8af1a320615 da71bc9be3542304 e309b02e506b1dff"},
    {"name=c17-blif circuit=@ seed=1 camo_density=0.4 attack=cegar", "",
     "d5f510f7ce69e0f6 beaef8af1a320615 da71bc9be3542304 5678bb8f34da0506"},
    {"name=rca4 circuit=@ seed=2 camo_cells=3 camo_policy=fanout attack=cegar max_survivors=256", "",
     "12959bad0c42ae91 beaef8af1a320615 810981beddf307c1 6e0e9869f23ebcb2"},
    {"name=maj3 circuit=@ seed=3 camo_density=1.0 camo_seed=7 camo_policy=depth attack=cegar count_mode=exact", "",
     "d043b0877a8e4b9a beaef8af1a320615 23cf1f67af4e344c 986669e5a8c43198"},
    {"name=smoke-present2 funcs=present:2 seed=1 population=8 generations=3 attack=cegar,plausibility max_survivors=64 oracle_cache=1 random_warmup=8", "",
     "0ed2684c1239fb2f deafce9886ee5f6f 4204d2331224b30a 2643672ffb54a628 2643672ffb54a628 164c77daf3b73807"},
    {"name=smoke-des2 funcs=des:2 seed=2 population=6 generations=2 attack=plausibility", "",
     "f9a0a5096850b28b b60f279006147377 3c9b1c0375447754 a09fd09d5d3b0f8e a09fd09d5d3b0f8e 0f823b0d7a564dc2"},
    {"funcs=present:2 seed=1 population=6 generations=3 attack=cegar max_survivors=128", "",
     "0c39cbf705fef91c 8dee510af0fba035 246ef7a18f4557a4 cadafcf60add21e6 cadafcf60add21e6 62d8699c0624043e"},
    {"funcs=present:2 seed=2 population=6 generations=3 attack=cegar max_survivors=128", "",
     "d5f326b74fe8044f 8dee510af0fba035 246ef7a18f4557a4 cadafcf60add21e6 cadafcf60add21e6 62d8699c0624043e"},
    {"funcs=present:2 seed=3 population=6 generations=3 attack=cegar max_survivors=128", "",
     "9fb9e4a001cacaa6 8dee510af0fba035 246ef7a18f4557a4 cadafcf60add21e6 cadafcf60add21e6 62d8699c0624043e"},
    {"funcs=present:4 seed=1 population=6 generations=3 attack=cegar max_survivors=128", "",
     "9747aaf2dfddde56 93a4f59fd811cd37 cb3cb4ebb12055e6 240d3fabe90223a4 240d3fabe90223a4 af48938db84df804"},
    {"funcs=present:4 seed=2 population=6 generations=3 attack=cegar max_survivors=128", "",
     "2367f4b454d99e95 93a4f59fd811cd37 cb3cb4ebb12055e6 240d3fabe90223a4 240d3fabe90223a4 af48938db84df804"},
    {"funcs=present:4 seed=3 population=6 generations=3 attack=cegar max_survivors=128", "",
     "4abe617c25e48b0c 93a4f59fd811cd37 cb3cb4ebb12055e6 240d3fabe90223a4 240d3fabe90223a4 af48938db84df804"},
    {"funcs=present:8 seed=1 population=6 generations=3 attack=cegar max_survivors=128", "",
     "475aca827e313fa2 8fb074bae39ee42b 7e5001e6cf88d402 d5bb574c8a1271c8 d5bb574c8a1271c8 7e493c07205f1978"},
    {"funcs=present:8 seed=2 population=6 generations=3 attack=cegar max_survivors=128", "",
     "567a9e81c5d294b1 8fb074bae39ee42b 7e5001e6cf88d402 d5bb574c8a1271c8 d5bb574c8a1271c8 7e493c07205f1978"},
    {"name=p2s5 funcs=present:2 seed=5 population=6 generations=2 attack=plausibility", "",
     "0f7b721ac2068d69 c42f7c71b796591a 070654412f85d747 0641fce2f1d139d1 0641fce2f1d139d1 5db19aafe78020a9"},
    {"name=p2s5 funcs=present:2 seed=5 population=6 generations=2 attack=plausibility query_budget=1000", "",
     "ff23ebaf4fcaf1d4 c42f7c71b796591a 070654412f85d747 0641fce2f1d139d1 0641fce2f1d139d1 10e60b6862417f32"},
    {"funcs=present:2", "",
     "3054b492213591f2 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 400336adb82337c8"},
    {"funcs=present:2 funcs=des:3", "",
     "2de65a6b5a869ddc 223649524aee5b52 c47e925975f90be1 3a1793c1870cd4df 3a1793c1870cd4df 1a735a154950037e"},
    {"funcs=present:2 population=9", "",
     "19f3287a5ac1d38b fa183f204c72fd8d 807f1ec6a442d602 81ed78212bc75b3c 81ed78212bc75b3c 3e834e1c5cfacccb"},
    {"funcs=present:2 pop=9", "",
     "19f3287a5ac1d38b fa183f204c72fd8d 807f1ec6a442d602 81ed78212bc75b3c 81ed78212bc75b3c 3e834e1c5cfacccb"},
    {"funcs=present:2 generations=5", "",
     "6ae0e5a5bd0f7245 51724ada9c0ccdef 1aad73ff7eb2f7c4 6b916dd720ce85ba 6b916dd720ce85ba 26806317ba2f6769"},
    {"funcs=present:2 gens=5", "",
     "6ae0e5a5bd0f7245 51724ada9c0ccdef 1aad73ff7eb2f7c4 6b916dd720ce85ba 6b916dd720ce85ba 26806317ba2f6769"},
    {"funcs=present:2 baseline=0", "",
     "b5bca7dec416d49b 23384929cc75121f f0a22a3af75561d0 a46e8c80ec3fa47e a46e8c80ec3fa47e 812451c9b5dcab9b"},
    {"funcs=present:2 final_best=0", "",
     "b4435a91e06580df c1a76688cfc4e2a6 cd93f1a7d771a0aa 687c26309a62e2a8 687c26309a62e2a8 03a679e1db245db7"},
    {"funcs=present:2 verify=0", "",
     "f4858fb2909c9d41 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 e3b849094648503f"},
    {"funcs=present:2 name=golden", "",
     "3054b492213591f2 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 400336adb82337c8"},
    {"funcs=present:2 seed=42", "",
     "dba7004deb4129d7 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 400336adb82337c8"},
    {"funcs=present:2 camo=0", "",
     "730a5b8d598dd697 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 b8b451924e7b8a9f"},
    {"funcs=present:2 attack=cegar", "",
     "28288038d97ef052 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 781032a9a4b16628"},
    {"funcs=present:2 attack=none", "",
     "3054b492213591f2 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 400336adb82337c8"},
    {"funcs=present:2 count_mode=enumerate", "",
     "c66e26e9baca116d c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 901b2cad941f5221"},
    {"funcs=present:2 count_cache_mb=16", "",
     "2cc134972195e707 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 89cc5c7c973d908f"},
    {"funcs=present:2 count_max_decisions=5000", "",
     "43de1af5740c4ebe c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 db2ca58d2abed17c"},
    {"funcs=present:2 max_survivors=99", "",
     "0b50ea1f2dc93164 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 b6f4b44ed0bd3456"},
    {"funcs=present:2 enum_survivors=0", "",
     "c001681a6c566f09 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 3cef1e4d642f17f5"},
    {"funcs=present:2 query_budget=64", "",
     "198cc441d99717bc c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 507fa8663cd05dde"},
    {"funcs=present:2 oracle_noise=0.05", "",
     "92705fbfa94ddd04 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 b495f0f18b83d576"},
    {"funcs=present:2 oracle_cache=1", "",
     "c1f75c5ba5f269cf c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 bc6f4709742e4727"},
    {"funcs=present:2 save_transcript=t.json", "",
     "3054b492213591f2 - - - - -"},
    {"funcs=present:2 replay_transcript=t.json", "",
     "9f3eaec1731a0d92 - - - - -"},
    {"funcs=present:2 attack=cegar emit_proof=p.json", "",
     "28288038d97ef052 - - - - -"},
    {"funcs=present:2 random_warmup=32", "",
     "791db13eecda0995 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 a7e60dcb387052b9"},
    {"funcs=present:2 random_queries=64", "",
     "ae195c03f51e643d c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 92637973acf166f1"},
    {"funcs=present:2 metrics=1", "",
     "16f6bd455d95a84b c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 605be5b936549f0b"},
    {"funcs=present:2", "map.cut_max_leaves=3",
     "aa7450cdb322e6c9 0e2152094d2da3bb ace02dedbdcb86f2 14cfd82b3db3343c 14cfd82b3db3343c d02dc24027888d35"},
    {"funcs=present:2", "map.cut_max_cuts_per_node=6",
     "2e7d213a2af33054 6ff15dd0fea23b40 d3e08f3b66671d79 945cf8f3c48fef73 945cf8f3c48fef73 d816beb429a2ae86"},
    {"funcs=present:2", "map.cut_include_trivial=0",
     "ede99903057d3aaf ff0e4e499b72b809 6e610a4f71feb49e 16365ea71630421c 16365ea71630421c f3733988c42cea87"},
    {"funcs=present:2", "map.recovery_iterations=2",
     "75906fec95f39ac1 99a18b4b467928e3 20b7f8b213e680f2 3fd35b1081822fcc 3fd35b1081822fcc a9bc8bb4887d2bfd"},
    {"funcs=present:2", "attack.oracle.max_iterations=7",
     "814cb762251e1cab c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 a33e0dfff37a66eb"},
    {"funcs=present:2", "attack.oracle.warmup_seed=9",
     "1e58e8bbb34f6f5a c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 cd3513ec8509dae0"},
    {"funcs=present:2", "attack.oracle_model.noise_seed=3",
     "f6b7059f103a1274 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 3e98113cea7054a6"},
    {"funcs=present:2", "ga.crossover_prob=0.5",
     "cd8d74e690e12d50 f7f1ecd51d868ce4 d20374e5b7c9fbd9 d5f0ecd6f48f4b33 d5f0ecd6f48f4b33 0dc660c0bab4107a"},
    {"funcs=present:2", "ga.mutation_prob=0.5",
     "7c02f2775eada620 db930b5241de7194 e307260aca2b1c2f 13c3414fdbfec1bd 13c3414fdbfec1bd 2af9f884188dc8ca"},
    {"funcs=present:2", "ga.tournament_size=4",
     "f748099e05e3e131 2accbfb454778d73 59534aa9d8af02aa 24ef2b553d052064 24ef2b553d052064 61bbdcab443018ad"},
    {"funcs=present:2", "ga.elite=3",
     "d6d6abead91ce3f3 9a14cdd90d400e85 5f43a754671b58d0 bbfd84fb07894926 bbfd84fb07894926 52ba07082b759ba3"},
    {"funcs=present:2", "fitness_effort=high",
     "309256a0d60a31a8 48dd95609444bb2c 7f9d8d4b29323ccd 2e43ef6c3a9c9f6f 2e43ef6c3a9c9f6f 3b4ad52f790cb5a2"},
    {"funcs=present:2", "fitness_build=shared-extract",
     "d9b6b986693590e7 a5031b00f2a40351 18345a6d22d2ddb4 a122d4e26925afba a122d4e26925afba 650d785e120523ef"},
    {"funcs=present:2", "random_count=10",
     "817fa903d56a0e61 217d183bd75f0063 35abc555ac289a12 2ee56db478c524d0 2ee56db478c524d0 997fe8ff8f5f199d"},
    {"funcs=present:2", "final_effort=high",
     "a30c29050954d207 c1a76688cfc4e2a6 bbdd4ee1016f800a 1409b454ce7641c4 1409b454ce7641c4 6e55c271a1cc598f"},
    {"funcs=present:2", "camo.subtree_max_depth=2",
     "5d9f469250709f41 c1a76688cfc4e2a6 592dfe538565796f 6827c858e4f5ffb8 6827c858e4f5ffb8 d328d8b6015ea57d"},
    {"funcs=present:2", "camo.subtree_max_signal_leaves=3",
     "cf8d484d03039cbb c1a76688cfc4e2a6 592dfe538565796f be1e1e87962f7dee be1e1e87962f7dee 0efd9b6f85ed9fbb"},
    {"funcs=present:2", "camo.subtree_max_candidates=64",
     "8aed010c3a973de9 c1a76688cfc4e2a6 592dfe538565796f 2e9705a7174ebba2 2e9705a7174ebba2 16698055f7869355"},
    {"circuit=@", "",
     "9ef7b320a55d280c beaef8af1a320615 30097c906b6f0f6e e12a4fa42735f968"},
    {"circuit=@ camo_density=0.25", "",
     "7a893ef5f1f10c3b beaef8af1a320615 2ff71a24ec85c991 dd0e0ffaf1ec93e5"},
    {"circuit=@ camo_cells=3", "",
     "3a05aa3d8b912a8d beaef8af1a320615 14941faf811f574d 432b741fce6a1ee3"},
    {"circuit=@ camo_seed=11", "",
     "9b274a701478b9c2 beaef8af1a320615 35422219e63965a6 88d0fed102701c2a"},
    {"circuit=@ camo_policy=fanout", "",
     "7d54f845bff45dc0 beaef8af1a320615 a082e2a17c07761e a9d6774d79b9f244"},
    {"circuit=/nonexistent/mvf-golden/d.blif", "",
     "e586d089294ab446 5a6cc440f7775383 c5ad362cb6348476 f9b5413f0ec34bd6"},
    {"circuit=@ name=golden", "",
     "9ef7b320a55d280c beaef8af1a320615 30097c906b6f0f6e e12a4fa42735f968"},
    {"circuit=@ seed=42", "",
     "96144c790c0c1987 beaef8af1a320615 30097c906b6f0f6e e12a4fa42735f968"},
    {"circuit=@ camo=0", "",
     "76369ffe97e36b7f beaef8af1a320615 30097c906b6f0f6e 53f988cfa8189081"},
    {"circuit=@ attack=cegar", "",
     "035320e6adad516c beaef8af1a320615 30097c906b6f0f6e 992eea37c556ec48"},
    {"circuit=@ attack=none", "",
     "9ef7b320a55d280c beaef8af1a320615 30097c906b6f0f6e e12a4fa42735f968"},
    {"circuit=@ count_mode=enumerate", "",
     "15fca55e94f98743 beaef8af1a320615 30097c906b6f0f6e 12f0be26e65e643d"},
    {"circuit=@ count_cache_mb=16", "",
     "314686687a2a1cf1 beaef8af1a320615 30097c906b6f0f6e 77943a99186efccf"},
    {"circuit=@ count_max_decisions=5000", "",
     "8f36aebbc0de48a0 beaef8af1a320615 30097c906b6f0f6e 7f4590610cb5ad24"},
    {"circuit=@ max_survivors=99", "",
     "a471bacd90daaf22 beaef8af1a320615 30097c906b6f0f6e c43ac4da404c180a"},
    {"circuit=@ enum_survivors=0", "",
     "8675ab576c933bb7 beaef8af1a320615 30097c906b6f0f6e 90431f7cf7d4cfa9"},
    {"circuit=@ query_budget=64", "",
     "8b4253cc548e5caa beaef8af1a320615 30097c906b6f0f6e a880963e70c9b7a2"},
    {"circuit=@ oracle_noise=0.05", "",
     "08eb5842958751c2 beaef8af1a320615 30097c906b6f0f6e 8bad642cd75a242a"},
    {"circuit=@ oracle_cache=1", "",
     "5187af4e31797ba9 beaef8af1a320615 30097c906b6f0f6e b23a49e8b9a31b57"},
    {"circuit=@ save_transcript=t.json", "",
     "9ef7b320a55d280c - - -"},
    {"circuit=@ replay_transcript=t.json", "",
     "30d0ec2f86f1c9ac - - -"},
    {"circuit=@ attack=cegar emit_proof=p.json", "",
     "035320e6adad516c - - -"},
    {"circuit=@ random_warmup=32", "",
     "97511eb70c75e01b beaef8af1a320615 30097c906b6f0f6e ea71c8b5c2eb28c5"},
    {"circuit=@ random_queries=64", "",
     "e299dda4dbdc54d3 beaef8af1a320615 30097c906b6f0f6e f6cf3c0ef497af0d"},
    {"circuit=@ metrics=1", "",
     "8b0bc04e4b9c5abd beaef8af1a320615 30097c906b6f0f6e 8d6b25a0deff7e93"},
    {"circuit=@", "map.cut_max_leaves=3",
     "9f852101e924a099 633760290bbeb0c2 cd11d05741689bb9 fd78475ad5b021c7"},
    {"circuit=@", "map.cut_max_cuts_per_node=6",
     "9c92dbfd8b3badc6 b0e9a304a12e9e63 2943805bebda153c bd62d3e5faf39c56"},
    {"circuit=@", "map.cut_include_trivial=0",
     "d85e93d2d620de39 fa11074bd6db8442 c8ee6d619178e33b e2e5f94850469d67"},
    {"circuit=@", "map.recovery_iterations=2",
     "d8266d2c58902ca1 f9e61e06996d771a 12e0c407eb437f69 b000656fe2d7c47f"},
    {"circuit=@", "attack.oracle.max_iterations=7",
     "98ecfa8ee448889d beaef8af1a320615 30097c906b6f0f6e fa51cff068684f73"},
    {"circuit=@", "attack.oracle.warmup_seed=9",
     "90965542514f9f64 beaef8af1a320615 30097c906b6f0f6e da02c52191e30530"},
    {"circuit=@", "attack.oracle_model.noise_seed=3",
     "b3d8937e80574b32 beaef8af1a320615 30097c906b6f0f6e 8974750d1931751a"},
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
        // Removed encoding and solver settings: the attack has one
        // pipeline.  (-1 once removed BVE's occurrence bound.)
        "funcs=present:2 preprocess=0",
        "funcs=present:2 shared_miter=0",
        "funcs=present:2 canonical_inputs=1",
        "funcs=present:2 elim_occ=16",
        "funcs=present:2 elim_growth=4",
        "funcs=present:2 elim_occ=-1",
        "circuit=a.blif shared_miter=0",
        // A zero survivor cap read as "no survivor".
        "funcs=present:2 max_survivors=0",
        "circuit=a.blif max_survivors=0",
    };
    for (const char* text : bad) {
        EXPECT_THROW(parse_scenario_spec(text), std::invalid_argument) << text;
        EXPECT_THROW(parse_argv(to_argv(text)), std::invalid_argument) << text;
    }
    // The removed settings' command-line spellings.
    for (const std::vector<std::string>& argv :
         std::vector<std::vector<std::string>>{{"--no-preprocess"},
                                               {"--preprocess"},
                                               {"--no-shared-miter"},
                                               {"--canonical-inputs"},
                                               {"--elim-occ", "4"},
                                               {"--elim-growth", "4"}}) {
        EXPECT_FALSE(is_scenario_flag(argv[0])) << argv[0];
        EXPECT_THROW(parse_argv(argv), std::invalid_argument) << argv[0];
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
