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
// run_oracle_attack leaves left the canonical form; no pre-attack column
// changed.
const Golden kGolden[] = {
    {"name=audit-present2 funcs=present:2 seed=3 population=8 generations=3 attack=cegar max_survivors=64 random_warmup=8 emit_proof=audit-proof.json", "",
     "bfbba61cbd031bb1 - - - - -"},
    {"name=c17-bench circuit=@ seed=1 camo_density=0.4 attack=cegar,random-sampling", "",
     "e630e8affdd26441 beaef8af1a320615 da71bc9be3542304 90e96c07c755911f"},
    {"name=c17-blif circuit=@ seed=1 camo_density=0.4 attack=cegar", "",
     "72314f9cbe8262ee beaef8af1a320615 da71bc9be3542304 6fe6f7f61f8189ee"},
    {"name=rca4 circuit=@ seed=2 camo_cells=3 camo_policy=fanout attack=cegar max_survivors=256", "",
     "522741a87021e251 beaef8af1a320615 810981beddf307c1 a4cc5a10b94614f2"},
    {"name=maj3 circuit=@ seed=3 camo_density=1.0 camo_seed=7 camo_policy=depth attack=cegar count_mode=exact", "",
     "401d0ef18a3b6dd2 beaef8af1a320615 23cf1f67af4e344c a6f7f6e9e3ebf2c0"},
    {"name=smoke-present2 funcs=present:2 seed=1 population=8 generations=3 attack=cegar,plausibility max_survivors=64 oracle_cache=1 random_warmup=8", "",
     "2f3b4ce22a578747 deafce9886ee5f6f 4204d2331224b30a 2643672ffb54a628 2643672ffb54a628 e8ca4ffbdcaa5f4f"},
    {"name=smoke-des2 funcs=des:2 seed=2 population=6 generations=2 attack=plausibility", "",
     "dc12ff6cd311789b b60f279006147377 3c9b1c0375447754 a09fd09d5d3b0f8e a09fd09d5d3b0f8e 72c69de80511dd12"},
    {"funcs=present:2 seed=1 population=6 generations=3 attack=cegar max_survivors=128", "",
     "c6bf9816f856823c 8dee510af0fba035 246ef7a18f4557a4 cadafcf60add21e6 cadafcf60add21e6 f90f2b1dc1ca995e"},
    {"funcs=present:2 seed=2 population=6 generations=3 attack=cegar max_survivors=128", "",
     "49892c03421497ef 8dee510af0fba035 246ef7a18f4557a4 cadafcf60add21e6 cadafcf60add21e6 f90f2b1dc1ca995e"},
    {"funcs=present:2 seed=3 population=6 generations=3 attack=cegar max_survivors=128", "",
     "624ea27e4ea0c746 8dee510af0fba035 246ef7a18f4557a4 cadafcf60add21e6 cadafcf60add21e6 f90f2b1dc1ca995e"},
    {"funcs=present:4 seed=1 population=6 generations=3 attack=cegar max_survivors=128", "",
     "32563262e3dc1b76 93a4f59fd811cd37 cb3cb4ebb12055e6 240d3fabe90223a4 240d3fabe90223a4 eae4a687758236a4"},
    {"funcs=present:4 seed=2 population=6 generations=3 attack=cegar max_survivors=128", "",
     "5c8e807fdb9211b5 93a4f59fd811cd37 cb3cb4ebb12055e6 240d3fabe90223a4 240d3fabe90223a4 eae4a687758236a4"},
    {"funcs=present:4 seed=3 population=6 generations=3 attack=cegar max_survivors=128", "",
     "0225d5b530f105ac 93a4f59fd811cd37 cb3cb4ebb12055e6 240d3fabe90223a4 240d3fabe90223a4 eae4a687758236a4"},
    {"funcs=present:8 seed=1 population=6 generations=3 attack=cegar max_survivors=128", "",
     "181e3fd0cac89042 8fb074bae39ee42b 7e5001e6cf88d402 d5bb574c8a1271c8 d5bb574c8a1271c8 03361593ce345a18"},
    {"funcs=present:8 seed=2 population=6 generations=3 attack=cegar max_survivors=128", "",
     "6a24af62238b89d1 8fb074bae39ee42b 7e5001e6cf88d402 d5bb574c8a1271c8 d5bb574c8a1271c8 03361593ce345a18"},
    {"name=p2s5 funcs=present:2 seed=5 population=6 generations=2 attack=plausibility", "",
     "50207f5cf1fc1b59 c42f7c71b796591a 070654412f85d747 0641fce2f1d139d1 0641fce2f1d139d1 6393b939c695e7d9"},
    {"name=p2s5 funcs=present:2 seed=5 population=6 generations=2 attack=plausibility query_budget=1000", "",
     "46d5a92e679fb8c4 c42f7c71b796591a 070654412f85d747 0641fce2f1d139d1 0641fce2f1d139d1 71f0dba61fee2322"},
    {"funcs=present:2", "",
     "32bba357d34e37fa c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 12aec1209e4be300"},
    {"funcs=present:2 funcs=des:3", "",
     "bb5083eb5896ced4 223649524aee5b52 c47e925975f90be1 3a1793c1870cd4df 3a1793c1870cd4df f8b9c7fd327e6606"},
    {"funcs=present:2 population=9", "",
     "06d2cec5db8ab1a3 fa183f204c72fd8d 807f1ec6a442d602 81ed78212bc75b3c 81ed78212bc75b3c f36f85922e661a13"},
    {"funcs=present:2 pop=9", "",
     "06d2cec5db8ab1a3 fa183f204c72fd8d 807f1ec6a442d602 81ed78212bc75b3c 81ed78212bc75b3c f36f85922e661a13"},
    {"funcs=present:2 generations=5", "",
     "3aac8c48d5dd345d 51724ada9c0ccdef 1aad73ff7eb2f7c4 6b916dd720ce85ba 6b916dd720ce85ba 6142f46ea4aee191"},
    {"funcs=present:2 gens=5", "",
     "3aac8c48d5dd345d 51724ada9c0ccdef 1aad73ff7eb2f7c4 6b916dd720ce85ba 6b916dd720ce85ba 6142f46ea4aee191"},
    {"funcs=present:2 baseline=0", "",
     "e69f8ca377b39483 23384929cc75121f f0a22a3af75561d0 a46e8c80ec3fa47e a46e8c80ec3fa47e 243d328e456e6b73"},
    {"funcs=present:2 final_best=0", "",
     "85bd1b6475ccff27 c1a76688cfc4e2a6 cd93f1a7d771a0aa 687c26309a62e2a8 687c26309a62e2a8 16a2d932a3621faf"},
    {"funcs=present:2 verify=0", "",
     "622d411ca450f809 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 e98a0b8bd9c70b57"},
    {"funcs=present:2 name=golden", "",
     "32bba357d34e37fa c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 12aec1209e4be300"},
    {"funcs=present:2 seed=42", "",
     "608059bdc85214cf c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 12aec1209e4be300"},
    {"funcs=present:2 camo=0", "",
     "40f6855a19bff81f c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 3a31d994fceb3977"},
    {"funcs=present:2 attack=cegar", "",
     "a8c898aebef1a35a c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 f36539fb28f556e0"},
    {"funcs=present:2 attack=none", "",
     "32bba357d34e37fa c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 12aec1209e4be300"},
    {"funcs=present:2 count_mode=approx", "",
     "8ae60c2d3441cad3 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 e7c2fea9687b6203"},
    {"funcs=present:2 count_mode=enumerate", "",
     "a27563e25e49c3e9 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 9e28d2a91cf2b555"},
    {"funcs=present:2 count_cache_mb=16", "",
     "e8a609d781fa85f7 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 df5229713b8961ff"},
    {"funcs=present:2 count_max_decisions=5000", "",
     "69dc9e7cf102afe6 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 2f6986e6e79580d4"},
    {"funcs=present:2 count_mode=approx epsilon=0.5", "",
     "11504889f136d1ec c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 4b53fdd4f8a286ce"},
    {"funcs=present:2 count_mode=approx delta=0.1", "",
     "392f7cc407ef9400 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 b715b5428e7a89aa"},
    {"funcs=present:2 max_survivors=99", "",
     "f8a8a9139fe8a9dc c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 6af4690b91d7477e"},
    {"funcs=present:2 enum_survivors=0", "",
     "a70448e9a4e10c79 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 dcfb659fb1331525"},
    {"funcs=present:2 preprocess=0", "",
     "6cf03698f6b2b6cb c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 24a01ba6c6bf268b"},
    {"funcs=present:2 shared_miter=0", "",
     "7d45c991cbf3c14d c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 379706d187ed4281"},
    {"funcs=present:2 canonical_inputs=1", "",
     "6c252c04cac6e151 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 c18f97a5a8b71e4d"},
    {"funcs=present:2 attack_threads=4", "",
     "97991d43e9340a33 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 b13488752700d363"},
    {"funcs=present:2 cube_vars=3", "",
     "f4831b351e5f4639 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 d2a59d562d7ecc65"},
    {"funcs=present:2 query_budget=64", "",
     "c9096541e41988d4 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 aa0ce9a1ecb00406"},
    {"funcs=present:2 oracle_noise=0.05", "",
     "f825bfe6351a2dcc c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 6bd4204a9ff0e72e"},
    {"funcs=present:2 oracle_cache=1", "",
     "38b9845edac51eb7 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 3b8b5b080621db3f"},
    {"funcs=present:2 save_transcript=t.json", "",
     "32bba357d34e37fa - - - - -"},
    {"funcs=present:2 replay_transcript=t.json", "",
     "4e75d564b65df73a - - - - -"},
    {"funcs=present:2 attack=cegar emit_proof=p.json", "",
     "a8c898aebef1a35a - - - - -"},
    {"funcs=present:2 random_warmup=32", "",
     "1e3efdbcb0a50f89 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 536974700f9c0575"},
    {"funcs=present:2 random_queries=64", "",
     "45f52f9da1ce3e85 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 12ddc15277b35d29"},
    {"funcs=present:2 metrics=1", "",
     "9fe33597f9bae4d3 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 1b36557311292003"},
    {"funcs=present:2", "elim_occ=16",
     "4cb6b71cd8626cd0 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 4193f7aae5b3c2fa"},
    {"funcs=present:2", "elim_growth=4",
     "8de1fbb5a643973e c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 469e4372a25576fc"},
    {"funcs=present:2", "map.cut_max_leaves=3",
     "0f8ed26fadaf4051 0e2152094d2da3bb ace02dedbdcb86f2 14cfd82b3db3343c 14cfd82b3db3343c bb01ffaec775234d"},
    {"funcs=present:2", "map.cut_max_cuts_per_node=6",
     "948f816607eaa84c 6ff15dd0fea23b40 d3e08f3b66671d79 945cf8f3c48fef73 945cf8f3c48fef73 1147166f3af7d2ae"},
    {"funcs=present:2", "map.cut_include_trivial=0",
     "08f7d6721eb4bf57 ff0e4e499b72b809 6e610a4f71feb49e 16365ea71630421c 16365ea71630421c 0fe44e3cf722f8df"},
    {"funcs=present:2", "map.recovery_iterations=2",
     "91cf60c43fc24b09 99a18b4b467928e3 20b7f8b213e680f2 3fd35b1081822fcc 3fd35b1081822fcc 290273e692ff4bf5"},
    {"funcs=present:2", "attack.oracle.count_seed=5",
     "6272e520b24619be c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 53cfc628d7c33a7c"},
    {"funcs=present:2", "attack.oracle.max_iterations=7",
     "aea248be8004b9d1 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 03e9bd32c03ef3cd"},
    {"funcs=present:2", "attack.oracle.warmup_seed=9",
     "0634c5754b4f5512 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 ffe960b28e78e668"},
    {"funcs=present:2", "attack.oracle.solver.elim_resolvent_limit=12",
     "16df5790a28201f5 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 f0316df0ec6a5e99"},
    {"funcs=present:2", "attack.oracle.solver.max_rounds=2",
     "d56eebe538de73d4 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 ed8b6ca50ee0cd06"},
    {"funcs=present:2", "attack.oracle.solver.inprocess_growth=1.5",
     "4b11ee4875964bb4 c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 d7509e7877868766"},
    {"funcs=present:2", "attack.oracle_model.noise_seed=3",
     "f255778be4b62a5c c1a76688cfc4e2a6 592dfe538565796f 946aec4b45047505 946aec4b45047505 bd96bc3bde25d4fe"},
    {"funcs=present:2", "ga.crossover_prob=0.5",
     "a1fd7ef8b36bdf28 f7f1ecd51d868ce4 d20374e5b7c9fbd9 d5f0ecd6f48f4b33 d5f0ecd6f48f4b33 ffa36a662df00222"},
    {"funcs=present:2", "ga.mutation_prob=0.5",
     "87a3ed6e7e352658 db930b5241de7194 e307260aca2b1c2f 13c3414fdbfec1bd 13c3414fdbfec1bd 40ecb96f0a8328d2"},
    {"funcs=present:2", "ga.tournament_size=4",
     "466aa3d2e5507a19 2accbfb454778d73 59534aa9d8af02aa 24ef2b553d052064 24ef2b553d052064 4fe7ed830f8d89c5"},
    {"funcs=present:2", "ga.elite=3",
     "67fcf3c90a27dc5b 9a14cdd90d400e85 5f43a754671b58d0 bbfd84fb07894926 bbfd84fb07894926 cc7cc4c46c37b2db"},
    {"funcs=present:2", "fitness_effort=high",
     "0c75de193d52efc0 48dd95609444bb2c 7f9d8d4b29323ccd 2e43ef6c3a9c9f6f 2e43ef6c3a9c9f6f c65f3c683fc452ea"},
    {"funcs=present:2", "fitness_build=shared-extract",
     "df57cccfe9dd1fef a5031b00f2a40351 18345a6d22d2ddb4 a122d4e26925afba a122d4e26925afba 9b1be7141fca6147"},
    {"funcs=present:2", "random_count=10",
     "273cf4c43037c059 217d183bd75f0063 35abc555ac289a12 2ee56db478c524d0 2ee56db478c524d0 63e7ec82f5793a85"},
    {"funcs=present:2", "final_effort=high",
     "aef0cfb09299543f c1a76688cfc4e2a6 bbdd4ee1016f800a 1409b454ce7641c4 1409b454ce7641c4 df1293f0ba41bc17"},
    {"funcs=present:2", "camo.subtree_max_depth=2",
     "c1b8e87989e9a3a9 c1a76688cfc4e2a6 592dfe538565796f 6827c858e4f5ffb8 6827c858e4f5ffb8 9d3abdff8f25a195"},
    {"funcs=present:2", "camo.subtree_max_signal_leaves=3",
     "198fa84c685a4503 c1a76688cfc4e2a6 592dfe538565796f be1e1e87962f7dee be1e1e87962f7dee 1e415b63126508f3"},
    {"funcs=present:2", "camo.subtree_max_candidates=64",
     "febd1b189f46fb91 c1a76688cfc4e2a6 592dfe538565796f 2e9705a7174ebba2 2e9705a7174ebba2 a24fccf0aba66d0d"},
    {"circuit=@", "",
     "6adee2989698c704 beaef8af1a320615 30097c906b6f0f6e bd272b398a4ea2d0"},
    {"circuit=@ camo_density=0.25", "",
     "6b83218cfaa3c6e3 beaef8af1a320615 2ff71a24ec85c991 4da28143abd477dd"},
    {"circuit=@ camo_cells=3", "",
     "8b581041cf9076a5 beaef8af1a320615 14941faf811f574d b11236a7e509682b"},
    {"circuit=@ camo_seed=11", "",
     "34ab56dba506410a beaef8af1a320615 35422219e63965a6 3fe4f2c40e949782"},
    {"circuit=@ camo_policy=fanout", "",
     "2c0b6f0341d65da8 beaef8af1a320615 a082e2a17c07761e f7e54185c8caea3c"},
    {"circuit=/nonexistent/mvf-golden/d.blif", "",
     "15dc1559df4d1e0e 5a6cc440f7775383 c5ad362cb6348476 6f187a386f53a68e"},
    {"circuit=@ name=golden", "",
     "6adee2989698c704 beaef8af1a320615 30097c906b6f0f6e bd272b398a4ea2d0"},
    {"circuit=@ seed=42", "",
     "4a0bfd47f3174f0f beaef8af1a320615 30097c906b6f0f6e bd272b398a4ea2d0"},
    {"circuit=@ camo=0", "",
     "5a16676266cebb97 beaef8af1a320615 30097c906b6f0f6e 7417dcc43e097989"},
    {"circuit=@ attack=cegar", "",
     "bf814a5144629364 beaef8af1a320615 30097c906b6f0f6e b8e23cfa51b2c130"},
    {"circuit=@ attack=none", "",
     "6adee2989698c704 beaef8af1a320615 30097c906b6f0f6e bd272b398a4ea2d0"},
    {"circuit=@ count_mode=approx", "",
     "78d6a477c92c52f5 beaef8af1a320615 30097c906b6f0f6e a6fc0c2ac61ce9fb"},
    {"circuit=@ count_mode=enumerate", "",
     "b5316fded1475b17 beaef8af1a320615 30097c906b6f0f6e 7cc8ace42ea04c09"},
    {"circuit=@ count_cache_mb=16", "",
     "c961f3cf3b62e461 beaef8af1a320615 30097c906b6f0f6e 4a6f4f770646dfbf"},
    {"circuit=@ count_max_decisions=5000", "",
     "a8d1c97520616818 beaef8af1a320615 30097c906b6f0f6e 42f4aa308b8041ec"},
    {"circuit=@ count_mode=approx epsilon=0.5", "",
     "bca3368fee486a1a beaef8af1a320615 30097c906b6f0f6e 797fcdb76d01fb12"},
    {"circuit=@ count_mode=approx delta=0.1", "",
     "91056dfa83966f66 beaef8af1a320615 30097c906b6f0f6e a8901e6906c74ff6"},
    {"circuit=@ max_survivors=99", "",
     "3a01164df2f5ffca beaef8af1a320615 30097c906b6f0f6e 1f75e0ab35ec50c2"},
    {"circuit=@ enum_survivors=0", "",
     "149ffec9a80fa627 beaef8af1a320615 30097c906b6f0f6e d5bc2e964859c819"},
    {"circuit=@ preprocess=0", "",
     "75364e2363a3013d beaef8af1a320615 30097c906b6f0f6e a9bff820366d0e13"},
    {"circuit=@ shared_miter=0", "",
     "ca0dc89a990956a3 beaef8af1a320615 30097c906b6f0f6e 1a731451b7e09d1d"},
    {"circuit=@ canonical_inputs=1", "",
     "c43922007bd3f26f beaef8af1a320615 30097c906b6f0f6e 7fbdcc7217618cf1"},
    {"circuit=@ attack_threads=4", "",
     "664d499badc98755 beaef8af1a320615 30097c906b6f0f6e 615d9f9862068c5b"},
    {"circuit=@ cube_vars=3", "",
     "8b0b50c917b0dee7 beaef8af1a320615 30097c906b6f0f6e a66e4f61c50d2e59"},
    {"circuit=@ query_budget=64", "",
     "c1542ca55547e592 beaef8af1a320615 30097c906b6f0f6e b2a838d5d061acfa"},
    {"circuit=@ oracle_noise=0.05", "",
     "60628ce2de2ad17a beaef8af1a320615 30097c906b6f0f6e 1bb39dfe5600dcf2"},
    {"circuit=@ oracle_cache=1", "",
     "9ad04582b53bfb21 beaef8af1a320615 30097c906b6f0f6e 5edeb046be508bff"},
    {"circuit=@ save_transcript=t.json", "",
     "6adee2989698c704 - - -"},
    {"circuit=@ replay_transcript=t.json", "",
     "e196b7af8008ef44 - - -"},
    {"circuit=@ attack=cegar emit_proof=p.json", "",
     "bf814a5144629364 - - -"},
    {"circuit=@ random_warmup=32", "",
     "d3e794d2a0345437 beaef8af1a320615 30097c906b6f0f6e 0971a69a00d46529"},
    {"circuit=@ random_queries=64", "",
     "230c202635e9bb4b beaef8af1a320615 30097c906b6f0f6e 5937c2137e1c42b5"},
    {"circuit=@ metrics=1", "",
     "d9698bd0efddccf5 beaef8af1a320615 30097c906b6f0f6e 9b18b59b093cc7fb"},
    {"circuit=@", "elim_occ=16",
     "669a7253c4a4ebb6 beaef8af1a320615 30097c906b6f0f6e 99d912c924086d46"},
    {"circuit=@", "elim_growth=4",
     "915ac7d719458920 beaef8af1a320615 30097c906b6f0f6e 63d96ca9013b7aa4"},
    {"circuit=@", "map.cut_max_leaves=3",
     "51b8e626e7d22391 633760290bbeb0c2 cd11d05741689bb9 ffc7374ae34aedef"},
    {"circuit=@", "map.cut_max_cuts_per_node=6",
     "c22ecf13850dad6e b0e9a304a12e9e63 2943805bebda153c c5401dbb5e7c656e"},
    {"circuit=@", "map.cut_include_trivial=0",
     "cf0667987edf9c11 fa11074bd6db8442 c8ee6d619178e33b 8302e5d09238a36f"},
    {"circuit=@", "map.recovery_iterations=2",
     "cc72a9f9b0004a59 f9e61e06996d771a 12e0c407eb437f69 7d5f17147aa3e907"},
    {"circuit=@", "attack.oracle.count_seed=5",
     "9ff2348f50ae63a0 beaef8af1a320615 30097c906b6f0f6e a1c7d78811d48624"},
    {"circuit=@", "attack.oracle.max_iterations=7",
     "1a9f476c6ce8c2ef beaef8af1a320615 30097c906b6f0f6e 9db3475050758a71"},
    {"circuit=@", "attack.oracle.warmup_seed=9",
     "5f1e1b1a8e3e192c beaef8af1a320615 30097c906b6f0f6e 4115d4cf9d8bda88"},
    {"circuit=@", "attack.oracle.solver.elim_resolvent_limit=12",
     "697ac02236a8e5fb beaef8af1a320615 30097c906b6f0f6e 14b61e4a2617bd25"},
    {"circuit=@", "attack.oracle.solver.max_rounds=2",
     "80fc20302d112092 beaef8af1a320615 30097c906b6f0f6e 639f084db946e5fa"},
    {"circuit=@", "attack.oracle.solver.inprocess_growth=1.5",
     "aff0740d76039372 beaef8af1a320615 30097c906b6f0f6e 48ef0de1a9b939da"},
    {"circuit=@", "attack.oracle_model.noise_seed=3",
     "4f5fbc11bf07f84a beaef8af1a320615 30097c906b6f0f6e 2e98af8a2e538642"},
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
        "funcs=present:2 query_budget=0",
        "funcs=present:2 oracle_noise=1.0",
        "funcs=present:2 oracle_noise=-0.5",
        "funcs=present:2 random_warmup=-1",
        "funcs=present:2 random_queries=0",
        "funcs=present:2 attack_threads=0",
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
