// File-based (circuit=PATH) scenarios end to end: spec parsing and its
// contradiction rules, the import -> inject -> attack pipeline, the
// CEGAR-vs-exhaustive survivor differential on a real benchmark, content-
// hash cache invalidation when the circuit file changes on disk, and
// serial/parallel bit-identity of the records.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "attack/oracle.hpp"
#include "attack/oracle_attack.hpp"
#include "audit/attack_proof.hpp"
#include "camo/inject.hpp"
#include "flow/scheduler.hpp"
#include "flow/spec_hash.hpp"
#include "flow/stage_io.hpp"
#include "io/import.hpp"
#include "net/aig_sim.hpp"
#include "serve/stage_cache.hpp"
#include "sim/netlist_sim.hpp"

namespace mvf::flow {
namespace {

using camo::CamoNetlist;

const char* kC17Bench =
    "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\n"
    "OUTPUT(22)\nOUTPUT(23)\n"
    "10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n"
    "19 = NAND(11, 7)\n22 = NAND(10, 16)\n23 = NAND(16, 19)\n";

std::string write_temp_circuit(const std::string& name,
                               const std::string& text) {
    const std::string path = testing::TempDir() + name;
    std::ofstream out(path, std::ios::binary);
    out << text;
    return path;
}

// -------------------------------------------------------------- spec keys --

TEST(CircuitSpec, ParsesCircuitAndCamoKeys) {
    const auto scenarios = parse_scenario_spec(
        "name=x circuit=bench/c432.blif camo_density=0.5 camo_seed=9 "
        "camo_policy=fanout seed=3 attack=cegar max_survivors=64\n");
    ASSERT_EQ(scenarios.size(), 1u);
    const Scenario& s = scenarios[0];
    EXPECT_EQ(s.name, "x");
    EXPECT_EQ(s.family, "circuit");
    EXPECT_EQ(s.n, 0);
    EXPECT_EQ(s.params.circuit.path, "bench/c432.blif");
    EXPECT_DOUBLE_EQ(s.params.circuit.camo_density, 0.5);
    EXPECT_EQ(s.params.circuit.camo_seed, 9u);
    EXPECT_EQ(s.params.circuit.camo_policy, "fanout");
    EXPECT_EQ(s.params.seed, 3u);
    EXPECT_EQ(s.params.adversaries, (std::vector<std::string>{"cegar"}));
}

TEST(CircuitSpec, DefaultNameIsFileStemAndSeed) {
    const auto scenarios =
        parse_scenario_spec("circuit=some/dir/c880.bench seed=7 attack=cegar\n");
    ASSERT_EQ(scenarios.size(), 1u);
    EXPECT_EQ(scenarios[0].name, "c880-s7");
}

TEST(CircuitSpec, ContradictionsAreRejected) {
    const char* bad[] = {
        "circuit=a.blif funcs=present:2\n",        // two subjects
        "funcs=present:2 camo_density=0.5\n",      // camo_* without circuit
        "circuit=a.blif population=8\n",           // S-box-flow key
        "circuit=a.blif generations=4\n",
        "circuit=a.blif baseline=1\n",
        "circuit=a.blif verify=1\n",
        "circuit=a.blif camo_density=0.5 camo_cells=2\n",  // two budgets
        "circuit=a.blif attack=plausibility\n",    // needs the viable set
        "circuit=a.blif camo_density=1.5\n",       // out of (0, 1]
        "circuit=a.blif camo_density=0\n",
        "circuit=a.blif camo_cells=0\n",           // must be >= 1
        "circuit=a.blif camo_policy=bogus\n",
        "circuit=\n",                              // empty path
    };
    for (const char* text : bad) {
        EXPECT_THROW(parse_scenario_spec(text), std::invalid_argument) << text;
    }
}

TEST(CircuitSpec, HashCoversFileContents) {
    const std::string path = write_temp_circuit("hash_c17.bench", kC17Bench);
    Scenario s;
    s.family = "circuit";
    s.n = 0;
    s.params.circuit.path = path;
    s.params.adversaries = {"cegar"};
    const std::string before = spec_hash(s);
    const std::string key_before = stage_cache_key(s, "import");
    ASSERT_FALSE(before.empty());
    ASSERT_FALSE(key_before.empty());
    {
        std::ofstream out(path, std::ios::app);
        out << "# a comment changes the bytes, not the circuit\n";
    }
    // Byte-level fingerprint: ANY edit must change the hash and every
    // stage key, so serve::StageCache misses instead of serving a stale
    // snapshot of the old file.
    EXPECT_NE(spec_hash(s), before);
    EXPECT_NE(stage_cache_key(s, "import"), key_before);
}

/// Records every stage key the pipeline looks up or stores; never hits.
class KeyRecorder final : public StageStore {
public:
    bool load(const std::string& key, report::Json*) override {
        keys.insert(key);
        return false;
    }
    void store(const std::string& key, const report::Json&) override {
        keys.insert(key);
    }
    std::set<std::string> keys;
};

TEST(CircuitSpec, OneRunHashesOneReadingOfTheFile) {
    // run_scenario fingerprints the circuit once: the record's spec_hash
    // and every stage key it uses hash the file as it was when the run
    // began, even when the file changes mid-run.  The next run reads it
    // again, so its keys follow the edit.
    const std::string path = write_temp_circuit("run_once_c17.bench", kC17Bench);
    Scenario s;
    s.family = "circuit";
    s.n = 0;
    s.params.circuit.path = path;
    s.params.adversaries = {"cegar"};
    const auto keys_now = [&s] {
        std::set<std::string> keys;
        for (const std::string_view stage : kCircuitStages) {
            keys.insert(stage_cache_key(s, stage));
        }
        return keys;
    };
    const std::string hash_before = spec_hash(s);
    const std::set<std::string> keys_before = keys_now();
    ASSERT_EQ(keys_before.size(), kCircuitStages.size());

    KeyRecorder first_store;
    ScenarioRunHooks hooks;
    hooks.stage_store = &first_store;
    hooks.progress = [&path](const StageEvent& ev) {
        if (ev.stage == "import") {
            std::ofstream out(path, std::ios::app);
            out << "# edited after the import stage\n";
        }
    };
    const ScenarioRecord first = run_scenario(s, 0, hooks);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_EQ(first.spec_hash, hash_before);
    EXPECT_EQ(first_store.keys, keys_before);

    const std::set<std::string> keys_after = keys_now();
    KeyRecorder second_store;
    hooks.stage_store = &second_store;
    hooks.progress = nullptr;
    const ScenarioRecord second = run_scenario(s, 0, hooks);
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_NE(second.spec_hash, first.spec_hash);
    EXPECT_EQ(second.spec_hash, spec_hash(s));
    EXPECT_EQ(second_store.keys, keys_after);
    for (const std::string& key : second_store.keys) {
        EXPECT_EQ(keys_before.count(key), 0u) << key;
    }
}

// ------------------------------------------- CEGAR vs exhaustive survivors --

/// Exhaustive ground truth for injected netlists: fixed cells are pinned
/// to their configured function, free cells range over the full plausible
/// set; counts the assignments matching `targets` on every input.
std::uint64_t count_survivors_exhaustive(
    const CamoNetlist& nl, const std::vector<bool>& fixed,
    const std::vector<logic::TruthTable>& targets) {
    std::vector<int> free_cells;
    std::vector<int> config(static_cast<std::size_t>(nl.num_nodes()), -1);
    for (int id = 0; id < nl.num_nodes(); ++id) {
        const CamoNetlist::Node& n = nl.node(id);
        if (n.kind != CamoNetlist::NodeKind::kCell) continue;
        if (fixed[static_cast<std::size_t>(id)]) {
            config[static_cast<std::size_t>(id)] = n.config_fn[0];
        } else {
            config[static_cast<std::size_t>(id)] = 0;
            free_cells.push_back(id);
        }
    }
    std::uint64_t count = 0;
    while (true) {
        if (sim::simulate_camo_full(nl, config) == targets) ++count;
        std::size_t i = 0;
        for (; i < free_cells.size(); ++i) {
            const int id = free_cells[i];
            const int limit = static_cast<int>(
                nl.library().cell(nl.node(id).camo_cell_id).plausible.size());
            if (++config[static_cast<std::size_t>(id)] < limit) break;
            config[static_cast<std::size_t>(id)] = 0;
        }
        if (i == free_cells.size()) return count;
    }
}

TEST(CircuitAttack, CegarSurvivorsMatchExhaustiveOnC17) {
    std::istringstream in(kC17Bench);
    const io::ImportedCircuit circuit = io::read_bench(in);
    const tech::Netlist mapped =
        io::import_netlist(circuit, tech::MatchCache::standard());
    const camo::CamoLibrary lib =
        camo::CamoLibrary::from_gate_library(tech::GateLibrary::standard());

    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        camo::InjectParams ip;
        ip.density = 0.5;
        ip.seed = seed;
        const camo::InjectResult injected = camo::inject(mapped, lib, ip);
        const std::vector<int> hidden =
            injected.netlist.configuration_for_code(0);
        // The hidden config computes the imported circuit's function.
        ASSERT_EQ(sim::simulate_camo_full(injected.netlist, hidden),
                  net::simulate_full(circuit.aig));

        attack::SimOracle oracle(injected.netlist, hidden);
        attack::OracleAttackParams params;
        params.fixed_nominal = &injected.fixed_nominal;
        params.max_survivors = 1u << 20;
        const attack::OracleAttackResult r =
            attack::oracle_attack(injected.netlist, oracle, params);
        ASSERT_TRUE(r.solved()) << "seed " << seed;
        const std::uint64_t exhaustive = count_survivors_exhaustive(
            injected.netlist, injected.fixed_nominal,
            sim::simulate_camo_full(injected.netlist, hidden));
        EXPECT_EQ(r.surviving_configs, exhaustive) << "seed " << seed;
        EXPECT_GE(exhaustive, 1u);
        // The witness is a survivor: it matches the chip everywhere.
        ASSERT_FALSE(r.witness_config.empty());
        EXPECT_EQ(sim::simulate_camo_full(injected.netlist, r.witness_config),
                  sim::simulate_camo_full(injected.netlist, hidden));
        // Fixed cells stay pinned in the witness.
        for (int id = 0; id < injected.netlist.num_nodes(); ++id) {
            const CamoNetlist::Node& n = injected.netlist.node(id);
            if (n.kind != CamoNetlist::NodeKind::kCell) continue;
            if (!injected.fixed_nominal[static_cast<std::size_t>(id)]) continue;
            EXPECT_EQ(r.witness_config[static_cast<std::size_t>(id)],
                      n.config_fn[0]);
        }
    }
}

// ------------------------------------------------------------- end to end --

Scenario c17_scenario(const std::string& path, std::uint64_t seed) {
    Scenario s;
    s.name = "c17-s" + std::to_string(seed);
    s.family = "circuit";
    s.n = 0;
    s.params.seed = seed;
    s.params.circuit.path = path;
    s.params.circuit.camo_density = 0.4;
    s.params.adversaries = {"cegar"};
    s.params.oracle.max_survivors = 1u << 16;
    return s;
}

TEST(CircuitFlow, RunScenarioEndToEnd) {
    const std::string path = write_temp_circuit("flow_c17.bench", kC17Bench);
    const ScenarioRecord r = run_scenario(c17_scenario(path, 1), 0);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status, "ok");
    EXPECT_FALSE(r.spec_hash.empty());
    EXPECT_GT(r.ga_tm_area, 0.0);
    EXPECT_GT(r.camo_cells, 0);
    EXPECT_GT(r.config_space_bits, 0.0);
    ASSERT_EQ(r.attacks.size(), 1u);
    const attack::AdversaryReport& a = r.attacks[0];
    EXPECT_EQ(a.adversary, "cegar");
    EXPECT_TRUE(a.success);
    EXPECT_GE(a.survivors, 1u);
    EXPECT_EQ(a.spec_hash, r.spec_hash);
}

TEST(CircuitFlow, MissingFileSurfacesParseErrorInRecord) {
    const ScenarioRecord r =
        run_scenario(c17_scenario("/nonexistent/nope.bench", 1), 0);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.status, "error");
    EXPECT_NE(r.error.find("nope.bench"), std::string::npos) << r.error;
}

TEST(CircuitFlow, SerialAndParallelRecordsBitIdentical) {
    const std::string path = write_temp_circuit("batch_c17.bench", kC17Bench);
    const std::vector<Scenario> scenarios = {c17_scenario(path, 1),
                                             c17_scenario(path, 2)};
    const auto a = run_batch(scenarios, 1);
    const auto b = run_batch(scenarios, 2);
    ASSERT_EQ(a.size(), 2u);
    ASSERT_TRUE(a[0].ok) << a[0].error;
    ASSERT_TRUE(a[1].ok) << a[1].error;
    EXPECT_EQ(records_hash(a), records_hash(b));
}

/// The proof document a c17 attack with emit_proof writes.
report::Json emitted_c17_proof(const std::string& stem) {
    const std::string path = write_temp_circuit(stem + ".bench", kC17Bench);
    const std::string proof_path = testing::TempDir() + stem + "_proof.json";
    Scenario s = c17_scenario(path, 3);
    s.params.emit_proof = proof_path;
    const ScenarioRecord r = run_scenario(s, 0);
    EXPECT_TRUE(r.ok) << r.error;

    std::ifstream in(proof_path);
    EXPECT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    return report::Json::parse(text.str());
}

/// Parses and verifies a proof document the way `mvf verify-proof` does.
audit::ProofVerification verify_document(const report::Json& doc) {
    const audit::AttackProof proof = audit::AttackProof::from_json(doc);
    const CamoNetlist netlist = camo_netlist_from_json(
        proof.netlist,
        camo::CamoLibrary::from_gate_library(tech::GateLibrary::standard()));
    return proof.verify(netlist);
}

TEST(CircuitFlow, EmitProofVerifiesChipFree) {
    const report::Json doc = emitted_c17_proof("proof_c17");
    // Injected netlists ship fixed_nominal in the replay parameters;
    // without it the replay would free every cell and change the count.
    EXPECT_FALSE(audit::AttackProof::from_json(doc).params.fixed_nominal.empty());
    const audit::ProofVerification v = verify_document(doc);
    EXPECT_TRUE(v.ok) << (v.failures.empty() ? "" : v.failures[0]);
}

TEST(CircuitFlow, TamperedFixedNominalIsRefusedByName) {
    const report::Json doc = emitted_c17_proof("tamper_c17");
    const std::string bits = doc.at("params").at("fixed_nominal").as_string();
    ASSERT_GT(bits.size(), 2u);
    std::string stray = bits;
    stray[bits.size() - 3] = 'x';
    stray[bits.size() - 1] = 'z';
    // Characters other than 0/1, 5 flags too many, and a single flag that
    // used to send the encoder past the end of the vector.
    for (const std::string& bad : {stray, bits + "00000", std::string("1")}) {
        report::Json tampered = doc;
        report::Json params = tampered.at("params");
        params.set("fixed_nominal", bad);
        tampered.set("params", std::move(params));
        std::string failure;
        try {
            const audit::ProofVerification v = verify_document(tampered);
            EXPECT_FALSE(v.ok) << bad;
            for (const std::string& f : v.failures) failure += f + "\n";
        } catch (const report::JsonError& e) {
            failure = e.what();
        }
        EXPECT_NE(failure.find("fixed_nominal"), std::string::npos)
            << bad << ": " << failure;
    }
}

// ------------------------------------------------------ cache invalidation --

TEST(CircuitFlow, StageCacheInvalidatesWhenFileChanges) {
    const std::string path = write_temp_circuit("cache_c17.bench", kC17Bench);
    serve::StageCache cache;
    ScenarioRunHooks hooks;
    hooks.stage_store = &cache;

    const Scenario s = c17_scenario(path, 1);
    const ScenarioRecord cold = run_scenario(s, 0, hooks);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(cold.cache_hits, 0);
    ASSERT_GT(cache.stats().stores, 0u);

    const ScenarioRecord warm = run_scenario(s, 0, hooks);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_GT(warm.cache_hits, 0);
    EXPECT_EQ(records_hash({cold}), records_hash({warm}));

    // Touch the circuit's BYTES without changing its function: the
    // content-hashed keys must miss (no stale warm hit), and the fresh
    // run must agree with the original results.
    {
        std::ofstream out(path, std::ios::app);
        out << "# touched\n";
    }
    const ScenarioRecord edited = run_scenario(s, 0, hooks);
    ASSERT_TRUE(edited.ok) << edited.error;
    EXPECT_EQ(edited.cache_hits, 0);
    EXPECT_NE(edited.spec_hash, cold.spec_hash);
}

}  // namespace
}  // namespace mvf::flow
