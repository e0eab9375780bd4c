#include "flow/spec_hash.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>

#include "util/hash.hpp"
#include "util/sha256.hpp"

namespace mvf::flow {

namespace {

/// Getter of one canonical-tree leaf.  `fingerprint` is the circuit
/// file's, read once by the caller (see circuit_fingerprint).
using LeafGetter =
    std::function<report::Json(const Scenario&, std::string_view fingerprint)>;

/// A node of one chain's canonical JSON tree.  Children are sorted by name,
/// report::canonicalized's order, so a subset is emitted canonical without
/// a sort.  `stage` is the first stage whose subset holds the node.
struct Node {
    std::string name;
    int stage = 0;
    LeafGetter get;  ///< leaves only
    std::vector<Node> children;
};

void insert(Node* node, const std::vector<std::string>& path, int stage,
            LeafGetter get) {
    for (const std::string& part : path) {
        auto it = std::find_if(
            node->children.begin(), node->children.end(),
            [&part](const Node& c) { return c.name == part; });
        if (it == node->children.end()) {
            node->children.push_back(Node{part, stage, {}, {}});
            it = node->children.end() - 1;
        }
        node = &*it;
        node->stage = std::min(node->stage, stage);
    }
    node->get = std::move(get);
}

void sort_tree(Node* node) {
    std::sort(node->children.begin(), node->children.end(),
              [](const Node& a, const Node& b) { return a.name < b.name; });
    for (Node& c : node->children) sort_tree(&c);
}

/// One chain's tree: the rows it reads plus its computed entries.  Stage
/// index `stages` (one past the attack stage) is the full canonical form.
struct Chain {
    std::vector<std::string_view> stages;
    Node root;
};

Chain build_chain(bool circuit) {
    Chain c;
    if (circuit) {
        c.stages.assign(kCircuitStages.begin(), kCircuitStages.end());
    } else {
        c.stages.assign(kSboxStages.begin(), kSboxStages.end());
    }
    const auto computed = [&c](const char* name, int stage, KeyGetter get) {
        insert(&c.root, {name}, stage,
               [get = std::move(get)](const Scenario& s, std::string_view) {
                   return get(s);
               });
    };
    computed("schema", 0,
             [](const Scenario&) { return report::Json(kSpecSchemaVersion); });
    if (circuit) {
        // The import stage depends on the file's CONTENTS, not just its
        // path: editing the circuit on disk must miss in serve::StageCache
        // rather than warm-hit a stale snapshot.
        computed("kind", 0,
                 [](const Scenario&) { return report::Json("circuit"); });
        insert(&c.root, {"circuit_sha256"}, 0,
               [](const Scenario&, std::string_view fingerprint) {
                   return report::Json(std::string(fingerprint));
               });
    } else {
        computed("family", 0,
                 [](const Scenario& s) { return report::Json(s.family); });
        computed("n", 0, [](const Scenario& s) { return report::Json(s.n); });
    }
    // Stage keys spell the seed out instead of hashing it; only the full
    // form carries it.
    computed("seed", static_cast<int>(c.stages.size()),
             [](const Scenario& s) { return report::Json(s.params.seed); });
    for (const ScenarioKey& k : scenario_keys()) {
        const int stage = circuit ? k.owner.circuit_stage : k.owner.sbox_stage;
        if (stage != kNoStage && !k.owner.path.empty()) {
            insert(&c.root, k.owner.path, stage,
                   [get = k.get](const Scenario& s, std::string_view) {
                       return get(s);
                   });
        }
    }
    sort_tree(&c.root);
    return c;
}

const Chain& chain_of(const Scenario& s) {
    static const Chain sbox = build_chain(false);
    static const Chain circuit = build_chain(true);
    return s.params.circuit.path.empty() ? sbox : circuit;
}

report::Json emit(const Node& node, const Scenario& s,
                  std::string_view fingerprint, int stage) {
    if (node.get) return node.get(s, fingerprint);
    report::Json j = report::Json::object();
    for (const Node& c : node.children) {
        if (c.stage <= stage) j.set(c.name, emit(c, s, fingerprint, stage));
    }
    return j;
}

/// The full canonical form: every stage's subset.
report::Json canonical_form(const Scenario& s, std::string_view fingerprint) {
    const Chain& c = chain_of(s);
    return emit(c.root, s, fingerprint, static_cast<int>(c.stages.size()));
}

/// True when a row that ties the run to files the cache cannot see
/// (transcript record/replay, proof emission) is set.
bool uncacheable(const Scenario& s) {
    static const std::vector<std::pair<const ScenarioKey*, report::Json>> rows =
        [] {
            std::vector<std::pair<const ScenarioKey*, report::Json>> out;
            for (const ScenarioKey& k : scenario_keys()) {
                if (k.owner.makes_uncacheable) {
                    out.emplace_back(&k, k.get(Scenario{}));
                }
            }
            return out;
        }();
    return std::any_of(rows.begin(), rows.end(), [&s](const auto& row) {
        return row.first->get(s) != row.second;
    });
}

}  // namespace

std::string circuit_fingerprint(const Scenario& scenario) {
    const std::string& path = scenario.params.circuit.path;
    if (path.empty()) return "";
    std::ifstream in(path, std::ios::binary);
    if (!in) return "unreadable";
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return util::sha256_hex(bytes.str());
}

report::Json canonical_spec_json(const Scenario& scenario) {
    return canonical_form(scenario, circuit_fingerprint(scenario));
}

std::string spec_hash(const Scenario& scenario) {
    return spec_hash(scenario, circuit_fingerprint(scenario));
}

std::string spec_hash(const Scenario& scenario, std::string_view fingerprint) {
    return util::fnv1a64_hex(canonical_form(scenario, fingerprint).dump());
}

std::string stage_cache_key(const Scenario& scenario, std::string_view stage) {
    return stage_cache_key(scenario, stage, circuit_fingerprint(scenario));
}

std::string stage_cache_key(const Scenario& scenario, std::string_view stage,
                            std::string_view fingerprint) {
    const Chain& c = chain_of(scenario);
    // Custom stages opt into caching by name, not by default.
    const auto it = std::find(c.stages.begin(), c.stages.end(), stage);
    if (it == c.stages.end() || uncacheable(scenario)) return "";
    const int index = static_cast<int>(it - c.stages.begin());
    return util::fnv1a64_hex(emit(c.root, scenario, fingerprint, index).dump()) +
           ":s" + std::to_string(scenario.params.seed) + ":" + std::string(stage);
}

}  // namespace mvf::flow
