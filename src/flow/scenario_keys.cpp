#include "flow/scenario_keys.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "camo/inject.hpp"
#include "flow/pipeline.hpp"

namespace mvf::flow {

namespace {

/// `convert` (std::stoi, std::stod) over the whole text.
template <typename Convert>
auto parse_whole(std::string_view text, Convert convert, const char* what) {
    const std::string s(text);
    try {
        std::size_t used = 0;
        const auto value = convert(s, &used);
        if (used == s.size()) return value;
    } catch (const std::exception&) {
    }
    throw std::invalid_argument(std::string("expects ") + what + ", got \"" +
                                s + "\"");
}

std::uint64_t parse_u64(std::string_view text) {
    // from_chars reads no sign and no whitespace: "-1" must not wrap to
    // 2^64 - 1 the way std::stoull's does.
    std::uint64_t value = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end) {
        throw std::invalid_argument("expects an unsigned integer, got \"" +
                                    std::string(text) + "\"");
    }
    return value;
}

}  // namespace

int parse_int(std::string_view text) {
    return parse_whole(
        text,
        [](const std::string& s, std::size_t* used) {
            return std::stoi(s, used);
        },
        "an integer");
}

double parse_double(std::string_view text) {
    return parse_whole(
        text,
        [](const std::string& s, std::size_t* used) {
            return std::stod(s, used);
        },
        "a number");
}

Owner::Owner(int sbox_stage, int circuit_stage, std::string_view path)
    : sbox_stage(sbox_stage), circuit_stage(circuit_stage) {
    for (std::size_t start = 0; !path.empty();) {
        const std::size_t dot = path.find('.', start);
        this->path.emplace_back(path.substr(start, dot - start));
        if (dot == std::string_view::npos) break;
        start = dot + 1;
    }
}

Owner Owner::unhashed() { return Owner(kNoStage, kNoStage); }

Owner Owner::uncacheable() const {
    Owner o = *this;
    o.makes_uncacheable = true;
    return o;
}

// -------------------------------------------------------------- table --

namespace {

/// A row's value type: how a spelling's text becomes the field, and back.
struct Value {
    bool is_bool = false;
    KeySetter set;
    KeyGetter get;
};

/// A check on a parsed value; the message quotes `text` ("must be >= 1").
template <typename T>
struct Rule {
    std::function<bool(const T&)> ok;
    std::string text;
};

template <typename T>
Rule<T> at_least(T lo) {
    return {[lo](const T& x) { return x >= lo; }, ">= " + std::to_string(lo)};
}

std::invalid_argument bad_choice(std::string_view value, const char* choices) {
    return std::invalid_argument("expects " + std::string(choices) +
                                 ", got \"" + std::string(value) + "\"");
}

void parse_into(std::string_view v, bool* out) {
    if (v != "1" && v != "true" && v != "0" && v != "false") {
        throw bad_choice(v, "0/1/true/false");
    }
    *out = v == "1" || v == "true";
}
void parse_into(std::string_view v, int* out) { *out = parse_int(v); }
void parse_into(std::string_view v, std::uint64_t* out) {
    *out = parse_u64(v);
}
void parse_into(std::string_view v, double* out) { *out = parse_double(v); }
void parse_into(std::string_view v, std::string* out) { *out = v; }

/// A plain field.  `F` is a captureless generic lambda naming it (FIELD
/// below names a FlowParams member), called on Scenario& to set and on
/// const Scenario& to get.
template <typename F, typename T = std::remove_cvref_t<
                          std::invoke_result_t<F, Scenario&>>>
Value field(F, Rule<T> rule = {}) {
    return {std::is_same_v<T, bool>,
            [rule](Scenario& s, std::string_view v) {
                T x{};
                parse_into(v, &x);
                if (rule.ok && !rule.ok(x)) {
                    throw std::invalid_argument("must be " + rule.text);
                }
                F{}(s) = std::move(x);
            },
            [](const Scenario& s) { return report::Json(F{}(s)); }};
}

/// An enum field whose value i is spelled names[i].
template <typename F, std::size_t N>
Value choice(F, const std::array<const char*, N>& names) {
    using E = std::remove_cvref_t<std::invoke_result_t<F, Scenario&>>;
    return {false,
            [&names](Scenario& s, std::string_view v) {
                const auto it = std::find(names.begin(), names.end(), v);
                if (it == names.end()) throw bad_choice(v, "a listed name");
                F{}(s) = static_cast<E>(it - names.begin());
            },
            [&names](const Scenario& s) {
                return report::Json(names[static_cast<std::size_t>(F{}(s))]);
            }};
}

constexpr std::array<const char*, 3> kEffortNames = {"fast", "default",
                                                     "high"};
constexpr std::array<const char*, 2> kBuildNames = {"factored",
                                                    "shared-extract"};

Value funcs_value() {
    return {false,
            [](Scenario& s, std::string_view v) {
                const std::size_t colon = v.find(':');
                if (colon == std::string_view::npos) {
                    throw bad_choice(v, "FAMILY:N");
                }
                try {
                    s.n = parse_int(v.substr(colon + 1));
                } catch (const std::invalid_argument&) {
                    throw bad_choice(v, "FAMILY:N");
                }
                s.family = std::string(v.substr(0, colon));
            },
            [](const Scenario& s) {
                return report::Json(s.family + ":" + std::to_string(s.n));
            }};
}

Value attack_value() {
    return {false,
            [](Scenario& s, std::string_view v) {
                s.params.adversaries.clear();
                if (v == "none") return;
                std::istringstream in{std::string(v)};
                for (std::string item; std::getline(in, item, ',');) {
                    if (!item.empty()) s.params.adversaries.push_back(item);
                }
            },
            [](const Scenario& s) {
                report::Json list = report::Json::array();
                for (const std::string& a : s.params.adversaries) {
                    list.push_back(a);
                }
                return list;
            }};
}

Value count_mode_value() {
    return {false,
            [](Scenario& s, std::string_view v) {
                if (!attack::count_mode_from_name(
                        v, &s.params.oracle.count_mode)) {
                    throw bad_choice(v, "exact or enumerate");
                }
            },
            [](const Scenario& s) {
                return report::Json(std::string(
                    attack::count_mode_name(s.params.oracle.count_mode)));
            }};
}

#define FIELD(member) [](auto& s) -> auto& { return s.params.member; }

std::vector<ScenarioKey> build_table() {
    // Stage indices into kSboxStages and kCircuitStages.  ValidateStage
    // owns no row: validation has no knobs of its own.
    enum { kPinSearch, kSynthesize, kCamoCover, kValidate, kAttack };
    enum { kImport, kCamoInject, kCircuitAttack };
    const auto sbox = [](int stage, const char* path) {
        return Owner(stage, kNoStage, path);
    };
    const auto circuit = [](int stage, const char* path) {
        return Owner(kNoStage, stage, path);
    };
    const auto attack = [](const char* path) {
        return Owner(kAttack, kCircuitAttack, path);
    };

    std::vector<ScenarioKey> t;
    // `names` is the key then its aliases, space-separated.
    const auto row = [&t](const char* names, Owner owner, const char* metavar,
                          Value v, const char* help) {
        std::istringstream in(names);
        std::string key;
        in >> key;
        std::vector<std::string> aliases;
        for (std::string alias; in >> alias;) aliases.push_back(alias);
        t.push_back(ScenarioKey{key, std::move(aliases), v.is_bool, true,
                                metavar, help, std::move(owner),
                                std::move(v.set), std::move(v.get)});
    };
    const auto api = [&row](Owner owner, auto field_of) {
        row("", std::move(owner), "", field(field_of), "");
    };

    // Subject.  funcs and seed are hashed through the chains' computed
    // entries (family/n; the seed suffix of every stage key).
    row("name", Owner::unhashed(), "NAME",
        field([](auto& s) -> auto& { return s.name; }),
        "label (default <family><n>-s<seed>, <file>-s<seed>)");
    row("funcs", Owner(kPinSearch, kNoStage), "FAMILY:N", funcs_value(),
        "present:1..16 or des:1..8 (default present:2)");
    row("circuit", circuit(kImport, "circuit"), "FILE",
        field(FIELD(circuit.path),
              {[](const std::string& v) { return !v.empty(); }, "a path"}),
        "import a BLIF, AIGER or .bench circuit instead");
    row("camo_density", circuit(kCamoInject, "camo_density"), "D",
        field(FIELD(circuit.camo_density),
              {[](const double& x) { return x > 0 && x <= 1; }, "in (0, 1]"}),
        "camouflage this fraction of the cells (default 0.1)");
    row("camo_cells", circuit(kCamoInject, "camo_cells"), "N",
        field(FIELD(circuit.camo_cells), at_least(1)),
        "camouflage exactly N cells instead of a fraction");
    row("camo_seed", circuit(kCamoInject, "camo_seed"), "S",
        field(FIELD(circuit.camo_seed)),
        "cell-selection seed (default 0: the scenario seed)");
    row("camo_policy", circuit(kCamoInject, "camo_policy"), "P",
        field(FIELD(circuit.camo_policy),
              {[](const std::string& v) {
                   camo::InjectPolicy policy{};
                   return camo::inject_policy_from_name(v, &policy);
               },
               "random, fanout or depth"}),
        "pick cells: random (default), fanout or depth");
    row("seed", Owner(kPinSearch, kImport), "S", field(FIELD(seed)),
        "RNG seed (default 1)");

    // S-box flow.
    row("population pop", sbox(kPinSearch, "ga.population"), "N",
        field(FIELD(ga.population), at_least(1)), "GA population (default 48)");
    row("generations gens", sbox(kPinSearch, "ga.generations"), "N",
        field(FIELD(ga.generations)), "GA generations (default 60)");
    row("baseline", sbox(kPinSearch, "run_random_baseline"), "",
        field(FIELD(run_random_baseline)),
        "equal-budget random baseline (default on)");
    row("final_best", sbox(kSynthesize, "final_best_of_builds"), "",
        field(FIELD(final_best_of_builds)),
        "best of both final build styles (default on)");
    row("camo", Owner(kAttack, kCircuitAttack, "run_camo_mapping"), "",
        field(FIELD(run_camo_mapping)),
        "camouflage covering or injection (default on)");
    row("verify", sbox(kAttack, "verify"), "", field(FIELD(verify)),
        "replay each configuration in simulation (default on)");

    // Attack panel and counting.
    row("attack adversaries", attack("attack.adversaries"), "A,B",
        attack_value(), "adversaries to run (comma list) or none");
    row("count_mode", attack("attack.oracle.count_mode"), "M",
        count_mode_value(),
        "survivor count: exact (default) or enumerate");
    row("count_cache_mb", attack("attack.oracle.count_cache_mb"), "N",
        field(FIELD(oracle.count_cache_mb), at_least(1)),
        "exact-counter component-cache budget (default 64)");
    row("count_max_decisions", attack("attack.oracle.count_max_decisions"), "N",
        field(FIELD(oracle.count_max_decisions)),
        "exact-counter branches (default 100000; 0 = off)");
    row("max_survivors", attack("attack.oracle.max_survivors"), "N",
        field(FIELD(oracle.max_survivors)),
        "cap the count (implies count_mode enumerate)");
    row("enum_survivors enumerate", attack("attack.oracle.enumerate_survivors"),
        "", field(FIELD(oracle.enumerate_survivors)),
        "count surviving configurations (default on)");
    row("preprocess", attack("attack.oracle.solver.preprocess"), "",
        field(FIELD(oracle.solver.preprocess)),
        "SAT preprocessing and inprocessing (default on)");
    row("shared_miter", attack("attack.oracle.shared_miter"), "",
        field(FIELD(oracle.shared_miter)),
        "one-copy CEGAR miter; off = legacy two-copy encoding");
    row("canonical_inputs", attack("attack.oracle.canonical_inputs"), "",
        field(FIELD(oracle.canonical_inputs)),
        "lex-min distinguishing inputs (slow at 16+ PIs)");
    row("elim_occ", attack("attack.oracle.solver.elim_occ_limit"), "N",
        field(FIELD(oracle.solver.elim_occ_limit)),
        "BVE occurrence bound (default 32)");
    row("elim_growth", attack("attack.oracle.solver.elim_growth"), "N",
        field(FIELD(oracle.solver.elim_growth)),
        "BVE clause-growth bound (default 8)");

    // Oracle threat model.
    row("query_budget", attack("attack.oracle_model.query_budget"), "N",
        field(FIELD(oracle_model.query_budget),
              at_least(std::uint64_t{1})),
        "the chip answers at most N patterns");
    row("oracle_noise", attack("attack.oracle_model.noise"), "P",
        field(FIELD(oracle_model.noise),
              {[](const double& x) { return x >= 0 && x < 1; }, "in [0, 1)"}),
        "flip each answered output bit with probability P");
    row("oracle_cache", attack("attack.oracle_model.cache"), "",
        field(FIELD(oracle_model.cache)),
        "dedupe repeated patterns before budget and chip");
    row("save_transcript", Owner::unhashed().uncacheable(), "FILE",
        field(FIELD(save_transcript)), "record the oracle transcript as JSON");
    row("replay_transcript", attack("attack.replay_transcript").uncacheable(),
        "FILE", field(FIELD(replay_transcript)),
        "answer from a recorded transcript, not the chip");
    row("emit_proof", Owner::unhashed().uncacheable(), "FILE",
        field(FIELD(emit_proof)),
        "write a proof of the cegar run (see verify-proof)");
    row("random_warmup", attack("attack.oracle.random_warmup"), "N",
        field(FIELD(oracle.random_warmup), at_least(0)),
        "CEGAR warm-up: N random patterns before the loop");
    row("random_queries", attack("attack.random_queries"), "N",
        field(FIELD(random_queries), at_least(1)),
        "random-sampling adversary's budget (default 128)");
    row("metrics", attack("attack.oracle.collect_metrics"), "",
        field(FIELD(oracle.collect_metrics)),
        "spec only: per-attack latency histograms");
    // The process flag --metrics already collects for the whole run.
    t.back().cli = false;

    // Hashed FlowParams fields with no spelling.
    api(sbox(kPinSearch, "ga.crossover_prob"), FIELD(ga.crossover_prob));
    api(sbox(kPinSearch, "ga.mutation_prob"), FIELD(ga.mutation_prob));
    api(sbox(kPinSearch, "ga.tournament_size"), FIELD(ga.tournament_size));
    api(sbox(kPinSearch, "ga.elite"), FIELD(ga.elite));
    row("", sbox(kPinSearch, "fitness_effort"), "",
        choice(FIELD(fitness_effort), kEffortNames), "");
    row("", sbox(kPinSearch, "fitness_build"), "",
        choice(FIELD(fitness_build), kBuildNames), "");
    api(Owner(kPinSearch, kImport, "map.cut_max_leaves"),
        FIELD(map.cuts.max_leaves));
    api(Owner(kPinSearch, kImport, "map.cut_max_cuts_per_node"),
        FIELD(map.cuts.max_cuts_per_node));
    api(Owner(kPinSearch, kImport, "map.cut_include_trivial"),
        FIELD(map.cuts.include_trivial));
    api(Owner(kPinSearch, kImport, "map.recovery_iterations"),
        FIELD(map.recovery_iterations));
    api(sbox(kPinSearch, "random_count"), FIELD(random_count));
    row("", sbox(kSynthesize, "final_effort"), "",
        choice(FIELD(final_effort), kEffortNames), "");
    api(sbox(kCamoCover, "camo.subtree_max_depth"),
        FIELD(camo.subtree.max_depth));
    api(sbox(kCamoCover, "camo.subtree_max_signal_leaves"),
        FIELD(camo.subtree.max_signal_leaves));
    api(sbox(kCamoCover, "camo.subtree_max_candidates"),
        FIELD(camo.subtree.max_candidates));
    api(attack("attack.oracle.max_iterations"), FIELD(oracle.max_iterations));
    api(attack("attack.oracle.warmup_seed"), FIELD(oracle.warmup_seed));
    api(attack("attack.oracle.solver.elim_resolvent_limit"),
        FIELD(oracle.solver.elim_resolvent_limit));
    api(attack("attack.oracle.solver.max_rounds"),
        FIELD(oracle.solver.max_rounds));
    api(attack("attack.oracle.solver.inprocess_growth"),
        FIELD(oracle.solver.inprocess_growth));
    api(attack("attack.oracle_model.noise_seed"),
        FIELD(oracle_model.noise_seed));
    return t;
}

#undef FIELD

std::string dashed(std::string name) {
    std::replace(name.begin(), name.end(), '_', '-');
    return name;
}

/// Spelling -> row, built once from the table.
struct Lookup {
    std::map<std::string, std::size_t, std::less<>> spec;
    /// Command-line flag -> (row, negated: the --no- form of a bool).
    std::map<std::string, std::pair<std::size_t, bool>, std::less<>> cli;
};

const Lookup& lookup() {
    static const Lookup l = [] {
        Lookup out;
        const std::vector<ScenarioKey>& keys = scenario_keys();
        for (std::size_t r = 0; r < keys.size(); ++r) {
            if (keys[r].key.empty()) continue;
            std::vector<std::string> names = keys[r].aliases;
            names.push_back(keys[r].key);
            for (const std::string& name : names) {
                out.spec.emplace(name, r);
                if (!keys[r].cli) continue;
                out.cli.emplace("--" + dashed(name), std::pair{r, false});
                if (keys[r].is_bool) {
                    out.cli.emplace("--no-" + dashed(name), std::pair{r, true});
                }
            }
        }
        return out;
    }();
    return l;
}

std::size_t row_of(std::string_view key) {
    return lookup().spec.find(key)->second;
}

std::string file_stem(const std::string& path) {
    const std::size_t slash = path.find_last_of("/\\");
    const std::size_t start = slash == std::string::npos ? 0 : slash + 1;
    const std::size_t dot = path.find_last_of('.');
    const std::size_t end =
        (dot == std::string::npos || dot <= start) ? path.size() : dot;
    return path.substr(start, end - start);
}

}  // namespace

const std::vector<ScenarioKey>& scenario_keys() {
    static const std::vector<ScenarioKey> table = build_table();
    return table;
}

bool is_scenario_flag(std::string_view arg) {
    return lookup().cli.find(arg) != lookup().cli.end();
}

std::string scenario_help() {
    std::string out;
    const auto line = [&out](const std::string& spelling,
                             const std::string& help) {
        std::string left = "  " + spelling;
        left.resize(std::max<std::size_t>(left.size() + 1, 28), ' ');
        out += left + help + "\n";
    };
    for (const ScenarioKey& k : scenario_keys()) {
        if (k.key.empty()) continue;
        const auto spelling = [&k](const std::string& name) {
            if (!k.cli) return name + "=0|1";
            return (k.is_bool ? "--[no-]" : "--") + dashed(name) +
                   (k.metavar.empty() ? "" : " " + k.metavar);
        };
        line(spelling(k.key), k.help);
        for (const std::string& alias : k.aliases) {
            line(spelling(alias), "same as " + spelling(k.key));
        }
    }
    return out;
}

// -------------------------------------------------------------- draft --

ScenarioDraft::ScenarioDraft(Front front)
    : front_(front), spelled_(scenario_keys().size()) {}

void ScenarioDraft::apply(std::size_t row, std::string spelling,
                          std::string_view value) {
    try {
        scenario_keys()[row].set(scenario, value);
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(spelling + " " + e.what());
    }
    spelled_[row] = std::move(spelling);
}

void ScenarioDraft::set_spec(std::string_view key, std::string_view value) {
    const auto it = lookup().spec.find(key);
    if (it == lookup().spec.end()) {
        throw std::invalid_argument("unknown key \"" + std::string(key) +
                                    "\" (mvf --help lists the keys)");
    }
    apply(it->second, std::string(key), value);
}

bool ScenarioDraft::set_flag(int argc, const char* const* argv, int* i) {
    const std::string arg = argv[*i];
    const auto it = lookup().cli.find(arg);
    if (it == lookup().cli.end()) return false;
    const auto [row, negated] = it->second;
    if (scenario_keys()[row].is_bool) {
        apply(row, arg, negated ? "0" : "1");
    } else if (*i + 1 < argc) {
        apply(row, arg, argv[++*i]);
    } else {
        throw std::invalid_argument(arg + " needs a value");
    }
    return true;
}

bool ScenarioDraft::given(std::string_view key) const {
    return !spelled_[row_of(key)].empty();
}

std::string ScenarioDraft::spell(std::string_view key) const {
    const std::string& typed = spelled_[row_of(key)];
    if (!typed.empty()) return typed;
    return front_ == Front::kSpec ? std::string(key)
                                  : "--" + dashed(std::string(key));
}

std::string emit_proof_conflict(
    const FlowParams& params, const std::vector<std::string>& panel,
    const std::function<std::string(std::string_view)>& spell) {
    if (params.emit_proof.empty()) return "";
    // A proof certifies a fresh CEGAR run: a replay has no chip to commit
    // for.
    const std::string emit = spell("emit_proof");
    if (!params.replay_transcript.empty()) {
        return emit + " contradicts " + spell("replay_transcript");
    }
    if (std::find(panel.begin(), panel.end(), "cegar") == panel.end()) {
        return emit + " requires the cegar adversary in the " +
               spell("attack") + " panel";
    }
    return "";
}

Scenario ScenarioDraft::finish() && {
    const std::vector<ScenarioKey>& keys = scenario_keys();
    FlowParams& p = scenario.params;
    const auto fail = [](const std::string& why) {
        throw std::invalid_argument(why);
    };

    // Subjects: a key owned only by the other chain's stages does not
    // apply to this scenario.
    const bool is_circuit = !p.circuit.path.empty();
    for (std::size_t r = 0; r < keys.size(); ++r) {
        const Owner& o = keys[r].owner;
        const int own = is_circuit ? o.circuit_stage : o.sbox_stage;
        const int other = is_circuit ? o.sbox_stage : o.circuit_stage;
        if (!spelled_[r].empty() && own == kNoStage && other != kNoStage) {
            fail(spelled_[r] +
                 (is_circuit ? " applies to S-box scenarios only, not to "
                             : " applies only to scenarios with ") +
                 spell("circuit"));
        }
    }
    if (given("camo_density") && given("camo_cells")) {
        fail(spell("camo_density") + " and " + spell("camo_cells") +
             " both size the camouflage budget; pick one");
    }
    if (is_circuit && std::find(p.adversaries.begin(), p.adversaries.end(),
                                "plausibility") != p.adversaries.end()) {
        fail("plausibility needs the viable-function set, which " +
             spell("circuit") +
             " scenarios lack (pick cegar or random-sampling)");
    }

    // Counting: each key applies to one count_mode, none when counting is
    // off, and a survivor cap is a request for capped enumeration.
    using attack::CountMode;
    if (given("enum_survivors") && !p.oracle.enumerate_survivors) {
        for (const char* key : {"count_mode", "count_cache_mb",
                                "count_max_decisions", "max_survivors"}) {
            if (given(key)) {
                fail(spell("enum_survivors") + " (no counting) contradicts " +
                     spell(key));
            }
        }
    }
    if (given("max_survivors")) {
        if (given("count_mode") &&
            p.oracle.count_mode != CountMode::kEnumerate) {
            fail(spell("max_survivors") + " only applies to " +
                 spell("count_mode") + " enumerate");
        }
        p.oracle.count_mode = CountMode::kEnumerate;
    }
    for (const char* key : {"count_cache_mb", "count_max_decisions"}) {
        if (given(key) && p.oracle.count_mode != CountMode::kExact) {
            fail(spell(key) + " only applies to " + spell("count_mode") +
                 " exact");
        }
    }

    // Replay serves recorded answers: fresh noise would corrupt a
    // transcript that already embeds its own, and a cache desynchronizes
    // the replay cursor on duplicate patterns.
    if (!p.replay_transcript.empty()) {
        const std::string replay = spell("replay_transcript") + " contradicts ";
        if (given("oracle_noise")) fail(replay + spell("oracle_noise"));
        if (p.oracle_model.cache) fail(replay + spell("oracle_cache"));
    }
    const std::string proof = emit_proof_conflict(
        p, p.adversaries, [this](std::string_view k) { return spell(k); });
    if (!proof.empty()) fail(proof);

    if (is_circuit) {
        scenario.family = "circuit";
        scenario.n = 0;
    }
    if (scenario.name.empty()) {
        scenario.name = (is_circuit ? file_stem(p.circuit.path)
                                    : scenario.family +
                                          std::to_string(scenario.n)) +
                        "-s" + std::to_string(p.seed);
    }
    return std::move(scenario);
}

// --------------------------------------------------------------- spec --

std::vector<Scenario> parse_scenario_spec(const std::string& text) {
    std::vector<Scenario> scenarios;
    std::istringstream in(text);
    std::string raw;
    for (int line_no = 1; std::getline(in, raw); ++line_no) {
        raw.resize(std::min(raw.find('#'), raw.size()));
        std::istringstream tokens(raw);
        std::string token;
        if (!(tokens >> token)) continue;  // blank/comment line
        try {
            ScenarioDraft draft(ScenarioDraft::Front::kSpec);
            do {
                const std::size_t eq = token.find('=');
                if (eq == std::string::npos) {
                    throw std::invalid_argument("expected key=value, got \"" +
                                                token + "\"");
                }
                draft.set_spec(std::string_view(token).substr(0, eq),
                               std::string_view(token).substr(eq + 1));
            } while (tokens >> token);
            scenarios.push_back(std::move(draft).finish());
        } catch (const std::invalid_argument& e) {
            throw std::invalid_argument("scenario spec line " +
                                        std::to_string(line_no) + ": " +
                                        e.what());
        }
    }
    return scenarios;
}

std::vector<Scenario> load_scenario_spec(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::invalid_argument("cannot open scenario spec: " + path);
    }
    std::ostringstream text;
    text << in.rdbuf();
    return parse_scenario_spec(text.str());
}

}  // namespace mvf::flow
