#pragma once
// The scenario-key table: every knob a scenario spec line or an `mvf`
// command line can set, declared once (the rows are in scenario_keys.cpp).
// Each row holds a key, its aliases, its value type and range, the
// pipeline stage that owns it in the S-box chain and/or the circuit chain,
// a setter, a getter for hashing and a one-line help string.  The spec
// parser, the command-line parser, validation, `mvf --help` and the
// spec_hash/stage_cache_key subsets (flow/spec_hash.hpp) all run from it.
//
// Spellings.  A spec line is whitespace-separated `key=value` tokens, '#'
// starts a comment:
//
//   name=p4 funcs=present:4 seed=3 population=8 generations=4 attack=cegar
//   funcs=des:2 seed=7 attack=cegar,plausibility camo=1 baseline=0
//
// On a command line the flag is `--` plus the key with `_` turned into
// `-` (camo_density -> --camo-density VALUE).  Bool keys read 0/1/true/
// false in a spec; on a command line `--key` means 1 and `--no-key` 0.
// Aliases follow the same rule.  `mvf --help` lists every key.
//
// Subjects come from the stages: a key owned only by an S-box-chain stage
// applies to S-box scenarios only, one owned only by a circuit-chain stage
// needs circuit=PATH, and any other key applies to both.

#include <array>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "flow/obfuscation_flow.hpp"
#include "report/json.hpp"

namespace mvf::flow {

/// One independent experiment: function set x params x seed.
struct Scenario {
    std::string name;          ///< defaults to "<family><n>-s<seed>"
    std::string family = "present";  ///< "present" or "des"
    int n = 2;                 ///< merge width (viable functions)
    FlowParams params;
};

/// The stages of the two pipeline chains, in Pipeline::standard order.  A
/// row's owning stage is an index into one of these; kNoStage means the
/// chain never reads the row.
inline constexpr std::array<std::string_view, 5> kSboxStages = {
    "pin-search", "synthesize", "camo-cover", "validate", "attack"};
inline constexpr std::array<std::string_view, 3> kCircuitStages = {
    "import", "camo-inject", "attack"};
inline constexpr int kNoStage = -1;

/// Where a row enters the canonical hash.  It has no default: a row names
/// its owning stages or says it is unhashed, so a new key cannot skip the
/// stage-cache keys (which would let `mvf serve` return a stale hit).
struct Owner {
    /// Owned by these stages and hashed at the dot-separated canonical
    /// JSON `path` in every subset from the owning stage on.  Without a
    /// path the chain's computed entries carry the value (funcs ->
    /// family/n, seed -> the key suffix and the spec's "seed").
    Owner(int sbox_stage, int circuit_stage, std::string_view path = {});
    /// Owned by no stage: not part of any hash, applies to both chains.
    static Owner unhashed();
    /// A copy under which a non-default value makes the scenario
    /// uncacheable (it ties the run to files the cache cannot see).
    Owner uncacheable() const;

    int sbox_stage;
    int circuit_stage;
    std::vector<std::string> path;  ///< split once, at table build
    bool makes_uncacheable = false;
};

/// Parses a value into the scenario; throws std::invalid_argument with
/// the reason (without the key: the front end adds the spelling).
using KeySetter = std::function<void(Scenario&, std::string_view)>;
using KeyGetter = std::function<report::Json(const Scenario&)>;

/// One row of the table.
struct ScenarioKey {
    /// Spec key; empty for FlowParams fields that are hashed but can only
    /// be set through the API.
    std::string key;
    std::vector<std::string> aliases;
    bool is_bool = false;
    bool cli = true;      ///< has a command-line flag (`metrics` has none)
    std::string metavar;  ///< value placeholder in the help ("N", "FILE")
    std::string help;
    Owner owner;
    KeySetter set;
    KeyGetter get;
};

/// The table, in `mvf --help` order.
const std::vector<ScenarioKey>& scenario_keys();

/// A scenario being parsed: the values so far and, per row, the spelling
/// the user typed (validation messages quote it).
class ScenarioDraft {
public:
    enum class Front { kSpec, kCli };
    explicit ScenarioDraft(Front front);

    Scenario scenario;

    /// Applies one spec token's key and value; throws std::invalid_argument.
    void set_spec(std::string_view key, std::string_view value);
    /// Applies the command-line scenario flag argv[*i], consuming its value
    /// (advancing *i).  Returns false when argv[*i] names no scenario key;
    /// throws std::invalid_argument on a missing or bad value.
    bool set_flag(int argc, const char* const* argv, int* i);
    /// True when the user gave `key` in any spelling.
    bool given(std::string_view key) const;

    /// Checks the contradiction rules, turns a max_survivors cap into
    /// count_mode enumerate, marks circuit scenarios and names an unnamed
    /// scenario.  Throws std::invalid_argument.
    Scenario finish() &&;

private:
    void apply(std::size_t row, std::string spelling, std::string_view value);
    std::string spell(std::string_view key) const;

    Front front_;
    std::vector<std::string> spelled_;  ///< per row; "" = not given
};

/// True when `arg` is the command-line flag of a scenario key.
bool is_scenario_flag(std::string_view arg);

/// Why emit_proof cannot certify this attack ("" when it can): a replayed
/// transcript or a panel without cegar.  `spell` names a key
/// the way the caller's user spells it.  Shared by validation and
/// AttackStage, which guards API callers.
std::string emit_proof_conflict(
    const FlowParams& params, const std::vector<std::string>& panel,
    const std::function<std::string(std::string_view)>& spell);

/// `mvf --help`'s scenario section: one line per spelled key and alias.
std::string scenario_help();

/// Parses the spec format above; throws std::invalid_argument with a line
/// number on malformed input or contradictory keys.
std::vector<Scenario> parse_scenario_spec(const std::string& text);

/// parse_scenario_spec over a file's contents.
std::vector<Scenario> load_scenario_spec(const std::string& path);

/// The table's strict number parsers (the whole text must be the number),
/// shared with the process flags.  Throw std::invalid_argument("expects
/// ...").
int parse_int(std::string_view text);
double parse_double(std::string_view text);

}  // namespace mvf::flow
