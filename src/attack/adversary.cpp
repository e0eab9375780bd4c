#include "attack/adversary.hpp"

#include <algorithm>
#include <stdexcept>

#include "attack/plausibility.hpp"
#include "util/stopwatch.hpp"

namespace mvf::attack {

namespace {

void accumulate(sat::Solver::Stats* into, const sat::Solver::Stats& from) {
    into->conflicts += from.conflicts;
    into->decisions += from.decisions;
    into->propagations += from.propagations;
    into->restarts += from.restarts;
    into->learned += from.learned;
    into->reduces += from.reduces;
    into->learned_removed += from.learned_removed;
    into->preprocess_runs += from.preprocess_runs;
    into->eliminated_vars += from.eliminated_vars;
    into->subsumed_clauses += from.subsumed_clauses;
    into->strengthened_lits += from.strengthened_lits;
    into->solves += from.solves;
    into->solve_seconds += from.solve_seconds;
    // A maximum, not a total: the deepest level any aggregated call reached.
    into->max_decision_level =
        std::max(into->max_decision_level, from.max_decision_level);
}

/// The survivor figures an oracle adversary reports from its counting tail.
void copy_count(const OracleAttackResult& res, AdversaryReport* report) {
    report->survivors = res.surviving_configs;
    if (res.counted) {
        report->survivors_str = res.survivors.to_string();
        report->count_mode = std::string(count_mode_name(res.count_mode));
        report->count = res.count_stats;
    }
}

}  // namespace

std::string_view knowledge_name(Knowledge k) {
    switch (k) {
        case Knowledge::kNetlistOnly: return "netlist-only";
        case Knowledge::kViableSet: return "viable-set";
        case Knowledge::kWorkingChip: return "working-chip";
    }
    return "unknown";
}

report::Json AdversaryReport::to_json() const {
    report::Json j = report::Json::object();
    j.set("adversary", adversary);
    j.set("success", success);
    j.set("outcome", outcome);
    j.set("queries", queries);
    // JSON numbers are doubles: values beyond 2^53 would not round-trip
    // (and casting their parse back to uint64 is UB at 2^64).  The numeric
    // field is a dashboard convenience pinned to 2^53; survivors_str below
    // carries full precision and wins on parse.
    j.set("survivors", std::min(survivors, std::uint64_t{1} << 53));
    j.set("seconds", seconds);
    if (!spec_hash.empty()) {
        j.set("spec_hash", spec_hash);
    }
    if (!count_mode.empty()) {
        report::Json c = report::Json::object();
        c.set("mode", count_mode);
        c.set("survivors_str", survivors_str);
        c.set("decisions", count.decisions);
        c.set("propagations", count.propagations);
        c.set("components", count.components);
        c.set("cache_hits", count.cache_hits);
        c.set("cache_stores", count.cache_stores);
        c.set("cache_evictions", count.cache_evictions);
        c.set("sat_checks", count.sat_checks);
        c.set("cache_entries", static_cast<std::uint64_t>(count.cache_entries));
        c.set("cache_peak_bytes",
              static_cast<std::uint64_t>(count.cache_peak_bytes));
        j.set("count", std::move(c));
    }
    if (!(oracle == OracleStats{})) {
        report::Json o = report::Json::object();
        o.set("scalar_queries", oracle.scalar_queries);
        o.set("block_queries", oracle.block_queries);
        o.set("patterns", oracle.patterns);
        o.set("cache_hits", oracle.cache_hits);
        o.set("noisy_bits", oracle.noisy_bits);
        o.set("budget", oracle.budget);
        o.set("budget_exhausted", oracle.budget_exhausted);
        j.set("oracle", std::move(o));
    }
    if (!metrics.empty()) {
        j.set("metrics", metrics.to_json());
    }
    if (!audit_merkle_root.empty()) {
        report::Json a = report::Json::object();
        a.set("merkle_root", audit_merkle_root);
        a.set("committed", audit_committed);
        j.set("audit", std::move(a));
    }
    report::Json s = report::Json::object();
    s.set("conflicts", sat.conflicts);
    s.set("decisions", sat.decisions);
    s.set("propagations", sat.propagations);
    s.set("restarts", sat.restarts);
    s.set("learned", sat.learned);
    s.set("reduces", sat.reduces);
    s.set("learned_removed", sat.learned_removed);
    s.set("preprocess_runs", sat.preprocess_runs);
    s.set("eliminated_vars", sat.eliminated_vars);
    s.set("subsumed_clauses", sat.subsumed_clauses);
    s.set("strengthened_lits", sat.strengthened_lits);
    s.set("solves", sat.solves);
    s.set("solve_seconds", sat.solve_seconds);
    s.set("max_decision_level", sat.max_decision_level);
    j.set("sat", std::move(s));
    return j;
}

AdversaryReport AdversaryReport::from_json(const report::Json& j) {
    AdversaryReport r;
    r.adversary = j.at("adversary").as_string();
    r.success = j.at("success").as_bool();
    r.outcome = j.at("outcome").as_string();
    r.queries = static_cast<int>(j.at("queries").as_int());
    r.survivors = j.at("survivors").as_uint();
    r.seconds = j.at("seconds").as_number();
    // Provenance stamping postdates the serve subsystem; tolerate its
    // absence so archived reports keep parsing.
    if (const report::Json* f = j.find("spec_hash")) {
        r.spec_hash = f->as_string();
    }
    const report::Json& s = j.at("sat");
    r.sat.conflicts = s.at("conflicts").as_uint();
    r.sat.decisions = s.at("decisions").as_uint();
    r.sat.propagations = s.at("propagations").as_uint();
    r.sat.restarts = s.at("restarts").as_uint();
    r.sat.learned = s.at("learned").as_uint();
    r.sat.reduces = s.at("reduces").as_uint();
    r.sat.learned_removed = s.at("learned_removed").as_uint();
    // Preprocessing counters postdate the first report format; tolerate
    // their absence so archived reports keep parsing.
    if (const report::Json* f = s.find("preprocess_runs")) {
        r.sat.preprocess_runs = f->as_uint();
    }
    if (const report::Json* f = s.find("eliminated_vars")) {
        r.sat.eliminated_vars = f->as_uint();
    }
    if (const report::Json* f = s.find("subsumed_clauses")) {
        r.sat.subsumed_clauses = f->as_uint();
    }
    if (const report::Json* f = s.find("strengthened_lits")) {
        r.sat.strengthened_lits = f->as_uint();
    }
    // Solve-call telemetry postdates the observability layer; tolerate its
    // absence so archived reports keep parsing.
    if (const report::Json* f = s.find("solves")) {
        r.sat.solves = f->as_uint();
    }
    if (const report::Json* f = s.find("solve_seconds")) {
        r.sat.solve_seconds = f->as_number();
    }
    if (const report::Json* f = s.find("max_decision_level")) {
        r.sat.max_decision_level = f->as_uint();
    }
    // The metrics block is only present when the run collected latency
    // histograms; tolerate its absence.
    if (const report::Json* m = j.find("metrics")) {
        r.metrics = obs::AttackMetrics::from_json(*m);
    }
    // The audit block postdates commitment-based proofs; tolerate its
    // absence so archived reports keep parsing.
    if (const report::Json* a = j.find("audit")) {
        r.audit_merkle_root = a->at("merkle_root").as_string();
        r.audit_committed = a->at("committed").as_uint();
    }
    // The oracle-stats block postdates the first-class oracle layer;
    // tolerate its absence so archived reports keep parsing.
    if (const report::Json* o = j.find("oracle")) {
        r.oracle.scalar_queries = o->at("scalar_queries").as_uint();
        r.oracle.block_queries = o->at("block_queries").as_uint();
        r.oracle.patterns = o->at("patterns").as_uint();
        r.oracle.cache_hits = o->at("cache_hits").as_uint();
        r.oracle.noisy_bits = o->at("noisy_bits").as_uint();
        r.oracle.budget = o->at("budget").as_uint();
        r.oracle.budget_exhausted = o->at("budget_exhausted").as_bool();
    }
    // The counting block postdates the enumeration-only report format;
    // tolerate its absence so archived reports keep parsing.
    if (const report::Json* c = j.find("count")) {
        r.count_mode = c->at("mode").as_string();
        r.survivors_str = c->at("survivors_str").as_string();
        count::Count128 full;
        if (count::Count128::from_string(r.survivors_str, &full)) {
            // The string is authoritative; the numeric field saturates and
            // goes through double, so rebuild it from the string.
            r.survivors = full.to_u64_saturating();
        }
        r.count.decisions = c->at("decisions").as_uint();
        r.count.propagations = c->at("propagations").as_uint();
        r.count.components = c->at("components").as_uint();
        r.count.cache_hits = c->at("cache_hits").as_uint();
        r.count.cache_stores = c->at("cache_stores").as_uint();
        r.count.cache_evictions = c->at("cache_evictions").as_uint();
        r.count.sat_checks = c->at("sat_checks").as_uint();
        r.count.cache_entries =
            static_cast<std::size_t>(c->at("cache_entries").as_uint());
        r.count.cache_peak_bytes =
            static_cast<std::size_t>(c->at("cache_peak_bytes").as_uint());
    }
    return r;
}

std::string survivors_mismatch(const report::Json& report_json) {
    const report::Json* c = report_json.find("count");
    if (c == nullptr) return "";  // non-counting report: nothing to mirror
    const std::string& full_str = c->at("survivors_str").as_string();
    count::Count128 full;
    if (!count::Count128::from_string(full_str, &full)) {
        return "count.survivors_str (\"" + full_str +
               "\") is not a decimal count";
    }
    // The numeric field is the string's uint64 saturation pinned to 2^53
    // (to_json writes exactly this); from_json rebuilds it from the string,
    // so only the RAW document can reveal a hand-edited disagreement.
    const std::uint64_t expected =
        std::min(full.to_u64_saturating(), std::uint64_t{1} << 53);
    const std::uint64_t actual = report_json.at("survivors").as_uint();
    if (actual != expected) {
        return "survivors (" + std::to_string(actual) +
               ") disagrees with count.survivors_str (\"" + full_str +
               "\", which mirrors to " + std::to_string(expected) + ")";
    }
    return "";
}

bool AdversaryReport::operator==(const AdversaryReport& o) const {
    return adversary == o.adversary && success == o.success &&
           outcome == o.outcome && queries == o.queries &&
           survivors == o.survivors && survivors_str == o.survivors_str &&
           count_mode == o.count_mode && count == o.count &&
           oracle == o.oracle &&
           metrics == o.metrics && seconds == o.seconds &&
           spec_hash == o.spec_hash &&
           audit_merkle_root == o.audit_merkle_root &&
           audit_committed == o.audit_committed &&
           sat.conflicts == o.sat.conflicts && sat.decisions == o.sat.decisions &&
           sat.propagations == o.sat.propagations &&
           sat.restarts == o.sat.restarts && sat.learned == o.sat.learned &&
           sat.reduces == o.sat.reduces &&
           sat.learned_removed == o.sat.learned_removed &&
           sat.preprocess_runs == o.sat.preprocess_runs &&
           sat.eliminated_vars == o.sat.eliminated_vars &&
           sat.subsumed_clauses == o.sat.subsumed_clauses &&
           sat.strengthened_lits == o.sat.strengthened_lits &&
           sat.solves == o.sat.solves &&
           sat.solve_seconds == o.sat.solve_seconds &&
           sat.max_decision_level == o.sat.max_decision_level;
}

AdversaryReport PlausibilityAdversary::attack(const camo::CamoNetlist& netlist,
                                              Oracle* /*oracle*/) {
    if (targets_.empty()) {
        throw std::invalid_argument(
            "PlausibilityAdversary: the viable-set threat model requires "
            "viable_targets; none were provided");
    }
    util::Stopwatch sw;
    AdversaryReport report;
    report.adversary = std::string(name());
    std::uint64_t plausible = 0;
    for (const auto& targets : targets_) {
        const PlausibilityResult res = is_plausible(netlist, targets);
        if (res.plausible) ++plausible;
        accumulate(&report.sat, res.sat_stats);
        ++report.queries;
    }
    report.survivors = plausible;
    report.success = plausible < targets_.size();
    report.outcome =
        std::to_string(plausible) + " of " + std::to_string(targets_.size()) +
        " viable functions remain plausible";
    report.seconds = sw.elapsed_seconds();
    return report;
}

AdversaryReport CegarAdversary::attack(const camo::CamoNetlist& netlist,
                                       Oracle* oracle) {
    if (oracle == nullptr) {
        throw std::invalid_argument(
            "CegarAdversary: the working-chip threat model requires an "
            "oracle; none was provided");
    }
    const OracleAttackResult res = oracle_attack(netlist, *oracle, params_);
    AdversaryReport report;
    report.adversary = std::string(name());
    report.success = res.solved();
    report.outcome = std::string(attack_status_name(res.status));
    // Total oracle patterns issued: warm-up blocks + distinguishing inputs.
    report.queries = res.queries + res.warmup_queries;
    copy_count(res, &report);
    report.metrics = res.metrics;
    report.seconds = res.seconds;
    report.sat = res.sat_stats;
    last_result_ = res;
    return report;
}

AdversaryReport RandomSamplingAdversary::attack(
    const camo::CamoNetlist& netlist, Oracle* oracle) {
    if (oracle == nullptr) {
        throw std::invalid_argument(
            "RandomSamplingAdversary: the working-chip threat model requires "
            "an oracle; none was provided");
    }
    if (num_queries_ <= 0) {
        throw std::invalid_argument(
            "RandomSamplingAdversary: num_queries must be > 0");
    }
    util::Stopwatch sw;
    OracleAttackResult result;
    std::vector<std::vector<bool>> inputs;
    std::vector<std::vector<bool>> answers;
    const bool budget_tripped = !random_queries(
        *oracle, netlist.num_pis(), num_queries_, seed_,
        [&](std::vector<bool> in, std::vector<bool> out) {
            inputs.push_back(std::move(in));
            answers.push_back(std::move(out));
        });
    if (budget_tripped) {
        result.status = OracleAttackResult::Status::kQueryBudget;
    }
    result.queries = static_cast<int>(inputs.size());
    if (!budget_tripped && params_.enumerate_survivors) {
        count_consistent_configs(netlist, inputs, answers, params_, &result);
    }
    result.distinguishing_inputs = std::move(inputs);
    result.seconds = sw.elapsed_seconds();

    AdversaryReport report;
    report.adversary = std::string(name());
    report.queries = result.queries;
    // Random probing alone pinned the chip down to one configuration.
    report.success = result.counted && result.surviving_configs == 1 &&
                     result.status == OracleAttackResult::Status::kSolved;
    report.outcome = budget_tripped
                         ? std::string(attack_status_name(result.status))
                         : std::to_string(result.queries) +
                               " random queries, " +
                               (result.counted ? result.survivors.to_string()
                                               : std::string("uncounted")) +
                               " survivors";
    copy_count(result, &report);
    report.seconds = result.seconds;
    last_result_ = std::move(result);
    return report;
}

AdversaryRegistry::AdversaryRegistry() {
    factories_.emplace_back("plausibility", [](const AdversaryOptions& opt) {
        return std::make_unique<PlausibilityAdversary>(opt.viable_targets);
    });
    factories_.emplace_back("cegar", [](const AdversaryOptions& opt) {
        return std::make_unique<CegarAdversary>(opt.oracle);
    });
    factories_.emplace_back("random-sampling", [](const AdversaryOptions& opt) {
        return std::make_unique<RandomSamplingAdversary>(
            opt.oracle, opt.random_queries, opt.random_seed);
    });
}

AdversaryRegistry& AdversaryRegistry::instance() {
    static AdversaryRegistry registry;
    return registry;
}

bool AdversaryRegistry::contains(const std::string& name) const {
    for (const auto& [existing, f] : factories_) {
        if (existing == name) return true;
    }
    return false;
}

std::unique_ptr<Adversary> AdversaryRegistry::create(
    const std::string& name, const AdversaryOptions& options) const {
    for (const auto& [existing, factory] : factories_) {
        if (existing == name) return factory(options);
    }
    std::string known;
    for (const std::string& n : names()) {
        if (!known.empty()) known += ", ";
        known += n;
    }
    throw std::invalid_argument("unknown adversary \"" + name +
                                "\" (registered: " + known + ")");
}

std::vector<std::string> AdversaryRegistry::names() const {
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) out.push_back(name);
    return out;
}

}  // namespace mvf::attack
