#pragma once
// Oracle-guided CEGAR de-camouflaging (the canonical scalable SAT attack of
// Subramanyan et al., as red-teamed in Liu et al. and defended against in
// Alaql & Bhunia -- see PAPERS.md).
//
// Threat model: beyond recognizing the look-alike cells (the plausibility
// attacker's knowledge), the adversary owns a *working chip* -- an oracle
// answering input patterns with the true circuit's outputs.  Instead of
// enumerating the input space (hopeless beyond ~10 inputs), the attack
// miters two copies of the camouflaged circuit over shared symbolic inputs:
// a SAT model is a *distinguishing input* -- a pattern on which two
// still-viable configurations disagree.  The oracle's answer for that
// pattern is added as an I/O constraint to both copies, eliminating at
// least one of the two configurations (and usually many more), and the loop
// repeats on the same incremental solver.  UNSAT means every configuration
// consistent with the collected I/O pairs implements the oracle's function,
// at which point the surviving configurations are counted over the selector
// variables -- by exact projected model counting (count::ProjectedCounter,
// the default: uncapped, 128-bit) or by the legacy capped model
// enumeration (see CountMode).

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "attack/oracle.hpp"
#include "camo/camo_netlist.hpp"
#include "count/count128.hpp"
#include "count/projected_counter.hpp"
#include "obs/metrics.hpp"
#include "sat/solver.hpp"

namespace mvf::attack {

/// How the surviving-configuration count is computed once CEGAR converges.
enum class CountMode {
    /// Exact projected model counting (count::ProjectedCounter) over the
    /// selector variables: no cap, counts up to 2^128 - 1, and dead-cone
    /// freedom falls out of component decomposition instead of a separate
    /// multiplication.  The default.
    kExact,
    /// Legacy SAT model enumeration projected onto the PO cone, capped at
    /// max_survivors.  Kept for differential testing against the exact
    /// counter and as its fallback (see count_max_decisions).
    kEnumerate,
};

std::string_view count_mode_name(CountMode m);
/// Inverse of count_mode_name; returns false on unknown names.
bool count_mode_from_name(std::string_view name, CountMode* out);

struct OracleAttackParams {
    /// How to count survivors after convergence (see CountMode).
    CountMode count_mode = CountMode::kExact;
    /// kEnumerate only: stop the surviving-configuration count once it
    /// reaches this bound (surviving_configs is then clamped to it and
    /// status is kSurvivorLimit: "at least this many survive").  kExact
    /// ignores it -- its count is exact without a cap -- unless its
    /// decision budget runs out and it falls back to enumeration.  Must
    /// be >= 1: a zero cap would read as "no survivor".
    std::uint64_t max_survivors = 1u << 20;
    /// kExact only: component-cache memory budget for the projected
    /// counter, in MiB.
    int count_cache_mb = 64;
    /// kExact only: branch-decision budget before the exact counter gives
    /// up and the attack falls back to capped enumeration (0 = unlimited).
    /// Structured selector spaces (the regime obfuscation actually
    /// creates: dead cones, decomposable masked freedom) count in
    /// hundreds to tens of thousands of decisions; a dense
    /// decomposition-resistant instance can exhaust any budget, and the
    /// fallback keeps the attack terminating with the legacy lower bound
    /// instead of hanging.  Reaching the default budget takes about a
    /// second; the cost is the fallback's enumeration up to max_survivors
    /// (2^20 by default).  On a 4-core x86-64 host that took 147-196 s on
    /// a 6-PI, 11-cell random netlist at the default budget, and 117-136 s
    /// on another at a 1,000,000-decision budget, where an unlimited
    /// budget counts exactly in 8.3 s.  0 (count exactly, no fallback) or
    /// a smaller max_survivors avoids it.  The fallback is visible in the
    /// result: count_mode reads kEnumerate.
    std::uint64_t count_max_decisions = 100'000;
    /// Safety valve on CEGAR iterations; 0 = unlimited.
    int max_iterations = 0;
    /// Skip the final enumeration (surviving_configs stays 0; the attack
    /// still terminates with the full distinguishing-input set).
    bool enumerate_survivors = true;
    /// Nodes the attacker knows are ordinary cells (as in is_plausible).
    const std::vector<bool>* fixed_nominal = nullptr;
    /// Warm-up: before the CEGAR loop, draw this many random input
    /// patterns (seeded by warmup_seed), query them through the batched
    /// word-parallel oracle path in blocks of up to 64, and add the I/O
    /// answers as constraints.  Each answered pattern prunes every
    /// configuration disagreeing with the chip on it, so the miter starts
    /// the distinguishing-input loop on a much smaller viable set -- a
    /// query-selection baseline that cuts the distinguishing-input count
    /// but usually costs more chip queries in total (see
    /// bench_oracle_attack).
    int random_warmup = 0;
    std::uint64_t warmup_seed = 1;
    /// Collect per-attack latency metrics (oracle-query and SAT-solve
    /// histograms) into OracleAttackResult::metrics.  Also on whenever the
    /// process-global switch (obs::set_metrics_enabled, the CLI's
    /// --metrics) is; off by default because the per-query timing calls,
    /// while cheap, are measurable on microsecond-scale oracles.
    bool collect_metrics = false;
};

struct OracleAttackResult {
    enum class Status {
        kSolved,          ///< CEGAR converged; count is exact
        kNoSurvivor,      ///< no configuration matches the oracle at all
        kIterationLimit,  ///< stopped by max_iterations
        kSurvivorLimit,   ///< count capped/saturated; a lower bound
        kQueryBudget,     ///< the oracle's query budget cut the attack off
    };
    Status status = Status::kSolved;

    /// Distinguishing-input oracle queries made (== CEGAR iterations).
    int queries = 0;
    /// Random warm-up patterns answered before the loop (block queries).
    int warmup_queries = 0;
    /// Configurations consistent with the oracle on every input,
    /// saturated to uint64 (`survivors` below is full precision); exact
    /// for kSolved, a lower bound for kSurvivorLimit.  All of them
    /// implement the oracle's function.
    std::uint64_t surviving_configs = 0;
    /// Full-precision survivor count (the authoritative figure; the
    /// projected counter handles spaces far beyond uint64).
    count::Count128 survivors;
    /// True once a survivor-counting backend actually ran (false for
    /// kIterationLimit, kQueryBudget and for enumerate_survivors == false,
    /// where the count fields below are meaningless zeros).
    bool counted = false;
    /// CountMode that produced the count: the params' mode, except that
    /// an exact run that exhausted its decision budget and fell back
    /// reads kEnumerate.  Meaningful only when `counted`.
    CountMode count_mode = CountMode::kExact;
    /// Exact-counter statistics (kExact; zeroed otherwise).
    count::CounterStats count_stats;
    /// One surviving configuration, populated by the counting phase only:
    /// empty for kNoSurvivor, kIterationLimit and kQueryBudget, and
    /// whenever enumerate_survivors is off.  Per-node plausible indices as consumed
    /// by sim::simulate_camo.
    std::vector<int> witness_config;
    /// The distinguishing patterns, in query order.
    std::vector<std::vector<bool>> distinguishing_inputs;

    sat::Solver::Stats sat_stats;  ///< CEGAR solver (miter + I/O constraints)
    /// Latency histograms (microseconds), filled when
    /// OracleAttackParams::collect_metrics or the global metrics switch is
    /// on; empty() otherwise.
    obs::AttackMetrics metrics;
    /// Cells encoded once instead of per-family across all miter and
    /// constraint stamps (0 when nothing was shareable).
    std::uint64_t shared_cells = 0;
    double seconds = 0.0;

    bool solved() const { return status == Status::kSolved; }
};

/// Human-readable status ("solved", "iteration limit", ...), shared by the
/// adversary reports and the trace spans.
std::string_view attack_status_name(OracleAttackResult::Status s);

/// Runs the CEGAR attack on `netlist` against `oracle`.  The oracle must
/// answer with netlist.num_pos() outputs for netlist.num_pis() inputs.
/// The encoding and the solver pipeline are fixed: the two families share
/// their selector-independent cone in every stamp
/// (CnfBuilder::add_shared_copies), sat::Preprocessor runs at its defaults
/// on the miter before the loop and on the counting instance, and a light
/// sweep runs whenever the clause database has grown 1.7x since the last
/// one.
/// A BudgetedOracle in the stack terminates the attack honestly: the
/// budget trip surfaces as Status::kQueryBudget (no survivor counting
/// runs, mirroring kIterationLimit).  A replaying TranscriptOracle drives
/// the query sequence via Oracle::scripted_pattern().
OracleAttackResult oracle_attack(const camo::CamoNetlist& netlist,
                                 Oracle& oracle,
                                 const OracleAttackParams& params = {});

/// Receives one answered pattern: the inputs and the oracle's outputs.
using AnswerFn =
    std::function<void(std::vector<bool> inputs, std::vector<bool> outputs)>;

/// The random-query phase both oracle adversaries share (CEGAR's
/// random_warmup, the random-sampling baseline): asks `oracle` for `count`
/// patterns of `num_inputs` bits drawn from util::Rng(seed), 64 per
/// query_block call.  A block that would overrun the remaining budget is
/// asked one pattern at a time, so the whole allowance is spent before
/// the budget trips.  Under a replaying TranscriptOracle the recorded
/// patterns are asked instead, and a transcript that ends early trips the
/// budget too.  `take` receives every answered pattern in query order;
/// `on_query_us`, when set, the latency of each oracle call in
/// microseconds (replayed queries are not timed).  Returns false when the
/// budget tripped.
bool random_queries(Oracle& oracle, int num_inputs, int count,
                    std::uint64_t seed, const AnswerFn& take,
                    const std::function<void(double)>& on_query_us = {});

/// The survivor-counting tail of oracle_attack, reusable by any adversary
/// that gathers I/O constraints (inputs[i] answered by answers[i]): counts
/// the configurations consistent with every pair under params.count_mode,
/// filling result's counting fields, witness_config, and status
/// (kNoSurvivor / kSurvivorLimit; an untouched status means the count is
/// exact and at least one configuration survives).  Throws
/// std::invalid_argument when params.max_survivors is 0.
void count_consistent_configs(const camo::CamoNetlist& netlist,
                              const std::vector<std::vector<bool>>& inputs,
                              const std::vector<std::vector<bool>>& answers,
                              const OracleAttackParams& params,
                              OracleAttackResult* result);

}  // namespace mvf::attack
