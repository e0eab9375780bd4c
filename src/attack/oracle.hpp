#pragma once
// First-class oracle layer: the attacker's working chip as a composable API.
//
// The red-teaming literature (Red Teaming Methodology for Design
// Obfuscation; Scalable Attack-Resistant Obfuscation of Logic Circuits --
// see PAPERS.md) evaluates obfuscation under *varied* oracle models: query
// budgets, measurement noise, batched chip access, replayed transcripts.
// The oracle used to be a one-method virtual with accounting, replay and
// budgets handled ad hoc per attacker; this header promotes it into a
// layer of its own:
//
//   Oracle            scalar query() plus batched word-parallel
//                     query_block() (up to 64 patterns per call) with a
//                     correct-by-default scalar fallback, and the
//                     scripted_pattern() replay hook
//   SimOracle         chip simulation on sim::simulate_camo_words: one
//                     O(nodes) pass evaluates a whole 64-pattern block,
//                     and the scalar path reuses preallocated scratch
//                     instead of allocating per query
//   CountingOracle    uniform query/block/pattern accounting (feeds
//                     AdversaryReport instead of each attacker counting)
//   CachingOracle     dedupes repeated patterns
//   BudgetedOracle    hard query budget; answering past it throws
//                     OracleBudgetExceeded so attacks terminate honestly
//   NoisyOracle       seeded per-bit flip rate (measurement error)
//   TranscriptOracle  record + replay through the same API the attack
//                     uses (the only replay mechanism; the old
//                     OracleAttackParams::forced_queries alias is gone)
//   OracleStack       builds the decorator pile from OracleModelParams and
//                     aggregates OracleStats for reporting
//
// Decorators wrap any Oracle (including each other), so threat models
// compose: a noisy, budgeted, cached chip whose transcript is recorded is
// just four wrappers deep.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "camo/camo_netlist.hpp"
#include "report/json.hpp"
#include "sim/netlist_sim.hpp"
#include "util/rng.hpp"

namespace mvf::audit {
class CommittingOracle;  // audit/committing_oracle.hpp
}

namespace mvf::attack {

/// Patterns per query_block call (one bit lane per pattern in each word).
inline constexpr int kQueryBlockWidth = 64;

/// Thrown by BudgetedOracle when answering a query (or a whole block)
/// would exceed the remaining budget.  Nothing is answered and nothing is
/// consumed: exactly `budget()` patterns are ever served.
class OracleBudgetExceeded : public std::runtime_error {
public:
    explicit OracleBudgetExceeded(std::uint64_t budget);
    std::uint64_t budget() const { return budget_; }

private:
    std::uint64_t budget_;
};

/// Thrown by TranscriptOracle in replay mode when a query asks for a
/// DIFFERENT pattern than the recorded one (a genuine divergence, always
/// loud).  Querying past the END of the transcript instead throws
/// OracleBudgetExceeded -- a replayed chip answers exactly its recorded
/// queries, so truncated-transcript replays terminate honestly through
/// the same path as a budgeted chip.
class TranscriptMismatch : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Packs `patterns` (all the same width) into words: bit k of word i is
/// pattern k's value of input i.  patterns.size() <= kQueryBlockWidth.
std::vector<std::uint64_t> pack_block(
    const std::vector<std::vector<bool>>& patterns);

/// Extracts lane `k` of a packed block as one width-`words.size()` pattern.
std::vector<bool> unpack_lane(const std::vector<std::uint64_t>& words, int k);

/// Inverse of unpack_lane: sets lane `k` of a packed block from one
/// scalar answer, sizing `out` (to one zeroed word per bit) on first use.
void fold_lane(const std::vector<bool>& answer, int k,
               std::vector<std::uint64_t>* out);

/// A pattern as a 0/1 string, input 0 first: the form transcripts, query
/// commitments and trace records carry.
std::string bits_to_string(const std::vector<bool>& bits);

/// Strict inverse of bits_to_string: throws report::JsonError, naming
/// `what`, unless `text` is exactly `width` characters of '0' and '1'.
std::vector<bool> bits_from_string(const std::string& text, std::size_t width,
                                   const char* what);

/// Black-box combinational oracle (the attacker's working chip).
class Oracle {
public:
    virtual ~Oracle() = default;

    /// One input pattern in, one output pattern out.
    virtual std::vector<bool> query(const std::vector<bool>& inputs) = 0;

    /// Batched word-parallel access: bit k of `inputs[i]` is pattern k's
    /// value of PI i (1 <= count <= kQueryBlockWidth); returns one word
    /// per PO with the same lane layout.  Lanes >= count are unspecified.
    /// The default implementation loops over scalar query(), so every
    /// Oracle is batched-correct; SimOracle overrides it with a single
    /// word-parallel simulation pass.
    virtual std::vector<std::uint64_t> query_block(
        const std::vector<std::uint64_t>& inputs, int count);

    /// Transcript-replay hook: the pattern this oracle prescribes for the
    /// NEXT query, or nullptr when it does not script queries (the
    /// default).  Attacks that support replay consult this before choosing
    /// their own pattern, which lets TranscriptOracle drive them through
    /// the exact recorded sequence via the public API.
    virtual const std::vector<bool>* scripted_pattern() const {
        return nullptr;
    }
};

/// Oracle backed by simulating a camouflaged netlist under a hidden
/// configuration (per-node plausible indices, -1 for non-cells).  Both the
/// scalar and the block path run through sim::simulate_camo_words on
/// member-owned scratch, so queries allocate nothing beyond the returned
/// vector.
class SimOracle : public Oracle {
public:
    SimOracle(const camo::CamoNetlist& netlist, std::vector<int> config);

    std::vector<bool> query(const std::vector<bool>& inputs) override;
    std::vector<std::uint64_t> query_block(
        const std::vector<std::uint64_t>& inputs, int count) override;

private:
    const camo::CamoNetlist* netlist_;
    std::vector<int> config_;
    sim::WordSimScratch scratch_;
    std::vector<std::uint64_t> po_words_;
};

/// Decorator base: forwards the whole Oracle surface to the wrapped
/// oracle.  Decorators override what their threat model changes.
class OracleDecorator : public Oracle {
public:
    explicit OracleDecorator(Oracle& inner) : inner_(&inner) {}

    std::vector<bool> query(const std::vector<bool>& inputs) override {
        return inner_->query(inputs);
    }
    std::vector<std::uint64_t> query_block(
        const std::vector<std::uint64_t>& inputs, int count) override {
        return inner_->query_block(inputs, count);
    }
    const std::vector<bool>* scripted_pattern() const override {
        return inner_->scripted_pattern();
    }

protected:
    Oracle* inner_;
};

/// Uniform oracle accounting, aggregated by OracleStack::stats() and
/// reported in AdversaryReport's "oracle" JSON block.
struct OracleStats {
    std::uint64_t scalar_queries = 0;  ///< query() calls answered
    std::uint64_t block_queries = 0;   ///< query_block() calls answered
    std::uint64_t patterns = 0;        ///< total patterns answered
    std::uint64_t cache_hits = 0;      ///< CachingOracle dedup hits
    std::uint64_t noisy_bits = 0;      ///< NoisyOracle flipped output bits
    std::uint64_t budget = 0;          ///< BudgetedOracle budget (0 = none)
    bool budget_exhausted = false;     ///< BudgetedOracle tripped

    bool operator==(const OracleStats&) const = default;
};

/// Counts queries, blocks and patterns that were actually ANSWERED (a
/// budget trip below propagates before the counters move, so accounting
/// stays exact).  The counters are atomics, so several threads sharing
/// one stack account correctly without a lock.
class CountingOracle final : public OracleDecorator {
public:
    using OracleDecorator::OracleDecorator;

    std::vector<bool> query(const std::vector<bool>& inputs) override;
    std::vector<std::uint64_t> query_block(
        const std::vector<std::uint64_t>& inputs, int count) override;

    std::uint64_t scalar_queries() const { return scalar_queries_.load(); }
    std::uint64_t block_queries() const { return block_queries_.load(); }
    std::uint64_t patterns() const { return patterns_.load(); }

private:
    std::atomic<std::uint64_t> scalar_queries_ = 0;
    std::atomic<std::uint64_t> block_queries_ = 0;
    std::atomic<std::uint64_t> patterns_ = 0;
};

/// Answers repeated patterns from a cache instead of re-querying the chip
/// (duplicates inside one block are deduplicated too, and the surviving
/// misses are forwarded as ONE smaller block so batching is preserved).
///
/// Thread-safe: one mutex guards the cache map AND is held across the
/// forwarding call, so concurrent users (threads sharing one stack)
/// serialize through the cache -- which also makes everything BELOW it in
/// the stack (budget, noise, the SimOracle itself) safe to share, since
/// only one thread is ever inside the wrapped oracle at a time.
class CachingOracle final : public OracleDecorator {
public:
    using OracleDecorator::OracleDecorator;

    std::vector<bool> query(const std::vector<bool>& inputs) override;
    std::vector<std::uint64_t> query_block(
        const std::vector<std::uint64_t>& inputs, int count) override;

    std::uint64_t hits() const {
        std::lock_guard lock(mutex_);
        return hits_;
    }

private:
    mutable std::mutex mutex_;
    std::map<std::vector<bool>, std::vector<bool>> cache_;
    std::uint64_t hits_ = 0;
};

/// Hard pattern budget: once `budget` patterns have been answered (scalar
/// queries count 1, blocks count their pattern count), any further request
/// -- including a block larger than what remains -- throws
/// OracleBudgetExceeded without consuming anything.
///
/// Thread-safe: the check-forward-consume sequence runs under one mutex,
/// so concurrent callers cannot jointly overdraw the budget.
class BudgetedOracle final : public OracleDecorator {
public:
    BudgetedOracle(Oracle& inner, std::uint64_t budget)
        : OracleDecorator(inner), budget_(budget), remaining_(budget) {}

    std::vector<bool> query(const std::vector<bool>& inputs) override;
    std::vector<std::uint64_t> query_block(
        const std::vector<std::uint64_t>& inputs, int count) override;

    std::uint64_t budget() const { return budget_; }
    std::uint64_t remaining() const {
        std::lock_guard lock(mutex_);
        return remaining_;
    }
    bool exhausted() const {
        std::lock_guard lock(mutex_);
        return tripped_;
    }

private:
    mutable std::mutex mutex_;
    std::uint64_t budget_;
    std::uint64_t remaining_;
    bool tripped_ = false;
};

/// Measurement error: every answered output bit flips independently with
/// probability `flip_rate` (seeded, so a given stack replays
/// deterministically).
///
/// Thread-safe: the RNG draw and the forwarding call share one mutex
/// (concurrent callers see a valid but scheduling-dependent flip
/// sequence; single-threaded use stays bit-reproducible).
class NoisyOracle final : public OracleDecorator {
public:
    /// flip_rate must be in [0, 1); throws std::invalid_argument otherwise.
    NoisyOracle(Oracle& inner, double flip_rate, std::uint64_t seed);

    std::vector<bool> query(const std::vector<bool>& inputs) override;
    std::vector<std::uint64_t> query_block(
        const std::vector<std::uint64_t>& inputs, int count) override;

    std::uint64_t flipped_bits() const {
        std::lock_guard lock(mutex_);
        return flipped_;
    }

private:
    mutable std::mutex mutex_;
    double flip_rate_;
    util::Rng rng_;
    std::uint64_t flipped_ = 0;
};

/// A recorded I/O transcript: the attacker-visible query sequence.
/// Serializes to JSON ({"inputs": m, "outputs": r, "queries": [{"in":
/// "0100", "out": "10"}, ...]}; bit i of the strings is PI/PO i).
struct OracleTranscript {
    int num_inputs = 0;
    int num_outputs = 0;
    struct Entry {
        std::vector<bool> inputs;
        std::vector<bool> outputs;
        bool operator==(const Entry&) const = default;
    };
    std::vector<Entry> entries;

    report::Json to_json() const;
    /// Inverse of to_json(); throws report::JsonError on malformed input.
    static OracleTranscript from_json(const report::Json& j);

    bool operator==(const OracleTranscript&) const = default;
};

/// Record + replay.  In record mode every answered query is appended to
/// the transcript on its way through.  In replay mode there is NO chip
/// behind the oracle: queries are verified against the recorded sequence
/// and answered from it, and scripted_pattern() walks the recorded
/// patterns so a replay-aware attack re-issues the exact sequence through
/// the same API it uses live.
///
/// Deliberately NOT thread-safe: a transcript is one ordered query
/// sequence, so each recorder/replayer belongs to exactly one attack
/// thread (concurrent attackers each need their own recorder, above a
/// shared, locking CachingOracle).
class TranscriptOracle final : public Oracle {
public:
    /// Record mode: wraps `inner` and records what it answers.
    explicit TranscriptOracle(Oracle& inner);
    /// Replay mode: serves `transcript`, chip-free.
    explicit TranscriptOracle(OracleTranscript transcript);

    std::vector<bool> query(const std::vector<bool>& inputs) override;
    std::vector<std::uint64_t> query_block(
        const std::vector<std::uint64_t>& inputs, int count) override;
    const std::vector<bool>* scripted_pattern() const override;

    bool replaying() const { return inner_ == nullptr; }
    const OracleTranscript& transcript() const { return transcript_; }

private:
    std::vector<bool> replay_one(const std::vector<bool>& inputs);
    void record_one(const std::vector<bool>& inputs,
                    const std::vector<bool>& outputs);

    Oracle* inner_ = nullptr;  ///< null in replay mode
    OracleTranscript transcript_;
    std::size_t cursor_ = 0;  ///< replay position
};

/// Declarative description of the oracle threat model; harnesses thread it
/// from specs/CLI flags down to OracleStack.
struct OracleModelParams {
    /// Patterns the chip answers before cutting the attacker off (0 =
    /// unlimited).
    std::uint64_t query_budget = 0;
    /// Per-bit measurement-error flip probability, in [0, 1).
    double noise = 0.0;
    std::uint64_t noise_seed = 1;
    /// Dedupe repeated patterns before they reach budget/chip.
    bool cache = false;
    /// Record the attacker-visible transcript (OracleStack::recorded()).
    bool record = false;
    /// Commit to every answered query (audit::CommittingOracle above the
    /// recorder); salts are drawn from commit_seed, and commit_context
    /// seeds the chain (harnesses pass a netlist digest so the root binds
    /// which circuit was attacked).  Harnesses turn this on for
    /// --emit-proof runs.
    bool commit = false;
    std::uint64_t commit_seed = 1;
    std::string commit_context;
    /// Replay this transcript instead of consulting a chip (the chip
    /// pointer handed to OracleStack may then be null).  Noise composes
    /// meaninglessly with replay; harnesses reject that combination at
    /// parse time.
    const OracleTranscript* replay = nullptr;
};

/// Owns the decorator pile for one attack run.  Stack order, bottom to
/// top: chip (or transcript replay) -> noise -> budget -> cache ->
/// transcript recorder -> committer -> counter.  So: cache hits cost no
/// budget, the recorder and committer see exactly what the attacker saw
/// (noise included), and the counter counts attacker-visible answered
/// queries.
class OracleStack {
public:
    /// `chip` may be null only when params.replay is set.
    OracleStack(Oracle* chip, const OracleModelParams& params);

    /// The attacker-facing entry point.
    Oracle& top() { return *top_; }

    /// Aggregated accounting across every decorator present.
    OracleStats stats() const;

    /// The recorded transcript (record mode only; nullptr otherwise).
    const OracleTranscript* recorded() const;

    /// The committing decorator (commit mode only; nullptr otherwise).
    const audit::CommittingOracle* committer() const { return committer_; }

private:
    std::vector<std::unique_ptr<Oracle>> owned_;
    Oracle* top_ = nullptr;
    CountingOracle* counting_ = nullptr;
    CachingOracle* caching_ = nullptr;
    NoisyOracle* noisy_ = nullptr;
    BudgetedOracle* budgeted_ = nullptr;
    TranscriptOracle* recorder_ = nullptr;
    audit::CommittingOracle* committer_ = nullptr;
};

}  // namespace mvf::attack
