#include "attack/oracle.hpp"

#include <cassert>
#include <string>

#include "audit/committing_oracle.hpp"

namespace mvf::attack {

OracleBudgetExceeded::OracleBudgetExceeded(std::uint64_t budget)
    : std::runtime_error("oracle query budget of " + std::to_string(budget) +
                         " patterns exhausted"),
      budget_(budget) {}

std::vector<std::uint64_t> pack_block(
    const std::vector<std::vector<bool>>& patterns) {
    assert(!patterns.empty());
    assert(patterns.size() <= static_cast<std::size_t>(kQueryBlockWidth));
    std::vector<std::uint64_t> words(patterns.front().size(), 0);
    for (std::size_t k = 0; k < patterns.size(); ++k) {
        assert(patterns[k].size() == words.size());
        for (std::size_t i = 0; i < words.size(); ++i) {
            if (patterns[k][i]) words[i] |= std::uint64_t{1} << k;
        }
    }
    return words;
}

std::vector<bool> unpack_lane(const std::vector<std::uint64_t>& words, int k) {
    assert(k >= 0 && k < kQueryBlockWidth);
    std::vector<bool> pattern(words.size());
    for (std::size_t i = 0; i < words.size(); ++i) {
        pattern[i] = (words[i] >> k) & 1u;
    }
    return pattern;
}

void fold_lane(const std::vector<bool>& answer, int k,
               std::vector<std::uint64_t>* out) {
    assert(k >= 0 && k < kQueryBlockWidth);
    if (out->empty()) out->assign(answer.size(), 0);
    assert(answer.size() == out->size());
    for (std::size_t q = 0; q < answer.size(); ++q) {
        if (answer[q]) (*out)[q] |= std::uint64_t{1} << k;
    }
}

std::vector<std::uint64_t> Oracle::query_block(
    const std::vector<std::uint64_t>& inputs, int count) {
    assert(count >= 1 && count <= kQueryBlockWidth);
    std::vector<std::uint64_t> out;
    for (int k = 0; k < count; ++k) {
        fold_lane(query(unpack_lane(inputs, k)), k, &out);
    }
    return out;
}

// ------------------------------------------------------------- SimOracle --

SimOracle::SimOracle(const camo::CamoNetlist& netlist, std::vector<int> config)
    : netlist_(&netlist),
      config_(std::move(config)),
      po_words_(static_cast<std::size_t>(netlist.num_pos()), 0) {}

std::vector<bool> SimOracle::query(const std::vector<bool>& inputs) {
    assert(static_cast<int>(inputs.size()) == netlist_->num_pis());
    std::vector<bool> out;
    sim::simulate_camo_pattern_into(*netlist_, config_, inputs, &out,
                                    &scratch_);
    return out;
}

std::vector<std::uint64_t> SimOracle::query_block(
    const std::vector<std::uint64_t>& inputs, int count) {
    assert(static_cast<int>(inputs.size()) == netlist_->num_pis());
    assert(count >= 1 && count <= kQueryBlockWidth);
    (void)count;
    sim::simulate_camo_words(*netlist_, config_, inputs, po_words_, &scratch_);
    return po_words_;
}

// -------------------------------------------------------- CountingOracle --

std::vector<bool> CountingOracle::query(const std::vector<bool>& inputs) {
    std::vector<bool> out = inner_->query(inputs);
    scalar_queries_.fetch_add(1, std::memory_order_relaxed);
    patterns_.fetch_add(1, std::memory_order_relaxed);
    return out;
}

std::vector<std::uint64_t> CountingOracle::query_block(
    const std::vector<std::uint64_t>& inputs, int count) {
    std::vector<std::uint64_t> out = inner_->query_block(inputs, count);
    block_queries_.fetch_add(1, std::memory_order_relaxed);
    patterns_.fetch_add(static_cast<std::uint64_t>(count),
                        std::memory_order_relaxed);
    return out;
}

// --------------------------------------------------------- CachingOracle --

std::vector<bool> CachingOracle::query(const std::vector<bool>& inputs) {
    // The lock covers the forwarding call, not just the map: a miss must
    // query-and-insert atomically so two threads asking the same fresh
    // pattern don't both reach the chip (and so the non-thread-safe
    // oracles below the cache are only ever entered by one thread).
    std::lock_guard lock(mutex_);
    const auto it = cache_.find(inputs);
    if (it != cache_.end()) {
        ++hits_;
        return it->second;
    }
    std::vector<bool> out = inner_->query(inputs);
    cache_.emplace(inputs, out);
    return out;
}

std::vector<std::uint64_t> CachingOracle::query_block(
    const std::vector<std::uint64_t>& inputs, int count) {
    assert(count >= 1 && count <= kQueryBlockWidth);
    std::lock_guard lock(mutex_);
    std::vector<std::vector<bool>> patterns;
    patterns.reserve(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) {
        patterns.push_back(unpack_lane(inputs, k));
    }
    // Partition into hits and (deduplicated) misses; the misses go to the
    // chip as one smaller block so batching survives the cache layer.
    std::vector<std::vector<bool>> misses;
    std::map<std::vector<bool>, int> miss_index;
    for (const std::vector<bool>& p : patterns) {
        if (cache_.count(p) || miss_index.count(p)) {
            ++hits_;
            continue;
        }
        miss_index.emplace(p, static_cast<int>(misses.size()));
        misses.push_back(p);
    }
    if (!misses.empty()) {
        const std::vector<std::uint64_t> miss_words = pack_block(misses);
        const std::vector<std::uint64_t> answers =
            inner_->query_block(miss_words, static_cast<int>(misses.size()));
        for (const auto& [pattern, lane] : miss_index) {
            cache_.emplace(pattern, unpack_lane(answers, lane));
        }
    }
    std::vector<std::uint64_t> out;
    for (int k = 0; k < count; ++k) {
        fold_lane(cache_.at(patterns[static_cast<std::size_t>(k)]), k, &out);
    }
    return out;
}

// -------------------------------------------------------- BudgetedOracle --

std::vector<bool> BudgetedOracle::query(const std::vector<bool>& inputs) {
    std::lock_guard lock(mutex_);
    if (remaining_ == 0) {
        tripped_ = true;
        throw OracleBudgetExceeded(budget_);
    }
    std::vector<bool> out = inner_->query(inputs);
    --remaining_;
    return out;
}

std::vector<std::uint64_t> BudgetedOracle::query_block(
    const std::vector<std::uint64_t>& inputs, int count) {
    std::lock_guard lock(mutex_);
    if (static_cast<std::uint64_t>(count) > remaining_) {
        tripped_ = true;
        throw OracleBudgetExceeded(budget_);
    }
    std::vector<std::uint64_t> out = inner_->query_block(inputs, count);
    remaining_ -= static_cast<std::uint64_t>(count);
    return out;
}

// ----------------------------------------------------------- NoisyOracle --

NoisyOracle::NoisyOracle(Oracle& inner, double flip_rate, std::uint64_t seed)
    : OracleDecorator(inner), flip_rate_(flip_rate), rng_(seed) {
    if (!(flip_rate >= 0.0 && flip_rate < 1.0)) {
        throw std::invalid_argument(
            "NoisyOracle: flip rate must be in [0, 1), got " +
            std::to_string(flip_rate));
    }
}

std::vector<bool> NoisyOracle::query(const std::vector<bool>& inputs) {
    std::lock_guard lock(mutex_);
    std::vector<bool> out = inner_->query(inputs);
    for (std::size_t q = 0; q < out.size(); ++q) {
        if (rng_.coin(flip_rate_)) {
            out[q] = !out[q];
            ++flipped_;
        }
    }
    return out;
}

std::vector<std::uint64_t> NoisyOracle::query_block(
    const std::vector<std::uint64_t>& inputs, int count) {
    std::lock_guard lock(mutex_);
    std::vector<std::uint64_t> out = inner_->query_block(inputs, count);
    for (std::uint64_t& word : out) {
        std::uint64_t mask = 0;
        for (int k = 0; k < count; ++k) {
            if (rng_.coin(flip_rate_)) mask |= std::uint64_t{1} << k;
        }
        word ^= mask;
        flipped_ += static_cast<std::uint64_t>(__builtin_popcountll(mask));
    }
    return out;
}

// ------------------------------------------------------ OracleTranscript --

std::string bits_to_string(const std::vector<bool>& bits) {
    std::string out(bits.size(), '0');
    for (std::size_t i = 0; i < bits.size(); ++i) {
        if (bits[i]) out[i] = '1';
    }
    return out;
}

namespace {

std::vector<bool> bits_from_string(const std::string& text, int expect,
                                   const char* what) {
    if (static_cast<int>(text.size()) != expect) {
        throw report::JsonError(std::string("transcript ") + what +
                                " has width " + std::to_string(text.size()) +
                                ", expected " + std::to_string(expect));
    }
    std::vector<bool> out(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '0' && text[i] != '1') {
            throw report::JsonError(std::string("transcript ") + what +
                                    " must be a 0/1 string, got \"" + text +
                                    "\"");
        }
        out[i] = text[i] == '1';
    }
    return out;
}

}  // namespace

report::Json OracleTranscript::to_json() const {
    report::Json j = report::Json::object();
    j.set("inputs", num_inputs);
    j.set("outputs", num_outputs);
    report::Json queries = report::Json::array();
    for (const Entry& e : entries) {
        report::Json q = report::Json::object();
        q.set("in", bits_to_string(e.inputs));
        q.set("out", bits_to_string(e.outputs));
        queries.push_back(std::move(q));
    }
    j.set("queries", std::move(queries));
    return j;
}

OracleTranscript OracleTranscript::from_json(const report::Json& j) {
    OracleTranscript t;
    t.num_inputs = static_cast<int>(j.at("inputs").as_int());
    t.num_outputs = static_cast<int>(j.at("outputs").as_int());
    if (t.num_inputs < 0 || t.num_outputs < 0) {
        throw report::JsonError("transcript widths must be non-negative");
    }
    for (const report::Json& q : j.at("queries").items()) {
        Entry e;
        e.inputs = bits_from_string(q.at("in").as_string(), t.num_inputs, "query");
        e.outputs =
            bits_from_string(q.at("out").as_string(), t.num_outputs, "answer");
        t.entries.push_back(std::move(e));
    }
    return t;
}

// ------------------------------------------------------ TranscriptOracle --

TranscriptOracle::TranscriptOracle(Oracle& inner) : inner_(&inner) {}

TranscriptOracle::TranscriptOracle(OracleTranscript transcript)
    : transcript_(std::move(transcript)) {}

void TranscriptOracle::record_one(const std::vector<bool>& inputs,
                                  const std::vector<bool>& outputs) {
    transcript_.num_inputs = static_cast<int>(inputs.size());
    transcript_.num_outputs = static_cast<int>(outputs.size());
    transcript_.entries.push_back({inputs, outputs});
}

std::vector<bool> TranscriptOracle::replay_one(const std::vector<bool>& inputs) {
    if (cursor_ >= transcript_.entries.size()) {
        // A replayed chip answers exactly its recorded queries; running
        // past the end is the budget-exhaustion case, so attacks that
        // replay a truncated transcript terminate honestly (kQueryBudget)
        // instead of erroring out.
        throw OracleBudgetExceeded(transcript_.entries.size());
    }
    const OracleTranscript::Entry& e = transcript_.entries[cursor_];
    if (inputs != e.inputs) {
        throw TranscriptMismatch("query " + std::to_string(cursor_) +
                                 " diverged from the recorded transcript: "
                                 "asked " +
                                 bits_to_string(inputs) + ", recorded " +
                                 bits_to_string(e.inputs));
    }
    ++cursor_;
    return e.outputs;
}

std::vector<bool> TranscriptOracle::query(const std::vector<bool>& inputs) {
    if (replaying()) return replay_one(inputs);
    const std::vector<bool> out = inner_->query(inputs);
    record_one(inputs, out);
    return out;
}

std::vector<std::uint64_t> TranscriptOracle::query_block(
    const std::vector<std::uint64_t>& inputs, int count) {
    assert(count >= 1 && count <= kQueryBlockWidth);
    if (replaying()) {
        // All-or-nothing like BudgetedOracle: a block running past the end
        // of the transcript consumes nothing, so callers can fall back to
        // scalar draining of the remaining entries.
        if (cursor_ + static_cast<std::size_t>(count) >
            transcript_.entries.size()) {
            throw OracleBudgetExceeded(transcript_.entries.size());
        }
        std::vector<std::uint64_t> out;
        for (int k = 0; k < count; ++k) {
            fold_lane(replay_one(unpack_lane(inputs, k)), k, &out);
        }
        return out;
    }
    const std::vector<std::uint64_t> out = inner_->query_block(inputs, count);
    for (int k = 0; k < count; ++k) {
        record_one(unpack_lane(inputs, k), unpack_lane(out, k));
    }
    return out;
}

const std::vector<bool>* TranscriptOracle::scripted_pattern() const {
    if (replaying() && cursor_ < transcript_.entries.size()) {
        return &transcript_.entries[cursor_].inputs;
    }
    if (!replaying()) return inner_->scripted_pattern();
    return nullptr;
}

// ----------------------------------------------------------- OracleStack --

OracleStack::OracleStack(Oracle* chip, const OracleModelParams& params) {
    if (params.replay && params.cache) {
        // A cache above a replaying transcript desynchronizes the replay
        // cursor on duplicate patterns (the hit never reaches the
        // transcript); harnesses reject the combination at parse time and
        // this guard keeps API users honest too.
        throw std::invalid_argument(
            "OracleStack: a pattern cache cannot be composed with transcript "
            "replay");
    }
    if (params.replay) {
        auto replay = std::make_unique<TranscriptOracle>(*params.replay);
        top_ = replay.get();
        owned_.push_back(std::move(replay));
    } else {
        if (chip == nullptr) {
            throw std::invalid_argument(
                "OracleStack: a chip oracle is required unless a replay "
                "transcript is provided");
        }
        top_ = chip;
        if (params.noise > 0.0) {
            auto noisy = std::make_unique<NoisyOracle>(*top_, params.noise,
                                                       params.noise_seed);
            noisy_ = noisy.get();
            top_ = noisy.get();
            owned_.push_back(std::move(noisy));
        }
    }
    if (params.query_budget > 0) {
        auto budgeted =
            std::make_unique<BudgetedOracle>(*top_, params.query_budget);
        budgeted_ = budgeted.get();
        top_ = budgeted.get();
        owned_.push_back(std::move(budgeted));
    }
    if (params.cache) {
        auto caching = std::make_unique<CachingOracle>(*top_);
        caching_ = caching.get();
        top_ = caching.get();
        owned_.push_back(std::move(caching));
    }
    if (params.record) {
        auto recorder = std::make_unique<TranscriptOracle>(*top_);
        recorder_ = recorder.get();
        top_ = recorder.get();
        owned_.push_back(std::move(recorder));
    }
    if (params.commit) {
        auto committer = std::make_unique<audit::CommittingOracle>(
            *top_, params.commit_seed, params.commit_context);
        committer_ = committer.get();
        top_ = committer.get();
        owned_.push_back(std::move(committer));
    }
    auto counting = std::make_unique<CountingOracle>(*top_);
    counting_ = counting.get();
    top_ = counting.get();
    owned_.push_back(std::move(counting));
}

OracleStats OracleStack::stats() const {
    OracleStats s;
    s.scalar_queries = counting_->scalar_queries();
    s.block_queries = counting_->block_queries();
    s.patterns = counting_->patterns();
    if (caching_) s.cache_hits = caching_->hits();
    if (noisy_) s.noisy_bits = noisy_->flipped_bits();
    if (budgeted_) {
        s.budget = budgeted_->budget();
        s.budget_exhausted = budgeted_->exhausted();
    }
    return s;
}

const OracleTranscript* OracleStack::recorded() const {
    return recorder_ ? &recorder_->transcript() : nullptr;
}

}  // namespace mvf::attack
