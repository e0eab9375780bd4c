#include "sat/clause_exchange.hpp"

#include <algorithm>
#include <cassert>

namespace mvf::sat {

ClauseExchange::ClauseExchange(int members, int max_lits,
                               std::size_t max_clauses)
    : max_lits_(max_lits),
      max_clauses_(max_clauses),
      cursor_(static_cast<std::size_t>(std::max(1, members)), 0) {}

void ClauseExchange::publish(int member, std::span<const Lit> lits,
                             std::uint64_t epoch) {
    assert(member >= 0 && member < static_cast<int>(cursor_.size()));
    std::lock_guard lock(mutex_);
    if (static_cast<int>(lits.size()) > max_lits_ ||
        pool_.size() >= max_clauses_) {
        ++stats_.dropped;
        return;
    }
    pool_.push_back(
        {member, epoch, lits_.size(), static_cast<std::uint32_t>(lits.size())});
    lits_.insert(lits_.end(), lits.begin(), lits.end());
    ++stats_.published;
}

std::size_t ClauseExchange::fetch(int member, std::uint64_t max_epoch,
                                  std::vector<Lit>* lits,
                                  std::vector<std::uint32_t>* sizes) {
    assert(member >= 0 && member < static_cast<int>(cursor_.size()));
    std::lock_guard lock(mutex_);
    std::size_t& cursor = cursor_[static_cast<std::size_t>(member)];
    std::size_t appended = 0;
    while (cursor < pool_.size()) {
        const Entry& e = pool_[cursor];
        if (e.member != member) {
            if (e.epoch > max_epoch) break;  // eligible later, not yet
            const auto first = lits_.begin() + static_cast<std::ptrdiff_t>(e.begin);
            lits->insert(lits->end(), first, first + e.size);
            sizes->push_back(e.size);
            ++appended;
        }
        ++cursor;
    }
    stats_.fetched += appended;
    return appended;
}

ClauseExchange::Stats ClauseExchange::stats() const {
    std::lock_guard lock(mutex_);
    return stats_;
}

}  // namespace mvf::sat
