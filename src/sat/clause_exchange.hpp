#pragma once
// Learned-clause pool for a portfolio of CDCL solvers racing on one
// monotone formula chain.
//
// The portfolio CEGAR (attack/portfolio.cpp) runs N members whose solver
// formulas are PREFIXES of one shared chain: every member stamps the
// shared answer log's I/O constraints in log order, so a member with n
// stamped entries holds exactly the formula F ∪ C_1..C_n -- same clauses,
// same variable ids -- that every other member held when it was n entries
// in.  That prefix discipline is what makes clause sharing sound:
//
//   * an exported clause is tagged with the exporter's EPOCH (its stamped
//     constraint count at learning time); the clause is entailed by
//     F ∪ C_1..C_epoch;
//   * an importer only accepts clauses with epoch <= its own stamped
//     count, so every accepted clause is entailed by a prefix of the
//     importer's formula -- adding it changes no models, and any UNSAT
//     proved with imports present still holds with them removed (which is
//     why the winner's transcript replays bit-identically without the
//     exchange).
//
// Only short clauses travel (max_lits, default 8): short learned clauses
// carry most of the pruning power and keep the pool and the import cost
// bounded.  One mutex guards the pool -- members touch it at restart
// boundaries, far off the propagation hot path.

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "sat/solver.hpp"

namespace mvf::sat {

class ClauseExchange {
public:
    /// `members` solvers share the pool; clauses longer than `max_lits`
    /// are refused at publish; the pool stops accepting (drops, counted)
    /// beyond `max_clauses` entries.
    explicit ClauseExchange(int members, int max_lits = 8,
                            std::size_t max_clauses = 1u << 16);

    int max_lits() const { return max_lits_; }

    /// Exporter side: offers a learned clause (units included) tagged with
    /// the exporter's epoch.  Oversized clauses and pool overflow are
    /// silently dropped (counted in stats).
    void publish(int member, std::span<const Lit> lits, std::uint64_t epoch);

    /// Importer side: appends every clause published by OTHER members with
    /// epoch <= `max_epoch` that this member has not received yet, as
    /// literals to `lits` and one length per clause to `sizes` (flat, so
    /// an import allocates nothing once the buffers are warm).  The
    /// per-member cursor stops at the first not-yet-eligible entry (its
    /// epoch may become eligible once the member stamps more constraints),
    /// so nothing is ever skipped permanently.  Returns the number of
    /// clauses appended.
    std::size_t fetch(int member, std::uint64_t max_epoch,
                      std::vector<Lit>* lits, std::vector<std::uint32_t>* sizes);

    struct Stats {
        std::uint64_t published = 0;  ///< clauses accepted into the pool
        std::uint64_t dropped = 0;    ///< refused: too long or pool full
        std::uint64_t fetched = 0;    ///< clauses handed to importers
    };
    Stats stats() const;

private:
    /// One pooled clause: lits_[begin, begin + size).
    struct Entry {
        int member;
        std::uint64_t epoch;
        std::size_t begin;
        std::uint32_t size;
    };

    const int max_lits_;
    const std::size_t max_clauses_;
    mutable std::mutex mutex_;
    std::vector<Entry> pool_;
    std::vector<Lit> lits_;
    std::vector<std::size_t> cursor_;  ///< per member: first unprocessed
    Stats stats_;
};

}  // namespace mvf::sat
