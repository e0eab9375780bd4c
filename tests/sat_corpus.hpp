#pragma once
// The random CNF corpus shared by the SAT fuzz differentials
// (test_sat_fuzz) and the pinned-search tests (test_sat_golden): both draw
// the same instances from the same seeds, so the golden digests cover
// exactly the formulas the differentials check.

#include <vector>

#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace mvf::sat::corpus {

using Clauses = std::vector<std::vector<Lit>>;

inline std::vector<Lit> random_clause(util::Rng& rng, int nv, int min_w,
                                      int max_w) {
    std::vector<Lit> cl;
    const int w = min_w + rng.uniform_int(0, max_w - min_w);
    for (int k = 0; k < w; ++k) {
        cl.push_back(mk_lit(rng.uniform_int(0, nv - 1), rng.coin(0.5)));
    }
    return cl;
}

/// Generates one instance of the mixed family.  kind cycles through
/// random-width CNF, 3-SAT at ~4.2 clauses/var, pigeonhole (UNSAT and SAT
/// shapes), and xor/parity chains -- the structured ones stress long
/// resolution and strengthening, the random ones cover the verdict space.
inline Clauses make_instance(util::Rng& rng, int kind, int* nv_out) {
    Clauses clauses;
    switch (kind % 4) {
        case 0: {  // random width 1-4
            const int nv = 5 + rng.uniform_int(0, 15);
            const int nc = 3 + rng.uniform_int(0, 5 * nv);
            for (int c = 0; c < nc; ++c) {
                clauses.push_back(random_clause(rng, nv, 1, 4));
            }
            *nv_out = nv;
            return clauses;
        }
        case 1: {  // 3-SAT near the phase transition
            const int nv = 8 + rng.uniform_int(0, 12);
            const int nc = static_cast<int>(4.2 * nv) + rng.uniform_int(-nv, nv);
            for (int c = 0; c < nc; ++c) {
                clauses.push_back(random_clause(rng, nv, 3, 3));
            }
            *nv_out = nv;
            return clauses;
        }
        case 2: {  // pigeonhole: p pigeons into h holes
            const int h = 2 + rng.uniform_int(0, 3);
            const int p = h + rng.uniform_int(0, 1);  // SAT or UNSAT shape
            const int nv = p * h;
            for (int i = 0; i < p; ++i) {
                std::vector<Lit> at_least;
                for (int j = 0; j < h; ++j) at_least.push_back(mk_lit(i * h + j));
                clauses.push_back(at_least);
            }
            for (int j = 0; j < h; ++j) {
                for (int a = 0; a < p; ++a) {
                    for (int b = a + 1; b < p; ++b) {
                        clauses.push_back(
                            {mk_lit(a * h + j, true), mk_lit(b * h + j, true)});
                    }
                }
            }
            *nv_out = nv;
            return clauses;
        }
        default: {  // xor chain x0^x1, x1^x2, ... with random parities
            const int nv = 6 + rng.uniform_int(0, 10);
            for (int i = 0; i + 1 < nv; ++i) {
                const bool parity = rng.coin(0.5);
                // x_i ^ x_{i+1} = parity as two binary clauses
                clauses.push_back({mk_lit(i, parity), mk_lit(i + 1, false)});
                clauses.push_back({mk_lit(i, !parity), mk_lit(i + 1, true)});
            }
            // A few random ternaries on top to vary the verdict.
            for (int c = 0; c < nv / 2; ++c) {
                clauses.push_back(random_clause(rng, nv, 2, 3));
            }
            *nv_out = nv;
            return clauses;
        }
    }
}

/// The seed of SatFuzz shard `shard` (100 make_instance draws each).
inline std::uint64_t fuzz_shard_seed(int shard) {
    return static_cast<std::uint64_t>(shard) * 6364136223846793005ull + 17;
}

/// The seed of SatFuzzIncremental shard `shard`.
inline std::uint64_t incremental_shard_seed(int shard) {
    return static_cast<std::uint64_t>(shard) * 2654435761ull + 99;
}

}  // namespace mvf::sat::corpus
