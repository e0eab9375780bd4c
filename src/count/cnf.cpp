#include "count/cnf.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace mvf::count {

void validate(const Cnf& cnf) {
    if (cnf.num_vars < 0) {
        throw std::invalid_argument("Cnf: negative num_vars " +
                                    std::to_string(cnf.num_vars));
    }
    for (const std::vector<sat::Lit>& clause : cnf.clauses) {
        for (const sat::Lit l : clause) {
            if (l < 0 || sat::lit_var(l) >= cnf.num_vars) {
                throw std::invalid_argument(
                    "Cnf: literal " + std::to_string(l) +
                    " outside the variable range [0, " +
                    std::to_string(cnf.num_vars) + ")");
            }
        }
    }
    for (const sat::Var v : cnf.projection) {
        if (v < 0 || v >= cnf.num_vars) {
            throw std::invalid_argument(
                "Cnf: projection variable " + std::to_string(v) +
                " outside [0, " + std::to_string(cnf.num_vars) + ")");
        }
    }
}

Cnf cnf_from_solver(const sat::Solver& solver,
                    std::span<const sat::Var> projection) {
    Cnf cnf;
    cnf.num_vars = solver.num_vars();
    cnf.clauses = solver.snapshot_clauses();
    cnf.projection.assign(projection.begin(), projection.end());
#ifndef NDEBUG
    for (const sat::Var v : cnf.projection) {
        assert(v >= 0 && v < cnf.num_vars);
        assert(!solver.var_eliminated(v));
    }
#endif
    return cnf;
}

}  // namespace mvf::count
