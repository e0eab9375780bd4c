#pragma once
// Shared CNF carrier for the model-counting subsystem.
//
// The exact counter (count::ProjectedCounter) consumes a clause set plus
// the *projection set* -- the variables whose assignments are being
// counted (the attack layer's selector families).
// Everything else is existential: a projected model is an assignment to the
// projection variables that extends to a full satisfying assignment.

#include <span>
#include <vector>

#include "sat/solver.hpp"

namespace mvf::count {

struct Cnf {
    int num_vars = 0;
    std::vector<std::vector<sat::Lit>> clauses;
    /// Distinct variables (< num_vars) whose assignment space is counted.
    std::vector<sat::Var> projection;
};

/// Throws std::invalid_argument unless num_vars >= 0 and every literal and
/// projection variable lies in [0, num_vars).  The counter calls it before
/// it indexes anything by variable or literal; cnf_from_solver output
/// always passes.
void validate(const Cnf& cnf);

/// Snapshots `solver`'s current problem formula (see
/// sat::Solver::snapshot_clauses) as a counting instance projected onto
/// `projection`.  The projection variables must not have been eliminated by
/// preprocessing (freeze them); elimination of non-projection variables is
/// fine -- bounded variable elimination preserves the projected model count
/// over the surviving variables.
Cnf cnf_from_solver(const sat::Solver& solver,
                    std::span<const sat::Var> projection);

}  // namespace mvf::count
