#include "logic/factor.hpp"

#include <array>
#include <cassert>
#include <utility>

namespace mvf::logic {
namespace {

// Finds the literal (var, polarity) occurring most often across the cubes.
// Returns {-1, false} if no literal occurs in two or more cubes.
std::pair<int, bool> most_frequent_literal(const std::vector<Cube>& cubes) {
    std::array<int, 32> pos_count{};
    std::array<int, 32> neg_count{};
    for (const Cube& c : cubes) {
        for (int v = 0; v < 32; ++v) {
            if (!c.has_var(v)) continue;
            if (c.is_positive(v))
                ++pos_count[static_cast<std::size_t>(v)];
            else
                ++neg_count[static_cast<std::size_t>(v)];
        }
    }
    int best_var = -1;
    bool best_pol = false;
    int best_count = 1;
    for (int v = 0; v < 32; ++v) {
        if (pos_count[static_cast<std::size_t>(v)] > best_count) {
            best_count = pos_count[static_cast<std::size_t>(v)];
            best_var = v;
            best_pol = true;
        }
        if (neg_count[static_cast<std::size_t>(v)] > best_count) {
            best_count = neg_count[static_cast<std::size_t>(v)];
            best_var = v;
            best_pol = false;
        }
    }
    return {best_var, best_pol};
}

}  // namespace

FactorTree FactorTree::from_sop(const Sop& sop) {
    FactorTree tree;
    tree.root_ = tree.build(sop.cubes);
    return tree;
}

int FactorTree::add(FactorNode n) {
    nodes_.push_back(std::move(n));
    return static_cast<int>(nodes_.size()) - 1;
}

int FactorTree::build_cube(const Cube& cube) {
    if (cube.mask == 0) return add({FactorKind::kConst1, -1, false, {}});
    std::vector<int> lits;
    for (int v = 0; v < 32; ++v) {
        if (!cube.has_var(v)) continue;
        lits.push_back(add({FactorKind::kLiteral, v, !cube.is_positive(v), {}}));
    }
    if (lits.size() == 1) return lits[0];
    return add({FactorKind::kAnd, -1, false, std::move(lits)});
}

int FactorTree::build(std::vector<Cube> cubes) {
    if (cubes.empty()) return add({FactorKind::kConst0, -1, false, {}});
    if (cubes.size() == 1) return build_cube(cubes[0]);

    // Note: deliberately not a structured binding -- GCC 12 at -O1+
    // miscompiles `const auto [var, pol]` in this recursive function.
    const std::pair<int, bool> mf = most_frequent_literal(cubes);
    const int var = mf.first;
    const bool pol = mf.second;
    if (var < 0) {
        // No shared literal: plain disjunction of cubes.
        std::vector<int> terms;
        terms.reserve(cubes.size());
        for (const Cube& c : cubes) terms.push_back(build_cube(c));
        return add({FactorKind::kOr, -1, false, std::move(terms)});
    }

    // Divide by the literal: F = lit * quotient + remainder.
    std::vector<Cube> quotient;
    std::vector<Cube> remainder;
    for (Cube c : cubes) {
        if (c.has_var(var) && c.is_positive(var) == pol) {
            c.remove_var(var);
            quotient.push_back(c);
        } else {
            remainder.push_back(c);
        }
    }
    const int lit = add({FactorKind::kLiteral, var, !pol, {}});
    const int q = build(std::move(quotient));
    const int product = add({FactorKind::kAnd, -1, false, {lit, q}});
    if (remainder.empty()) return product;
    const int r = build(std::move(remainder));
    return add({FactorKind::kOr, -1, false, {product, r}});
}

int FactorTree::num_literals() const {
    return root_ < 0 ? 0 : literals_below(root_);
}

int FactorTree::literals_below(int idx) const {
    const FactorNode& n = node(idx);
    if (n.kind == FactorKind::kLiteral) return 1;
    int total = 0;
    for (const int c : n.children) total += literals_below(c);
    return total;
}

TruthTable FactorTree::to_truth_table(int num_vars) const {
    return tt_below(root_, num_vars);
}

TruthTable FactorTree::tt_below(int idx, int num_vars) const {
    const FactorNode& n = node(idx);
    switch (n.kind) {
        case FactorKind::kConst0:
            return TruthTable::zeros(num_vars);
        case FactorKind::kConst1:
            return TruthTable::ones(num_vars);
        case FactorKind::kLiteral: {
            TruthTable t = TruthTable::var(n.var, num_vars);
            return n.negated ? ~t : t;
        }
        case FactorKind::kAnd: {
            TruthTable t = TruthTable::ones(num_vars);
            for (const int c : n.children) t &= tt_below(c, num_vars);
            return t;
        }
        case FactorKind::kOr: {
            TruthTable t = TruthTable::zeros(num_vars);
            for (const int c : n.children) t |= tt_below(c, num_vars);
            return t;
        }
    }
    assert(false);
    return TruthTable();
}

std::string FactorTree::to_string() const {
    return root_ < 0 ? "0" : string_below(root_);
}

std::string FactorTree::string_below(int idx) const {
    const FactorNode& n = node(idx);
    switch (n.kind) {
        case FactorKind::kConst0:
            return "0";
        case FactorKind::kConst1:
            return "1";
        case FactorKind::kLiteral: {
            std::string s(1, static_cast<char>('a' + n.var));
            if (n.negated) s += '\'';
            return s;
        }
        case FactorKind::kAnd: {
            std::string s;
            for (std::size_t i = 0; i < n.children.size(); ++i) {
                if (i) s += ' ';
                const FactorNode& c = node(n.children[i]);
                if (c.kind == FactorKind::kOr)
                    s += '(' + string_below(n.children[i]) + ')';
                else
                    s += string_below(n.children[i]);
            }
            return s;
        }
        case FactorKind::kOr: {
            std::string s;
            for (std::size_t i = 0; i < n.children.size(); ++i) {
                if (i) s += " + ";
                s += string_below(n.children[i]);
            }
            return s;
        }
    }
    assert(false);
    return "";
}

}  // namespace mvf::logic
