// Tests for the genetic algorithm and pin-assignment genotypes.

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "ga/ga.hpp"

namespace mvf::ga {
namespace {

TEST(PinAssignment, IdentityIsValidAndIdempotent) {
    const PinAssignment pa = PinAssignment::identity(3, 4, 4);
    EXPECT_TRUE(pa.valid());
    EXPECT_EQ(pa.num_functions(), 3);
    for (const auto& p : pa.input_perms) {
        for (int i = 0; i < 4; ++i) EXPECT_EQ(p[static_cast<std::size_t>(i)], i);
    }
}

TEST(PinAssignment, RandomIsValid) {
    util::Rng rng(5);
    for (int t = 0; t < 50; ++t) {
        const PinAssignment pa = PinAssignment::random(4, 6, 4, rng);
        EXPECT_TRUE(pa.valid());
    }
}

TEST(PinAssignment, ValidRejectsBrokenPerms) {
    PinAssignment pa = PinAssignment::identity(1, 3, 3);
    pa.input_perms[0][1] = 0;  // duplicate
    EXPECT_FALSE(pa.valid());
    pa = PinAssignment::identity(1, 3, 3);
    pa.output_perms[0][2] = 7;  // out of range
    EXPECT_FALSE(pa.valid());
}

bool is_permutation(const std::vector<int>& v) {
    std::vector<bool> seen(v.size(), false);
    for (const int x : v) {
        if (x < 0 || x >= static_cast<int>(v.size()) || seen[static_cast<std::size_t>(x)]) return false;
        seen[static_cast<std::size_t>(x)] = true;
    }
    return true;
}

TEST(Pmx, ChildIsAlwaysAPermutation) {
    util::Rng rng(7);
    for (int n : {2, 3, 4, 6, 8, 12}) {
        for (int t = 0; t < 200; ++t) {
            const std::vector<int> a = rng.permutation(n);
            const std::vector<int> b = rng.permutation(n);
            const std::vector<int> child = pmx_crossover(a, b, rng);
            EXPECT_TRUE(is_permutation(child)) << "n=" << n;
        }
    }
}

TEST(Pmx, IdenticalParentsReproduceThemselves) {
    util::Rng rng(11);
    const std::vector<int> p = rng.permutation(6);
    for (int t = 0; t < 20; ++t) {
        EXPECT_EQ(pmx_crossover(p, p, rng), p);
    }
}

TEST(SwapMutation, StaysAPermutationAndChangesExactlyTwoSlots) {
    util::Rng rng(13);
    for (int t = 0; t < 100; ++t) {
        std::vector<int> p = rng.permutation(8);
        const std::vector<int> before = p;
        swap_mutation(&p, rng);
        EXPECT_TRUE(is_permutation(p));
        int diff = 0;
        for (int i = 0; i < 8; ++i) {
            if (p[static_cast<std::size_t>(i)] != before[static_cast<std::size_t>(i)]) ++diff;
        }
        EXPECT_EQ(diff, 2);
    }
}

// Synthetic fitness: distance of every permutation from a hidden target.
double synthetic_fitness(const PinAssignment& pa, const PinAssignment& target) {
    double d = 0;
    for (std::size_t k = 0; k < pa.input_perms.size(); ++k) {
        for (std::size_t j = 0; j < pa.input_perms[k].size(); ++j) {
            if (pa.input_perms[k][j] != target.input_perms[k][j]) d += 1;
        }
        for (std::size_t j = 0; j < pa.output_perms[k].size(); ++j) {
            if (pa.output_perms[k][j] != target.output_perms[k][j]) d += 1;
        }
    }
    return d;
}

TEST(Ga, ConvergesOnSyntheticObjective) {
    util::Rng trng(17);
    const PinAssignment target = PinAssignment::random(2, 5, 4, trng);
    GaParams params;
    params.population = 30;
    params.generations = 60;
    params.seed = 3;
    const GaResult r = run_ga(2, 5, 4, [&](const PinAssignment& pa) {
        return synthetic_fitness(pa, target);
    }, params);
    // Random chance of hitting distance <= 2 is tiny; GA should get close.
    EXPECT_LE(r.best_area, 2.0);
    EXPECT_TRUE(r.best.valid());
}

TEST(Ga, HistoryIsMonotoneAndSized) {
    GaParams params;
    params.population = 12;
    params.generations = 10;
    const GaResult r = run_ga(1, 4, 4, [](const PinAssignment& pa) {
        return static_cast<double>(pa.input_perms[0][0]);
    }, params);
    ASSERT_EQ(r.history.best_per_generation.size(),
              static_cast<std::size_t>(params.generations) + 1);
    for (std::size_t g = 1; g < r.history.best_per_generation.size(); ++g) {
        EXPECT_LE(r.history.best_per_generation[g],
                  r.history.best_per_generation[g - 1]);
    }
    EXPECT_GE(r.history.avg_per_generation.front(),
              r.history.best_per_generation.front());
}

TEST(Ga, EvaluationBudgetIsAccounted) {
    GaParams params;
    params.population = 10;
    params.generations = 5;
    params.elite = 2;
    int calls = 0;
    const GaResult r = run_ga(1, 4, 4, [&calls](const PinAssignment&) {
        ++calls;
        return 1.0;
    }, params);
    EXPECT_EQ(calls, r.history.evaluations);
    // initial pop + (pop - elite) per generation
    EXPECT_EQ(r.history.evaluations, 10 + 5 * (10 - 2));
    // An empty or negative population is refused before any evaluation.
    for (const int population : {0, -3}) {
        params.population = population;
        EXPECT_THROW(run_ga(1, 4, 4, [&calls](const PinAssignment&) {
            ++calls;
            return 1.0;
        }, params), std::invalid_argument) << population;
    }
    EXPECT_EQ(calls, r.history.evaluations);
}

TEST(Ga, DeterministicForFixedSeed) {
    GaParams params;
    params.population = 10;
    params.generations = 6;
    params.seed = 42;
    const auto fitness = [](const PinAssignment& pa) {
        double v = 0;
        for (const auto& p : pa.input_perms) {
            for (std::size_t i = 0; i < p.size(); ++i) v += p[i] * static_cast<double>(i);
        }
        return v;
    };
    const GaResult a = run_ga(2, 4, 4, fitness, params);
    const GaResult b = run_ga(2, 4, 4, fitness, params);
    EXPECT_EQ(a.best_area, b.best_area);
    EXPECT_EQ(a.best, b.best);
    EXPECT_EQ(a.history.best_per_generation, b.history.best_per_generation);
}

TEST(RandomSearch, StatsAndBestAreConsistent) {
    const auto fitness = [](const PinAssignment& pa) {
        return static_cast<double>(pa.input_perms[0][0]);
    };
    const RandomSearchResult r = random_search(1, 4, 4, fitness, 200, 9);
    EXPECT_EQ(r.all_areas.size(), 200u);
    double sum = 0;
    double best = 1e18;
    for (const double a : r.all_areas) {
        sum += a;
        best = std::min(best, a);
    }
    EXPECT_NEAR(r.avg_area, sum / 200.0, 1e-12);
    EXPECT_DOUBLE_EQ(r.best_area, best);
    EXPECT_DOUBLE_EQ(fitness(r.best), r.best_area);
    // With 200 samples over 4 first-slot values, the best must be 0.
    EXPECT_DOUBLE_EQ(r.best_area, 0.0);
}

TEST(RandomSearch, DifferentSeedsDiffer) {
    const auto fitness = [](const PinAssignment& pa) {
        double v = 0;
        for (std::size_t i = 0; i < 4; ++i) v = v * 4 + pa.input_perms[0][i];
        return v;
    };
    const RandomSearchResult a = random_search(1, 4, 4, fitness, 10, 1);
    const RandomSearchResult b = random_search(1, 4, 4, fitness, 10, 2);
    EXPECT_NE(a.all_areas, b.all_areas);
}

}  // namespace
}  // namespace mvf::ga
