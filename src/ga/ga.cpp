#include "ga/ga.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

namespace mvf::ga {
namespace {

struct Individual {
    PinAssignment genes;
    double area = std::numeric_limits<double>::infinity();
};

}  // namespace

GaResult run_ga(int num_functions, int num_inputs, int num_outputs,
                const FitnessFn& fitness, const GaParams& params) {
    if (params.population < 1) {
        std::string what = "ga: population must be >= 1, got ";
        what += std::to_string(params.population);
        throw std::invalid_argument(what);
    }
    util::Rng rng(params.seed);
    GaResult result;
    result.best_area = std::numeric_limits<double>::infinity();

    std::vector<Individual> pop(static_cast<std::size_t>(params.population));
    for (auto& ind : pop) {
        ind.genes =
            PinAssignment::random(num_functions, num_inputs, num_outputs, rng);
        ind.area = fitness(ind.genes);
        ++result.history.evaluations;
    }

    const auto by_area = [](const Individual& a, const Individual& b) {
        return a.area < b.area;
    };

    const auto tournament = [&](util::Rng& r) -> const Individual& {
        const Individual* best = nullptr;
        for (int t = 0; t < params.tournament_size; ++t) {
            const Individual& cand = pop[static_cast<std::size_t>(
                r.uniform_int(0, params.population - 1))];
            if (!best || cand.area < best->area) best = &cand;
        }
        return *best;
    };

    for (int gen = 0; gen < params.generations; ++gen) {
        std::sort(pop.begin(), pop.end(), by_area);
        // History snapshot (running best + population average).
        double sum = 0.0;
        for (const auto& ind : pop) sum += ind.area;
        result.best_area = std::min(result.best_area, pop.front().area);
        if (pop.front().area <= result.best_area) result.best = pop.front().genes;
        result.history.best_per_generation.push_back(result.best_area);
        result.history.avg_per_generation.push_back(
            sum / static_cast<double>(params.population));

        std::vector<Individual> next;
        next.reserve(pop.size());
        for (int e = 0; e < params.elite && e < params.population; ++e) {
            next.push_back(pop[static_cast<std::size_t>(e)]);  // no re-eval
        }
        while (static_cast<int>(next.size()) < params.population) {
            Individual child;
            const Individual& p1 = tournament(rng);
            const Individual& p2 = tournament(rng);
            child.genes = p1.genes;
            if (rng.coin(params.crossover_prob)) {
                for (int k = 0; k < num_functions; ++k) {
                    child.genes.input_perms[static_cast<std::size_t>(k)] =
                        pmx_crossover(
                            p1.genes.input_perms[static_cast<std::size_t>(k)],
                            p2.genes.input_perms[static_cast<std::size_t>(k)], rng);
                    child.genes.output_perms[static_cast<std::size_t>(k)] =
                        pmx_crossover(
                            p1.genes.output_perms[static_cast<std::size_t>(k)],
                            p2.genes.output_perms[static_cast<std::size_t>(k)], rng);
                }
            }
            for (int k = 0; k < num_functions; ++k) {
                if (rng.coin(params.mutation_prob)) {
                    swap_mutation(
                        &child.genes.input_perms[static_cast<std::size_t>(k)], rng);
                }
                if (rng.coin(params.mutation_prob)) {
                    swap_mutation(
                        &child.genes.output_perms[static_cast<std::size_t>(k)], rng);
                }
            }
            child.area = fitness(child.genes);
            ++result.history.evaluations;
            next.push_back(std::move(child));
        }
        pop = std::move(next);
    }

    std::sort(pop.begin(), pop.end(), by_area);
    if (pop.front().area < result.best_area) {
        result.best_area = pop.front().area;
        result.best = pop.front().genes;
    }
    result.history.best_per_generation.push_back(result.best_area);
    double sum = 0.0;
    for (const auto& ind : pop) sum += ind.area;
    result.history.avg_per_generation.push_back(
        sum / static_cast<double>(params.population));
    return result;
}

RandomSearchResult random_search(int num_functions, int num_inputs,
                                 int num_outputs, const FitnessFn& fitness,
                                 int count, std::uint64_t seed) {
    util::Rng rng(seed);
    RandomSearchResult result;
    result.best_area = std::numeric_limits<double>::infinity();
    result.all_areas.reserve(static_cast<std::size_t>(count));
    double sum = 0.0;
    for (int i = 0; i < count; ++i) {
        PinAssignment pa =
            PinAssignment::random(num_functions, num_inputs, num_outputs, rng);
        const double area = fitness(pa);
        result.all_areas.push_back(area);
        sum += area;
        if (area < result.best_area) {
            result.best_area = area;
            result.best = std::move(pa);
        }
    }
    result.avg_area = count > 0 ? sum / count : 0.0;
    return result;
}

}  // namespace mvf::ga
