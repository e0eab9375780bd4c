// Heap-allocation budgets of the synthesis inner loop and the SAT kernel.
//
// This binary replaces the global operator new with a counting one.
//
// Synthesis: per node of the merged PRESENT:8 and DES:4 AIGs (identity pin
// assignment), the allocations of one rewrite pass, one cut enumeration and
// one factored AIG construction.  The bounds sit well above the current
// counts (about 2.4, 0.01 and 10 per node) and far below the counts of the
// vector-backed truth tables, cuts and per-candidate rewrite buffers they
// replaced (about 80, 15 and 125), so a per-node or per-cut allocation
// that creeps back into these loops fails here.
//
// SAT: per added clause and per conflict, the allocations of a PRESENT 2
// flow output's plausibility encode and solve, and of a random 3-SAT solve
// whose small learned-clause limit makes reduce_db compact the arena many
// times.  A clause lives in the solver's flat arena and analysis runs on
// member buffers, so what is left is the amortized growth of the arena,
// the watch lists and the per-copy vectors: 0.55 per clause, 2.2 per
// conflict on the fresh plausibility solver (its watch lists are still
// growing) and 0.14 per conflict with compaction.  With a std::vector per
// clause and per analysis the same runs cost 5.2, 23.1 and 16.7.
//
// Sanitizer runtimes own operator new and allocate for their own
// bookkeeping, so under ASan or TSan the counter is left out and the tests
// skip themselves.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "flow/merged_spec.hpp"
#include "flow/obfuscation_flow.hpp"
#include "net/cuts.hpp"
#include "sat/cnf_builder.hpp"
#include "sat/solver.hpp"
#include "sbox/sbox_data.hpp"
#include "synth/optimize.hpp"
#include "synth/rewrite.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MVF_ALLOC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MVF_ALLOC_SANITIZED 1
#endif
#endif

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

#ifndef MVF_ALLOC_SANITIZED
// The array, nothrow and sized forms of the standard library forward to
// these two.  All of them stay out of line: inlined, GCC 12 pairs the
// std::malloc or std::free with the other side's call and reports a
// mismatched new/delete that is not there.
[[gnu::noinline]] void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}
#endif

namespace mvf {
namespace {

#ifdef MVF_ALLOC_SANITIZED
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
constexpr const char* kSanitizedReason =
    "allocation counts need the plain operator new; the sanitizer runtime "
    "replaces it and allocates on its own";

template <class F>
std::size_t allocations_of(F&& f) {
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    f();
    return g_allocations.load(std::memory_order_relaxed) - before;
}

struct Merge {
    std::string name;
    flow::MergedSpec spec;
};

std::vector<Merge> merges() {
    std::vector<Merge> out;
    const auto add = [&out](std::string name, std::vector<sbox::Sbox> boxes) {
        const auto fns = flow::from_sboxes(boxes);
        const int n = static_cast<int>(fns.size());
        out.push_back({std::move(name),
                       flow::MergedSpec(fns, ga::PinAssignment::identity(
                                                 n, fns.front().num_inputs,
                                                 fns.front().num_outputs))});
    };
    add("present:8", sbox::present_viable_set(8));
    add("des:4", sbox::des_viable_set(4));
    return out;
}

TEST(AllocationBudget, RewritePassPerNode) {
    if (kSanitized) GTEST_SKIP() << kSanitizedReason;
    for (const Merge& m : merges()) {
        const net::Aig aig = m.spec.build_aig(flow::BuildStyle::kFactored);
        synth::SynthContext ctx;
        // The first pass fills the NPN table and the structure library,
        // which every later pass of a run shares.
        net::Aig warm = aig;
        synth::rewrite(&warm, ctx.npn, ctx.rewrite_lib);
        net::Aig subject = aig;
        const std::size_t count = allocations_of(
            [&] { synth::rewrite(&subject, ctx.npn, ctx.rewrite_lib); });
        const double per_node = static_cast<double>(count) / aig.num_nodes();
        RecordProperty(m.name + " per node", std::to_string(per_node));
        EXPECT_LE(per_node, 8.0) << m.name << ": " << count << " allocations";
    }
}

TEST(AllocationBudget, CutSetPerNode) {
    if (kSanitized) GTEST_SKIP() << kSanitizedReason;
    for (const Merge& m : merges()) {
        const net::Aig aig = m.spec.build_aig(flow::BuildStyle::kFactored);
        const std::size_t count = allocations_of(
            [&] { const net::CutSet cuts(aig, net::CutParams{}); });
        const double per_node = static_cast<double>(count) / aig.num_nodes();
        RecordProperty(m.name + " per node", std::to_string(per_node));
        EXPECT_LE(per_node, 2.0) << m.name << ": " << count << " allocations";
    }
}

TEST(AllocationBudget, FactoredBuildPerNode) {
    if (kSanitized) GTEST_SKIP() << kSanitizedReason;
    for (const Merge& m : merges()) {
        net::Aig aig(0);
        aig = m.spec.build_aig(flow::BuildStyle::kFactored);  // warm-up
        const std::size_t count = allocations_of(
            [&] { aig = m.spec.build_aig(flow::BuildStyle::kFactored); });
        const double per_node = static_cast<double>(count) / aig.num_nodes();
        RecordProperty(m.name + " per node", std::to_string(per_node));
        EXPECT_LE(per_node, 16.0) << m.name << ": " << count << " allocations";
    }
}


TEST(AllocationBudget, PlausibilityEncodeAndSolve) {
    if (kSanitized) GTEST_SKIP() << kSanitizedReason;
    // attack::is_plausible's encoding, spelled out so the clause count is
    // visible: one constant-input copy per pattern, the target on its
    // outputs, then one solve.
    flow::ObfuscationFlow engine;
    flow::FlowParams p;
    p.ga.population = 8;
    p.ga.generations = 3;
    p.run_random_baseline = false;
    p.seed = 5;
    const auto fns = flow::from_sboxes(sbox::present_viable_set(2));
    const flow::FlowResult result = engine.run(fns, p);
    ASSERT_TRUE(result.camouflaged);
    const camo::CamoNetlist& nl = *result.camouflaged;
    const flow::MergedSpec spec(fns, result.ga.best);
    const auto targets = spec.expected_outputs_for_code(1);

    sat::Solver solver;
    const std::size_t encode = allocations_of([&] {
        sat::CnfBuilder builder(nl, &solver);
        std::vector<bool> inputs(static_cast<std::size_t>(nl.num_pis()));
        for (std::uint32_t x = 0; x < (1u << nl.num_pis()); ++x) {
            for (int i = 0; i < nl.num_pis(); ++i) {
                inputs[static_cast<std::size_t>(i)] = (x >> i) & 1;
            }
            const sat::CnfBuilder::Copy copy = builder.add_copy(inputs);
            for (int q = 0; q < nl.num_pos(); ++q) {
                const sat::Lit l = copy.po[static_cast<std::size_t>(q)];
                solver.add_unit(targets[static_cast<std::size_t>(q)].bit(x)
                                    ? l
                                    : sat::lit_not(l));
            }
        }
    });
    const double per_clause =
        static_cast<double>(encode) / static_cast<double>(solver.num_clauses());
    RecordProperty("encode allocations per clause", std::to_string(per_clause));
    EXPECT_LE(per_clause, 1.5) << encode << " allocations for "
                               << solver.num_clauses() << " clauses";

    const std::size_t solve = allocations_of([&] {
        EXPECT_EQ(solver.solve(), sat::Solver::Result::kSat);
    });
    const double per_conflict = static_cast<double>(solve) /
                                static_cast<double>(solver.stats().conflicts);
    RecordProperty("solve allocations per conflict", std::to_string(per_conflict));
    EXPECT_LE(per_conflict, 6.0) << solve << " allocations for "
                                 << solver.stats().conflicts << " conflicts";
}

TEST(AllocationBudget, SolveWithArenaCompactionPerConflict) {
    if (kSanitized) GTEST_SKIP() << kSanitizedReason;
    // Random 3-SAT near the threshold under a learned limit of 40: every
    // few dozen conflicts reduce_db drops half the learned clauses and
    // compacts the arena.
    util::Rng rng(7);
    const int nv = 200;
    sat::Solver solver;
    for (int v = 0; v < nv; ++v) solver.new_var();
    solver.set_learned_limit(40);
    std::vector<sat::Lit> clause(3);
    for (int c = 0; c < 426 * nv / 100; ++c) {
        for (sat::Lit& l : clause) {
            l = sat::mk_lit(rng.uniform_int(0, nv - 1), rng.coin(0.5));
        }
        solver.add_clause(clause);
    }
    const std::size_t count = allocations_of([&] { solver.solve(); });
    const sat::Solver::Stats& st = solver.stats();
    ASSERT_GT(st.reduces, 10u) << st.conflicts << " conflicts";
    const double per_conflict =
        static_cast<double>(count) / static_cast<double>(st.conflicts);
    RecordProperty("allocations per conflict", std::to_string(per_conflict));
    EXPECT_LE(per_conflict, 1.0) << count << " allocations for " << st.conflicts
                                 << " conflicts and " << st.reduces
                                 << " reductions";
}

}  // namespace
}  // namespace mvf
