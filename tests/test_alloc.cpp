// Heap-allocation budgets of the synthesis inner loop.
//
// This binary replaces the global operator new with a counting one and
// measures, per node of the merged PRESENT:8 and DES:4 AIGs (identity pin
// assignment), the allocations of one rewrite pass, one cut enumeration and
// one factored AIG construction.  The bounds sit well above the current
// counts (about 2.4, 0.01 and 10 per node) and far below the counts of the
// vector-backed truth tables, cuts and per-candidate rewrite buffers they
// replaced (about 80, 15 and 125), so a per-node or per-cut allocation
// that creeps back into these loops fails here.
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
#include "net/cuts.hpp"
#include "sbox/sbox_data.hpp"
#include "synth/optimize.hpp"
#include "synth/rewrite.hpp"

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
// these two.
void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
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

}  // namespace
}  // namespace mvf
