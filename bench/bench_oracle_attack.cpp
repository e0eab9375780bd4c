// Oracle-guided CEGAR de-camouflaging cost curves, with the SAT-layer
// optimizations measured rather than asserted.
//
// The paper evaluates its attacker only where the input space is
// enumerable (4-10 bit S-boxes).  This harness extends the attack cost
// curves to circuit widths where the enumeration encoding of
// attack/plausibility is infeasible (>= 16 primary inputs): for each size
// it generates a random fully-camouflaged netlist, hands the attacker a
// simulation oracle holding the hidden all-nominal configuration, and
// reports the oracle-query count, incremental-SAT statistics, surviving
// configurations, and wall time of the CEGAR loop.  The final row attacks
// the camouflaged circuit produced by the paper's own flow (4 merged
// S-boxes) for a direct tie-in.
//
// Each row runs twice: once with the full SolverConfig pipeline
// (preprocessing + inprocessing + structure-shared miter, the "pre" time
// column) and once with everything off (the legacy PR-1 encoding, the
// "plain" column).  The second run REPLAYS the first run's transcript
// through attack::TranscriptOracle -- the recording run wraps the chip,
// the plain run replays chip-free via Oracle::scripted_pattern(), the same
// public API the attack uses live.  Any prefix of a valid run's transcript
// is itself a valid distinguishing sequence against the same oracle, so
// both runs do the same number of CEGAR solves over the same logical
// constraint sets and converge to bit-identical outcomes -- the harness
// asserts identical query and survivor counts and reports the speedup as a
// pure solver-layer measurement on identical attack transcripts.
//
// Before the cost curves, a word-parallel oracle microbenchmark times one
// 64-pattern query_block against 64 scalar query() calls (and against the
// legacy allocating simulate_camo_pattern path) on a 16-PI netlist, and
// DIES unless the block path is at least 8x faster -- the batching
// speedup is asserted, not eyeballed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "attack/oracle.hpp"
#include "attack/oracle_attack.hpp"
#include "attack/random_camo.hpp"
#include "audit/commitment.hpp"
#include "audit/committing_oracle.hpp"
#include "bench_common.hpp"
#include "flow/obfuscation_flow.hpp"
#include "obs/trace.hpp"
#include "sbox/sbox_data.hpp"
#include "util/csv.hpp"
#include "util/sha256.hpp"
#include "util/stopwatch.hpp"

namespace {

struct Row {
    std::string name;
    int pis = 0;
    int pos = 0;
    int cells = 0;
    double space_bits = 0.0;
    mvf::attack::OracleAttackResult attack;   ///< full pipeline ("pre")
    mvf::attack::OracleAttackResult plain;    ///< legacy encoding, replayed
};

void print_row(const Row& row) {
    const auto& a = row.attack;
    const double speedup =
        row.plain.seconds > 0.0
            ? (row.plain.seconds - a.seconds) / row.plain.seconds * 100.0
            : 0.0;
    std::printf(
        "%-12s %4d %4d %6d %8.1f | %7d %10llu %8llu %7llu %8.3fs %8.3fs %+6.1f%%  %s\n",
        row.name.c_str(), row.pis, row.pos, row.cells, row.space_bits,
        a.queries, static_cast<unsigned long long>(a.sat_stats.conflicts),
        static_cast<unsigned long long>(a.sat_stats.eliminated_vars),
        static_cast<unsigned long long>(a.surviving_configs), a.seconds,
        row.plain.seconds, speedup, a.solved() ? "solved" : "capped");
}

/// Runs the full-pipeline attack under a recording TranscriptOracle, then
/// replays its transcript chip-free on the legacy encoding; dies if the
/// outcomes diverge (they cannot, short of a solver bug -- this is the
/// "measured, not asserted" guarantee).
Row run_row(const mvf::camo::CamoNetlist& nl, mvf::attack::Oracle& oracle,
            mvf::attack::OracleAttackParams params, std::string name) {
    Row row;
    row.name = std::move(name);
    row.pis = nl.num_pis();
    row.pos = nl.num_pos();
    row.cells = nl.num_cells();
    row.space_bits = nl.config_space_bits();

    params.solver.preprocess = true;
    params.shared_miter = true;
    mvf::attack::TranscriptOracle recorder(oracle);
    row.attack = mvf::attack::oracle_attack(nl, recorder, params);

    params.solver.preprocess = false;
    params.shared_miter = false;
    mvf::attack::TranscriptOracle replay(recorder.transcript());
    row.plain = mvf::attack::oracle_attack(nl, replay, params);

    if (row.plain.queries != row.attack.queries ||
        row.plain.surviving_configs != row.attack.surviving_configs ||
        row.plain.status != row.attack.status) {
        std::fprintf(stderr,
                     "FATAL: %s: outcomes diverged between solver configs "
                     "(queries %d vs %d, survivors %llu vs %llu)\n",
                     row.name.c_str(), row.attack.queries, row.plain.queries,
                     static_cast<unsigned long long>(row.attack.surviving_configs),
                     static_cast<unsigned long long>(row.plain.surviving_configs));
        std::exit(1);
    }
    return row;
}

/// Times one 64-pattern query_block against 64 scalar query() calls and
/// against the legacy allocating simulate_camo_pattern path; dies unless
/// the word-parallel block is at least 8x faster than scalar queries (the
/// acceptance bound of the batched oracle API).
void word_parallel_microbench(const mvf::camo::CamoLibrary& lib,
                              std::uint64_t seed) {
    using namespace mvf;
    util::Rng rng(seed * 131 + 7);
    const camo::CamoNetlist nl =
        attack::random_camo_netlist(lib, 16, 4, 32, rng);
    const std::vector<int> config = nl.configuration_for_code(0);
    attack::SimOracle oracle(nl, config);

    std::vector<std::vector<bool>> patterns;
    for (int k = 0; k < attack::kQueryBlockWidth; ++k) {
        std::vector<bool> p(static_cast<std::size_t>(nl.num_pis()));
        for (std::size_t i = 0; i < p.size(); ++i) p[i] = rng.coin(0.5);
        patterns.push_back(std::move(p));
    }
    const std::vector<std::uint64_t> words = attack::pack_block(patterns);

    // Correctness before timing: every block lane must match the scalar
    // path bit for bit.
    const std::vector<std::uint64_t> block =
        oracle.query_block(words, attack::kQueryBlockWidth);
    for (int k = 0; k < attack::kQueryBlockWidth; ++k) {
        if (oracle.query(patterns[static_cast<std::size_t>(k)]) !=
            attack::unpack_lane(block, k)) {
            std::fprintf(stderr,
                         "FATAL: query_block lane %d diverges from scalar "
                         "query\n", k);
            std::exit(1);
        }
    }

    // Best-of-3 trials per path to shave scheduler noise off the assert.
    const int reps = 500;
    std::uint64_t sink = 0;
    double scalar_s = 1e30;
    double block_s = 1e30;
    double alloc_s = 1e30;
    for (int trial = 0; trial < 3; ++trial) {
        mvf::util::Stopwatch sw;
        for (int rep = 0; rep < reps; ++rep) {
            for (const std::vector<bool>& p : patterns) {
                sink += oracle.query(p)[0] ? 1u : 0u;
            }
        }
        scalar_s = std::min(scalar_s, sw.elapsed_seconds());
        sw.reset();
        for (int rep = 0; rep < reps; ++rep) {
            sink += oracle.query_block(words, attack::kQueryBlockWidth)[0] & 1u;
        }
        block_s = std::min(block_s, sw.elapsed_seconds());
        sw.reset();
        for (int rep = 0; rep < reps; ++rep) {
            for (const std::vector<bool>& p : patterns) {
                sink += sim::simulate_camo_pattern(nl, config, p)[0] ? 1u : 0u;
            }
        }
        alloc_s = std::min(alloc_s, sw.elapsed_seconds());
    }

    const double block_speedup = block_s > 0.0 ? scalar_s / block_s : 0.0;
    const double scratch_gain =
        alloc_s > 0.0 ? (alloc_s - scalar_s) / alloc_s * 100.0 : 0.0;
    std::printf(
        "word-parallel oracle microbench (%d PIs, %d cells, %d patterns x %d "
        "reps, checksum %llu):\n",
        nl.num_pis(), nl.num_cells(), attack::kQueryBlockWidth, reps,
        static_cast<unsigned long long>(sink));
    std::printf("  query_block            %9.3f ms   %5.1fx vs 64 scalar queries\n",
                block_s * 1e3, block_speedup);
    std::printf("  scalar query (scratch) %9.3f ms\n", scalar_s * 1e3);
    std::printf("  simulate_camo_pattern  %9.3f ms   scratch scalar is %.1f%% faster\n\n",
                alloc_s * 1e3, scratch_gain);
    if (block_speedup < 8.0) {
        std::fprintf(stderr,
                     "FATAL: query_block is only %.1fx faster than 64 scalar "
                     "queries (acceptance bound: 8x)\n", block_speedup);
        std::exit(1);
    }
}

/// Measures what the tracing instrumentation costs when NO sink is
/// installed, and DIES if it exceeds 2% of the attack's wall time.  The
/// event count is taken from a real traced run (sink on /dev/null), the
/// per-event disabled cost from a tight Span construct/destruct loop --
/// each site must boil down to one atomic load + branch.
void disabled_tracing_overhead_assert(
    const mvf::camo::CamoLibrary& lib, std::uint64_t seed,
    const mvf::attack::OracleAttackParams& params) {
    using namespace mvf;
    util::Rng rng(seed * 977 + 8);
    const camo::CamoNetlist nl = attack::random_camo_netlist(lib, 8, 2, 16, rng);
    attack::SimOracle oracle(nl, nl.configuration_for_code(0));

    // Untraced reference run (best of 3 against scheduler noise).
    double untraced_s = 1e30;
    for (int trial = 0; trial < 3; ++trial) {
        util::Stopwatch sw;
        attack::oracle_attack(nl, oracle, params);
        untraced_s = std::min(untraced_s, sw.elapsed_seconds());
    }

    // The same attack traced into /dev/null counts the event sites crossed.
    std::uint64_t events = 0;
    {
        obs::TraceSink sink("/dev/null");
        if (sink.ok()) {
            obs::set_trace_sink(&sink);
            attack::oracle_attack(nl, oracle, params);
            obs::set_trace_sink(nullptr);
            events = sink.events();
        }
    }

    // Per-event cost with tracing disabled: one Span per two events.
    const int reps = 2'000'000;
    int live = 0;
    util::Stopwatch sw;
    for (int i = 0; i < reps; ++i) {
        obs::Span span("noop", "bench");
        if (span) ++live;
    }
    const double per_event_s = sw.elapsed_seconds() / (2.0 * reps);

    const double overhead_s = per_event_s * static_cast<double>(events);
    const double pct =
        untraced_s > 0.0 ? overhead_s / untraced_s * 100.0 : 0.0;
    std::printf(
        "disabled-tracing overhead: %.1f ns/event x %llu events = %.1f us "
        "on a %.3fs attack (%.4f%%, live spans %d)\n\n",
        per_event_s * 1e9, static_cast<unsigned long long>(events),
        overhead_s * 1e6, untraced_s, pct, live);
    if (pct >= 2.0) {
        std::fprintf(stderr,
                     "FATAL: disabled tracing costs %.2f%% of attack wall "
                     "time (acceptance bound: 2%%)\n", pct);
        std::exit(1);
    }
}

}  // namespace

int main(int argc, char** argv) {
    using namespace mvf;
    const benchx::BenchArgs args = benchx::BenchArgs::parse(argc, argv);
    benchx::print_header(
        "Oracle-guided CEGAR de-camouflaging beyond enumerable input spaces");

    const camo::CamoLibrary camo_lib =
        camo::CamoLibrary::from_gate_library(tech::GateLibrary::standard());

    word_parallel_microbench(camo_lib, args.seed);

    struct Size {
        int pis, pos, cells;
    };
    std::vector<Size> sizes;
    if (args.quick) {
        sizes = {{8, 2, 16}, {16, 4, 28}};
    } else {
        sizes = {{8, 2, 16}, {12, 3, 24}, {16, 4, 32}, {20, 4, 36}};
        if (args.paper) sizes.push_back({24, 4, 44});
    }

    std::printf("%-12s %4s %4s %6s %8s | %7s %10s %8s %7s %9s %9s %7s\n",
                "circuit", "PIs", "POs", "cells", "cfg bits", "queries",
                "conflicts", "elim", "survive", "pre", "plain", "speedup");
    std::printf("--------------------------------------------------------------"
                "--------------------------------------------\n");

    std::unique_ptr<util::CsvWriter> csv;
    if (!args.csv_path.empty()) {
        csv = std::make_unique<util::CsvWriter>(args.csv_path);
        csv->write_row({"circuit", "pis", "pos", "cells", "config_bits",
                        "queries", "conflicts", "eliminated_vars", "survivors",
                        "pre_seconds", "plain_seconds", "solved"});
    }
    benchx::BenchJson bj("oracle_attack", args);
    double total_pre = 0.0;
    double total_plain = 0.0;
    const auto emit = [&](const Row& row) {
        print_row(row);
        std::fflush(stdout);
        total_pre += row.attack.seconds;
        total_plain += row.plain.seconds;
        if (bj.enabled()) {
            report::Json r = report::Json::object();
            r.set("circuit", row.name);
            r.set("pis", row.pis);
            r.set("pos", row.pos);
            r.set("cells", row.cells);
            r.set("config_bits", row.space_bits);
            r.set("queries", row.attack.queries);
            r.set("conflicts", row.attack.sat_stats.conflicts);
            r.set("solves", row.attack.sat_stats.solves);
            r.set("max_decision_level", row.attack.sat_stats.max_decision_level);
            r.set("eliminated_vars", row.attack.sat_stats.eliminated_vars);
            r.set("survivors", row.attack.surviving_configs);
            r.set("pre_seconds", row.attack.seconds);
            r.set("plain_seconds", row.plain.seconds);
            r.set("solved", row.attack.solved());
            bj.add_row(std::move(r));
        }
        if (csv) {
            csv->write_row(
                {row.name, util::CsvWriter::field(static_cast<std::size_t>(row.pis)),
                 util::CsvWriter::field(static_cast<std::size_t>(row.pos)),
                 util::CsvWriter::field(static_cast<std::size_t>(row.cells)),
                 util::CsvWriter::field(row.space_bits),
                 util::CsvWriter::field(static_cast<std::size_t>(row.attack.queries)),
                 util::CsvWriter::field(
                     static_cast<std::size_t>(row.attack.sat_stats.conflicts)),
                 util::CsvWriter::field(static_cast<std::size_t>(
                     row.attack.sat_stats.eliminated_vars)),
                 util::CsvWriter::field(
                     static_cast<std::size_t>(row.attack.surviving_configs)),
                 util::CsvWriter::field(row.attack.seconds),
                 util::CsvWriter::field(row.plain.seconds),
                 row.attack.solved() ? "1" : "0"});
        }
    };

    attack::OracleAttackParams attack_params;
    // This harness times the CEGAR loop under different SolverConfigs, not
    // the counting subsystem (bench_count covers that); pin the legacy
    // capped enumeration so the measured workload stays comparable across
    // revisions.
    attack_params.count_mode = attack::CountMode::kEnumerate;
    attack_params.max_survivors = 1u << 12;

    disabled_tracing_overhead_assert(camo_lib, args.seed, attack_params);

    for (const Size& size : sizes) {
        util::Rng rng(args.seed * 977 + static_cast<std::uint64_t>(size.pis));
        const camo::CamoNetlist nl = attack::random_camo_netlist(
            camo_lib, size.pis, size.pos, size.cells, rng);
        attack::SimOracle oracle(nl, nl.configuration_for_code(0));
        emit(run_row(nl, oracle, attack_params,
                     "rand" + std::to_string(size.pis)));
    }

    // Query-selection baseline (ROADMAP): a pre-loop random warm-up block
    // through the word-parallel path prunes the viable set before any
    // distinguishing input is solved for.  It trades chip queries for
    // CEGAR iterations: fewer distinguishing inputs, but more patterns
    // asked of the chip in total, so the line prints both.  Measured at 12
    // PIs, where 64 random patterns cover enough of the input space to
    // bite (at 16+ PIs the effect needs proportionally larger warm-ups).
    {
        const int pis = 12;
        util::Rng rng(args.seed * 977 + static_cast<std::uint64_t>(pis));
        const camo::CamoNetlist nl =
            attack::random_camo_netlist(camo_lib, pis, 3, 24, rng);
        attack::SimOracle oracle(nl, nl.configuration_for_code(0));
        attack::OracleAttackParams wp = attack_params;
        wp.solver.preprocess = true;
        wp.shared_miter = true;
        const attack::OracleAttackResult base =
            attack::oracle_attack(nl, oracle, wp);
        wp.random_warmup = 64;
        wp.warmup_seed = args.seed;
        const attack::OracleAttackResult warm =
            attack::oracle_attack(nl, oracle, wp);
        if (warm.surviving_configs != base.surviving_configs) {
            std::fprintf(stderr,
                         "FATAL: random warm-up changed the survivor count "
                         "(%llu vs %llu)\n",
                         static_cast<unsigned long long>(warm.surviving_configs),
                         static_cast<unsigned long long>(base.surviving_configs));
            std::exit(1);
        }
        std::printf(
            "\nrandom warm-up on rand%d: chip queries %d -> %d (%d warm-up + "
            "%d distinguishing), %.3fs -> %.3fs CEGAR\n\n",
            pis, base.queries, warm.warmup_queries + warm.queries,
            warm.warmup_queries, warm.queries, base.seconds, warm.seconds);
        if (bj.enabled()) {
            report::Json w = report::Json::object();
            w.set("pis", pis);
            w.set("base_queries", base.queries);
            w.set("warm_queries", warm.queries);
            w.set("warmup_queries", warm.warmup_queries);
            w.set("base_seconds", base.seconds);
            w.set("warm_seconds", warm.seconds);
            bj.set("random_warmup", std::move(w));
        }
    }

    // Committing-oracle overhead at rand16: a real committed run must
    // preserve the attack outcome bit for bit (commitments observe, never
    // perturb), and the per-pattern commitment cost -- measured from a
    // tight chain-extension loop, like the disabled-tracing assert --
    // must stay under 5% of the attack's wall time.
    {
        const int pis = 16;
        util::Rng rng(args.seed * 977 + static_cast<std::uint64_t>(pis));
        const camo::CamoNetlist nl =
            attack::random_camo_netlist(camo_lib, pis, 4, 32, rng);
        attack::SimOracle chip(nl, nl.configuration_for_code(0));
        attack::OracleAttackParams cp = attack_params;
        cp.solver.preprocess = true;
        cp.shared_miter = true;
        cp.random_warmup = 64;
        cp.warmup_seed = args.seed;
        const attack::OracleAttackResult base =
            attack::oracle_attack(nl, chip, cp);

        audit::CommittingOracle committer(chip, args.seed,
                                          mvf::util::sha256_hex("bench"));
        const attack::OracleAttackResult committed =
            attack::oracle_attack(nl, committer, cp);
        if (committed.queries != base.queries ||
            committed.warmup_queries != base.warmup_queries ||
            committed.surviving_configs != base.surviving_configs) {
            std::fprintf(stderr,
                         "FATAL: the committing decorator changed the attack "
                         "outcome on rand%d (queries %d vs %d, survivors "
                         "%llu vs %llu)\n",
                         pis, committed.queries, base.queries,
                         static_cast<unsigned long long>(
                             committed.surviving_configs),
                         static_cast<unsigned long long>(
                             base.surviving_configs));
            std::exit(1);
        }
        const std::uint64_t patterns = committer.committed();

        // Per-pattern cost: extend a real commitment chain (salt draw +
        // leaf message + SHA-256) over representative 16-in/4-out
        // patterns.  Analytic like the tracing assert: wall-clock A/B of
        // two full attacks would drown 1e2..1e4 hash calls in seconds of
        // SAT noise.
        const int reps = 20'000;
        const std::vector<bool> in(16, true);
        const std::vector<bool> out(4, false);
        std::string prev = mvf::util::sha256_hex("bench");
        util::Stopwatch sw;
        for (int i = 0; i < reps; ++i) {
            const audit::Commitment c = audit::Commitment::commit(
                audit::CommittingOracle::leaf_message(
                    static_cast<std::size_t>(i), in, out, prev),
                prev.substr(0, 32));  // salt-shaped 32-hex-char string
            prev = c.digest_hex;
        }
        const double per_commit_s = sw.elapsed_seconds() / reps;
        const double overhead_s =
            per_commit_s * static_cast<double>(patterns);
        const double pct =
            base.seconds > 0.0 ? overhead_s / base.seconds * 100.0 : 0.0;
        std::printf(
            "committing overhead on rand%d: %.2f us/pattern x %llu patterns "
            "= %.1f us on a %.3fs attack (%.4f%%, outcome preserved)\n\n",
            pis, per_commit_s * 1e6, static_cast<unsigned long long>(patterns),
            overhead_s * 1e6, base.seconds, pct);
        if (bj.enabled()) {
            report::Json c = report::Json::object();
            c.set("pis", pis);
            c.set("patterns", patterns);
            c.set("per_commit_us", per_commit_s * 1e6);
            c.set("overhead_percent", pct);
            bj.set("committing_overhead", std::move(c));
        }
        if (pct >= 5.0) {
            std::fprintf(stderr,
                         "FATAL: committing costs %.2f%% of attack wall time "
                         "(acceptance bound: 5%%)\n", pct);
            std::exit(1);
        }
    }

    // The paper's own flow output (4 merged 4-bit S-boxes) under the same
    // stronger adversary.
    flow::ObfuscationFlow obfuscator;
    flow::FlowParams params;
    params.ga.population = args.quick ? 6 : 12;
    params.ga.generations = args.quick ? 2 : 4;
    params.run_random_baseline = false;
    params.seed = args.seed;
    const auto fns = flow::from_sboxes(sbox::present_viable_set(4));
    const flow::FlowResult fr = obfuscator.run(fns, params);
    if (fr.camouflaged) {
        attack::SimOracle oracle(*fr.camouflaged,
                                 fr.camouflaged->configuration_for_code(0));
        emit(run_row(*fr.camouflaged, oracle, attack_params, "flow4sbox"));
    }

    std::printf("\ntotal CEGAR time: %.3fs with SolverConfig pipeline, %.3fs "
                "plain (%.1f%% faster on identical transcripts)\n",
                total_pre, total_plain,
                total_plain > 0.0 ? (total_plain - total_pre) / total_plain * 100.0
                                  : 0.0);
    std::printf(
        "note: 'survive' counts configurations functionally equivalent to\n"
        "the oracle; the flow's other viable functions are BY DESIGN\n"
        "different functions, so a working-chip adversary eliminates them --\n"
        "the paper's security model assumes the attacker has no such chip.\n");
    bj.set("total_pre_seconds", total_pre);
    bj.set("total_plain_seconds", total_plain);
    bj.write();
    return 0;
}
