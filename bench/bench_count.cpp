// Survivor-counting backends head to head: exact projected model counting
// vs. the legacy capped enumeration, over selector spaces that grow far
// past the old 2^20 enumeration cap.
//
// Families:
//   deadD  -- 2 PIs, one live camouflaged NAND2 driving the PO, D dead
//             camouflaged cells: survivor count = (#plausible)^D x 1,
//             exactly the multiplicative-freedom regime the ROADMAP item
//             ("a projected model counter would remove the cap on large
//             spaces") is about.  Enumeration saturates at the cap from
//             D >= 9 on; the counter decomposes the dead tail into one
//             component per cell and stays exact and fast.
//   randP  -- random fully-camouflaged netlists at P primary inputs, some
//             where both backends complete and some where enumeration
//             saturates.
//
// That the counts agree wherever enumeration completes, and that the
// parallel counts equal the serial one, is pinned by test_count.  The one
// check left here is timing: in full mode on a host with >= 4 cores the
// harness fails (exit 1) unless 4 cube workers count at least 2x faster
// than the serial counter.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "attack/oracle_attack.hpp"
#include "attack/random_camo.hpp"
#include "bench_common.hpp"
#include "camo/camo_cell.hpp"
#include "map/gate_library.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace mvf;
using attack::CountMode;
using attack::OracleAttackParams;
using attack::OracleAttackResult;
using attack::SimOracle;
using camo::CamoLibrary;
using camo::CamoNetlist;

/// 2 PIs, `dead` camouflaged cells outside the PO cone, one live
/// camouflaged NAND2 driving the PO (see tests/test_count.cpp).
CamoNetlist dead_tail_netlist(const CamoLibrary& lib, int dead) {
    CamoNetlist nl(lib);
    const int camo_id = lib.camo_of_nominal(lib.gate_library().find("NAND2"));
    const int a = nl.add_pi("a");
    const int b = nl.add_pi("b");
    const auto make_cell = [&]() {
        CamoNetlist::Node cell;
        cell.kind = CamoNetlist::NodeKind::kCell;
        cell.camo_cell_id = camo_id;
        cell.fanins = {a, b};
        cell.used_pin_mask = 3;
        cell.config_fn = {0};
        return cell;
    };
    for (int i = 0; i < dead; ++i) nl.add_cell(make_cell());
    nl.add_po(nl.add_cell(make_cell()), "o");
    return nl;
}

struct Row {
    std::string name;
    double space_bits = 0.0;
    std::string exact_count;
    std::string exact_status;
    double exact_seconds = 0.0;
    std::uint64_t decisions = 0;
    std::uint64_t components = 0;
    std::uint64_t cache_hits = 0;
    std::string enum_count;
    std::string enum_status;
    double enum_seconds = 0.0;
};

const char* status_name(OracleAttackResult::Status s) {
    switch (s) {
        case OracleAttackResult::Status::kSolved: return "solved";
        case OracleAttackResult::Status::kNoSurvivor: return "no-survivor";
        case OracleAttackResult::Status::kIterationLimit: return "iter-limit";
        case OracleAttackResult::Status::kSurvivorLimit: return "capped";
        case OracleAttackResult::Status::kQueryBudget: return "query-budget";
    }
    return "?";
}

Row run_row(const CamoNetlist& nl, const std::string& name,
            std::uint64_t decision_budget, std::uint64_t enum_cap) {
    Row row;
    row.name = name;
    row.space_bits = nl.config_space_bits();

    {
        SimOracle oracle(nl, nl.configuration_for_code(0));
        OracleAttackParams params;
        params.count_mode = CountMode::kExact;
        params.count_max_decisions = decision_budget;
        util::Stopwatch sw;
        const OracleAttackResult r = attack::oracle_attack(nl, oracle, params);
        row.exact_seconds = sw.elapsed_seconds();
        row.exact_count = r.survivors.to_string();
        row.exact_status = status_name(r.status);
        if (r.count_mode != CountMode::kExact) row.exact_status += "+fallback";
        row.decisions = r.count_stats.decisions;
        row.components = r.count_stats.components;
        row.cache_hits = r.count_stats.cache_hits;
    }
    {
        SimOracle oracle(nl, nl.configuration_for_code(0));
        OracleAttackParams params;
        params.count_mode = CountMode::kEnumerate;
        params.max_survivors = enum_cap;
        util::Stopwatch sw;
        const OracleAttackResult r = attack::oracle_attack(nl, oracle, params);
        row.enum_seconds = sw.elapsed_seconds();
        row.enum_count = r.survivors.to_string();
        row.enum_status = status_name(r.status);
    }
    return row;
}

/// Cube-and-conquer scaling on a dense random 3-CNF (no netlist structure
/// to decompose away, so the cube workers do real branching work).  In
/// full mode the 4-thread run must clear the 2x acceptance bar (skipped
/// under --quick); returns false if it does not.
bool parallel_count_section(const benchx::BenchArgs& args) {
    using count::Cnf;
    using count::CounterConfig;
    using count::ProjectedCounter;

    const int vars = args.quick ? 36 : 56;
    const int clauses = vars * 17 / 10;  // ratio ~1.7: dense but countable
    util::Rng rng(args.seed * 401 + 9);
    Cnf cnf;
    cnf.num_vars = vars;
    for (int c = 0; c < clauses; ++c) {
        std::vector<sat::Lit> clause;
        for (int k = 0; k < 3; ++k) {
            clause.push_back(sat::mk_lit(rng.uniform_int(0, vars - 1),
                                         rng.coin(0.5)));
        }
        cnf.clauses.push_back(std::move(clause));
    }
    for (sat::Var v = 0; v < vars; ++v) cnf.projection.push_back(v);

    util::Stopwatch sw;
    ProjectedCounter serial(cnf);
    const ProjectedCounter::Result base = serial.count();
    const double serial_s = sw.elapsed_seconds();

    std::printf(
        "\ncube-and-conquer scaling (dense random 3-CNF, %d vars, %d "
        "clauses, count %s):\n",
        vars, clauses, base.count.to_string().c_str());
    std::printf("  serial        %8.3fs\n", serial_s);

    double speedup4 = 0.0;
    for (const int threads : {2, 4}) {
        CounterConfig cc;
        cc.threads = threads;
        sw.reset();
        ProjectedCounter parallel(cnf, cc);
        parallel.count();
        const double par_s = sw.elapsed_seconds();
        const double speedup = par_s > 0.0 ? serial_s / par_s : 0.0;
        if (threads == 4) speedup4 = speedup;
        std::printf("  %d threads     %8.3fs   %4.1fx\n", threads, par_s,
                    speedup);
    }
    // The 2x acceptance bound only means something where 4 workers can
    // actually run concurrently; on fewer cores the timing is just
    // timesharing.
    const unsigned cores = std::thread::hardware_concurrency();
    if (!args.quick && cores >= 4) {
        if (speedup4 < 2.0) {
            std::fprintf(stderr,
                         "cube-and-conquer speedup at 4 threads is %.2fx "
                         "(acceptance bound: 2x)\n",
                         speedup4);
            return false;
        }
    } else if (!args.quick) {
        std::printf("  (speedup bound skipped: %u core%s)\n", cores,
                    cores == 1 ? "" : "s");
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    const benchx::BenchArgs args = benchx::BenchArgs::parse(argc, argv);
    benchx::print_header(
        "bench_count -- survivor counting: exact projected #SAT vs capped "
        "enumeration");

    const CamoLibrary lib =
        CamoLibrary::from_gate_library(tech::GateLibrary::standard());

    std::vector<Row> rows;
    // Enumeration cap: the historical 2^20 default; --quick lowers it so
    // the smoke run does not spend a minute enumerating a million models
    // (saturation shows either way).  Exact budget sized so the selected
    // rows complete without the fallback.
    const std::uint64_t enum_cap = args.quick ? 1u << 14 : 1u << 20;
    const std::uint64_t budget = args.quick ? 400'000 : 2'000'000;

    // Dead-tail family: spaces of ~2.3 bits per cell; enumeration
    // saturates once (#plausible)^D exceeds the cap, the counter never
    // does.
    std::vector<int> dead_sizes = args.quick ? std::vector<int>{4, 8, 16, 32}
                                             : std::vector<int>{4, 8, 16, 32,
                                                                64, 96};
    for (const int dead : dead_sizes) {
        rows.push_back(run_row(dead_tail_netlist(lib, dead),
                               "dead" + std::to_string(dead), budget,
                               enum_cap));
    }

    // Random live netlists (PIs, generator seed salt): a mix of spaces
    // where both backends complete (live differential) and spaces of
    // 10^8+ survivors where enumeration saturates and the counter answers
    // exactly in well under a second.
    using PisSeed = std::pair<int, std::uint64_t>;
    const std::vector<PisSeed> rand_rows =
        args.quick ? std::vector<PisSeed>{{5, 1}, {6, 2}, {8, 3}}
                   : std::vector<PisSeed>{{5, 1}, {6, 2}, {7, 3}, {8, 1},
                                          {8, 3}};
    for (const auto& [pis, salt] : rand_rows) {
        util::Rng rng(salt * 6101 + static_cast<std::uint64_t>(pis));
        const CamoNetlist nl =
            attack::random_camo_netlist(lib, pis, 2, pis + 3, rng);
        rows.push_back(run_row(nl,
                               "rand" + std::to_string(pis) + "s" +
                                   std::to_string(salt),
                               budget, enum_cap));
    }

    std::printf("\n%-8s %9s %-30s %-14s %9s %10s %9s %-12s %9s\n", "family",
                "bits", "exact count", "exact status", "exact s", "decisions",
                "cachehit", "enum status", "enum s");
    for (const Row& r : rows) {
        std::printf("%-8s %9.1f %-30s %-14s %9.3f %10llu %9llu %-12s %9.3f\n",
                    r.name.c_str(), r.space_bits,
                    r.exact_count.size() > 30
                        ? (r.exact_count.substr(0, 27) + "...").c_str()
                        : r.exact_count.c_str(),
                    r.exact_status.c_str(), r.exact_seconds,
                    static_cast<unsigned long long>(r.decisions),
                    static_cast<unsigned long long>(r.cache_hits),
                    r.enum_status.c_str(), r.enum_seconds);
    }

    if (!args.csv_path.empty()) {
        util::CsvWriter csv(args.csv_path);
        csv.write_row({"family", "space_bits", "exact_count", "exact_status",
                    "exact_seconds", "decisions", "components", "cache_hits",
                    "enum_count", "enum_status", "enum_seconds"});
        for (const Row& r : rows) {
            csv.write_row({r.name, util::CsvWriter::field(r.space_bits),
                     r.exact_count, r.exact_status,
                     util::CsvWriter::field(r.exact_seconds),
                     util::CsvWriter::field(static_cast<std::size_t>(r.decisions)),
                     util::CsvWriter::field(static_cast<std::size_t>(r.components)),
                     util::CsvWriter::field(static_cast<std::size_t>(r.cache_hits)),
                     r.enum_count, r.enum_status,
                     util::CsvWriter::field(r.enum_seconds)});
        }
    }

    const bool bound_ok = parallel_count_section(args);

    std::printf(
        "\nnote: 'capped' rows are the legacy lower bound (cap 2^%d); the\n"
        "exact column is the uncapped projected count.  The dead-tail\n"
        "family is the multiplicative-freedom regime the counter removes\n"
        "the cap for; dense decomposition-resistant instances fall back to\n"
        "enumeration after the decision budget (see README).\n",
        args.quick ? 14 : 20);
    return bound_ok ? 0 : 1;
}
