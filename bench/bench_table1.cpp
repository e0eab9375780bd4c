// Reproduces Table I: area comparison for merged S-box circuits.
//
// Rows: PRESENT-style (Leander-Poschmann optimal 4-bit S-boxes) merged
// 2/4/8/16-way and DES S-boxes merged 2/4/8-way.  Columns: random pin
// assignment (average / best over an equal evaluation budget), genetic
// algorithm (GA), GA followed by camouflage technology mapping (GA+TM), and
// the improvement of GA+TM over the best random solution.
//
// Paper numbers (GE):            rnd-avg  rnd-best   GA   GA+TM  improv%
//   PRESENT  2                      54       42      41     39      7
//   PRESENT  4                     108       84      74     65     23
//   PRESENT  8                     205      164     118    101     38
//   PRESENT 16                     248      213     183    141     34
//   DES      2                     257      217     200    195     10
//   DES      4                     496      447     257    242     46
//   DES      8                     923      805     473    416     48
//
// Absolute GE differs (different synthesis engine and GE model); the shape
// to check is: GA <= best random, GA+TM < GA, improvement grows with the
// number of merged functions.

#include <vector>

#include "bench_common.hpp"
#include "flow/scheduler.hpp"
#include "sbox/sbox_data.hpp"
#include "util/csv.hpp"
#include "util/stopwatch.hpp"

namespace {

struct Row {
    const char* family;
    int n;
    double paper_avg, paper_best, paper_ga, paper_tm;
};

constexpr Row kPaperRows[] = {
    {"PRESENT", 2, 54, 42, 41, 39},    {"PRESENT", 4, 108, 84, 74, 65},
    {"PRESENT", 8, 205, 164, 118, 101}, {"PRESENT", 16, 248, 213, 183, 141},
    {"DES", 2, 257, 217, 200, 195},    {"DES", 4, 496, 447, 257, 242},
    {"DES", 8, 923, 805, 473, 416},
};

}  // namespace

int main(int argc, char** argv) {
    using namespace mvf;
    const benchx::BenchArgs args = benchx::BenchArgs::parse(argc, argv);
    benchx::print_header("Table I: area comparison for merged S-box circuits");

    std::unique_ptr<util::CsvWriter> csv;
    if (!args.csv_path.empty()) {
        csv = std::make_unique<util::CsvWriter>(args.csv_path);
        csv->write_row({"family", "n", "rand_avg", "rand_best", "ga", "ga_tm",
                        "improvement_pct", "verified", "paper_avg", "paper_best",
                        "paper_ga", "paper_tm"});
    }

    std::printf("%-8s %3s | %8s %8s %8s %8s %8s | %-8s | paper: avg/best/GA/GA+TM/impr%%\n",
                "family", "n", "rnd-avg", "rnd-best", "GA", "GA+TM", "impr%", "verified");
    std::printf("--------------------------------------------------------------"
                "---------------------------------------------\n");

    // One scenario per table row, run as one job (rows are independent, so
    // --jobs N parallelizes the table).
    std::vector<flow::Scenario> scenarios;
    for (const Row& row : kPaperRows) {
        const bool present = std::string(row.family) == "PRESENT";
        flow::Scenario s;
        s.name = std::string(row.family) + ":" + std::to_string(row.n);
        s.family = present ? "present" : "des";
        s.n = row.n;
        s.params.seed = args.seed;
        if (args.paper) {
            // Matches the paper's evaluation budget of 9726 individuals.
            s.params.ga.population = 54;
            s.params.ga.generations = 180;
        } else if (args.quick) {
            s.params.ga.population = 8;
            s.params.ga.generations = present ? 5 : 3;
        } else {
            s.params.ga.population = 16;
            s.params.ga.generations = present ? 15 : 12;
        }
        scenarios.push_back(std::move(s));
    }

    util::Stopwatch total;
    const std::vector<flow::ScenarioRecord> records =
        flow::run_batch(scenarios, args.jobs);

    for (std::size_t i = 0; i < records.size(); ++i) {
        const Row& row = kPaperRows[i];
        const flow::ScenarioRecord& r = records[i];
        if (!r.ok) {
            std::printf("%-8s %3d | FAILED: %s\n", row.family, row.n,
                        r.error.c_str());
            continue;
        }
        const double paper_impr =
            (row.paper_best - row.paper_tm) / row.paper_best * 100.0;
        std::printf(
            "%-8s %3d | %8.1f %8.1f %8.1f %8.1f %8.1f | %-8s | %6.0f/%4.0f/%4.0f/%5.0f/%4.0f%%  (%.0fs)\n",
            row.family, row.n, r.random_avg, r.random_best, r.ga_area,
            r.ga_tm_area, r.improvement_percent, r.verified ? "yes" : "NO",
            row.paper_avg, row.paper_best, row.paper_ga, row.paper_tm,
            paper_impr, r.seconds);
        if (csv) {
            csv->write_row({row.family, util::CsvWriter::field(row.n),
                            util::CsvWriter::field(r.random_avg),
                            util::CsvWriter::field(r.random_best),
                            util::CsvWriter::field(r.ga_area),
                            util::CsvWriter::field(r.ga_tm_area),
                            util::CsvWriter::field(r.improvement_percent),
                            r.verified ? "1" : "0",
                            util::CsvWriter::field(row.paper_avg),
                            util::CsvWriter::field(row.paper_best),
                            util::CsvWriter::field(row.paper_ga),
                            util::CsvWriter::field(row.paper_tm)});
        }
    }
    std::printf("\nGA budget: %s (use --paper for the full 9726-individual runs, "
                "--quick for a smoke run)\n",
                args.paper ? "paper-scale" : (args.quick ? "quick" : "default"));
    std::printf("total time: %.1fs\n", total.elapsed_seconds());
    return 0;
}
