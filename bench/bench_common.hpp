#pragma once
// Shared helpers for the experiment harnesses under bench/.
//
// Every harness reproduces one table or figure of the paper, prints the
// same rows/series the paper reports, and optionally appends CSV output.
// Flags are parsed HERE, uniformly, so every binary accepts the same set
// (per-binary ad-hoc parsing is a bug):
//   --quick   minimal budgets (CI smoke run)
//   --paper   paper-scale GA budget (~9726 individuals per circuit; slow)
//   --seed N  RNG seed (default 1)
//   --jobs N  worker threads for harnesses that run independent
//             scenarios as one flow::JobScheduler job (default 1)
//   --csv F   also write results to CSV file F
//   --json F  also write results as a machine-readable JSON document
//             (the BENCH_<name>.json artifacts CI uploads per run)

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "report/json.hpp"

namespace mvf::benchx {

struct BenchArgs {
    bool quick = false;
    bool paper = false;
    std::uint64_t seed = 1;
    int jobs = 1;
    std::string csv_path;
    std::string json_path;

    static BenchArgs parse(int argc, char** argv) {
        BenchArgs args;
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--quick") == 0) {
                args.quick = true;
            } else if (std::strcmp(argv[i], "--paper") == 0) {
                args.paper = true;
            } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
                args.seed = std::strtoull(argv[++i], nullptr, 10);
            } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
                args.jobs = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
                if (args.jobs < 1) args.jobs = 1;
            } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
                args.csv_path = argv[++i];
            } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
                args.json_path = argv[++i];
            } else {
                std::fprintf(
                    stderr,
                    "usage: %s [--quick] [--paper] [--seed N] [--jobs N] "
                    "[--csv F] [--json F]\n",
                    argv[0]);
                std::exit(2);
            }
        }
        return args;
    }
};

/// Accumulates the harness's result rows into one JSON document:
///
///   {"bench": <name>, "quick": ..., "paper": ..., "seed": ...,
///    "rows": [...], <extras>}
///
/// write() is a successful no-op when --json was not passed, so harnesses
/// call it unconditionally; on a real path it dies on I/O failure (a bench
/// asked for an artifact it could not produce).
class BenchJson {
public:
    BenchJson(std::string name, const BenchArgs& args)
        : path_(args.json_path),
          doc_(report::Json::object()),
          rows_(report::Json::array()) {
        doc_.set("bench", std::move(name));
        doc_.set("quick", args.quick);
        doc_.set("paper", args.paper);
        doc_.set("seed", args.seed);
        doc_.set("jobs", static_cast<std::int64_t>(args.jobs));
    }

    bool enabled() const { return !path_.empty(); }

    void add_row(report::Json row) { rows_.push_back(std::move(row)); }

    /// Top-level summary values next to "rows" (totals, asserts, ...).
    void set(const std::string& key, report::Json value) {
        doc_.set(key, std::move(value));
    }

    void write() {
        if (!enabled()) return;
        doc_.set("rows", std::move(rows_));
        const report::JsonWriter writer(path_);
        if (!writer.write(doc_)) {
            std::fprintf(stderr, "FATAL: cannot write %s\n", path_.c_str());
            std::exit(1);
        }
        std::printf("json written to %s\n", path_.c_str());
    }

private:
    std::string path_;
    report::Json doc_;
    report::Json rows_;
};

inline void print_header(const char* title) {
    std::printf("==============================================================\n");
    std::printf("%s\n", title);
    std::printf("  (reproduction of: Keshavarz, Paar, Holcomb, \"Design\n"
                "   Automation for Obfuscated Circuits with Multiple Viable\n"
                "   Functions\", DATE 2017)\n");
    std::printf("==============================================================\n");
}

}  // namespace mvf::benchx
