#pragma once
// Shared helpers for the experiment harnesses under bench/.
//
// Every harness reproduces one table or figure of the paper, prints the
// same rows/series the paper reports, and optionally appends CSV output.
// Flags are parsed HERE, uniformly, so every binary accepts the same set
// (per-binary ad-hoc parsing is a bug):
//   --quick   minimal budgets (smoke run)
//   --paper   paper-scale GA budget (~9726 individuals per circuit; slow)
//   --seed N  RNG seed (default 1)
//   --jobs N  worker threads for harnesses that run independent
//             scenarios as one flow::JobScheduler job (default 1)
//   --csv F   also write results to CSV file F
//
// The harnesses measure; pass/fail checks live in ctest (bench_count's
// full-mode scaling bound is the one exception).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace mvf::benchx {

struct BenchArgs {
    bool quick = false;
    bool paper = false;
    std::uint64_t seed = 1;
    int jobs = 1;
    std::string csv_path;

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
            } else {
                std::fprintf(
                    stderr,
                    "usage: %s [--quick] [--paper] [--seed N] [--jobs N] "
                    "[--csv F]\n",
                    argv[0]);
                std::exit(2);
            }
        }
        return args;
    }
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
