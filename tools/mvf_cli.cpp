// mvf -- experiment driver for the multiple-viable-function flow.
//
// New workloads need zero C++: scenarios are described by flags or a plain
// text spec file and executed through the same flow::Pipeline /
// flow::JobScheduler API the library exposes.
//
//   mvf run    [scenario flags]           one scenario, human-readable summary
//   mvf attack [scenario flags]           run + red-team with --adversaries
//   mvf batch  --spec FILE --jobs N       N-way parallel scenario batch
//   mvf serve  --listen ADDR              persistent experiment server
//   mvf submit --connect ADDR --spec FILE submit a spec to a server
//   mvf watch  --connect ADDR --job ID    stream a running job
//   mvf status --connect ADDR             server job + cache status
//   mvf cancel --connect ADDR --job ID    cancel a server job
//   mvf shutdown --connect ADDR           stop a server
//   mvf adversaries                       list the registered adversaries
//   mvf check-report FILE                 validate a batch JSON report
//   mvf check-trace FILE                  validate an NDJSON/Chrome trace
//   mvf verify-proof FILE                 verify an --emit-proof artifact
//
// Scenario flags (run/attack) come from the scenario-key table
// (flow/scenario_keys.hpp): --funcs FAMILY:N, --circuit FILE, --seed S and
// every other key, spelled --key-name; `mvf --help` lists them.  This file
// keeps the process flags (--json --jobs --spec --verbose --trace
// --trace-format --metrics) and the --quick preset.
//
// Observability (run/attack/batch): --trace FILE --trace-format ndjson|chrome
// --metrics
//
// Exit codes: 0 success; 1 scenario/validation failure; 2 usage error.

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "attack/adversary.hpp"
#include "audit/attack_proof.hpp"
#include "camo/camo_cell.hpp"
#include "flow/scheduler.hpp"
#include "flow/stage_io.hpp"
#include "map/gate_library.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/json.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/socket.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace mvf;

int usage() {
    std::fprintf(
        stderr,
        "usage: mvf <command> [options]\n"
        "\n"
        "commands:\n"
        "  run          run one scenario end to end\n"
        "  attack       run one scenario and red-team it (default: every\n"
        "               registered adversary; with --circuit only the\n"
        "               oracle-granted ones: cegar, random-sampling)\n"
        "  batch        run a scenario spec file, optionally in parallel\n"
        "  serve        start the persistent experiment server\n"
        "  submit       submit a spec file to a running server\n"
        "  watch        attach to a running server job's progress stream\n"
        "  status       show a server's jobs and stage-cache stats\n"
        "  cancel       cancel a server job\n"
        "  shutdown     stop a running server\n"
        "  adversaries  list the registered adversaries\n"
        "  check-report validate a batch JSON report\n"
        "  check-trace  validate a trace file written by --trace\n"
        "  verify-proof verify an attack-proof artifact written by\n"
        "               --emit-proof (chip-free replay + commitment check)\n"
        "\n"
        "scenario options (run/attack; a spec line for batch/submit writes\n"
        "key=value with the key's name, e.g. camo_density=0.4, and 0/1 for\n"
        "the --[no-] switches):\n"
        "%s"
        "\n"
        "run/attack options:\n"
        "  --quick            small budgets unless given: population 8,\n"
        "                     generations 4, max-survivors 256,\n"
        "                     count-max-decisions 20000\n"
        "  --json FILE        also write the JSON record(s) to FILE\n"
        "\n"
        "observability options (run/attack/batch):\n"
        "  --trace FILE       stream structured span/counter events to FILE\n"
        "                     (per CEGAR iteration, pipeline stage, scenario,\n"
        "                     and the job's progress records)\n"
        "  --trace-format F   ndjson (default; one JSON record per line) or\n"
        "                     chrome (load in Perfetto / chrome://tracing)\n"
        "  --metrics          collect latency histograms and counters; the\n"
        "                     registry snapshot is printed (and embedded in\n"
        "                     the --json report as \"metrics\")\n"
        "\n"
        "batch options:\n"
        "  --spec FILE        scenario spec (required; scenario keys go here)\n"
        "  --jobs N           worker threads (default 1)\n"
        "  --json FILE        write the batch report to FILE\n"
        "  --verbose          NDJSON progress records on stderr (stage,\n"
        "                     scenario-done, job-progress: the records\n"
        "                     mvf submit --stream prints)\n"
        "\n"
        "serve options:\n"
        "  --listen ADDR      unix:/path.sock or tcp:host:port (port 0 =\n"
        "                     kernel-assigned; the bound address is printed)\n"
        "  --jobs N           scheduler worker threads (default 2)\n"
        "  --cache-mb N       in-memory stage-cache budget (default 256)\n"
        "  --cache-dir DIR    spill stage snapshots to DIR (cache survives\n"
        "                     restarts and memory eviction)\n"
        "  --verbose          per-request logging on stderr\n"
        "\n"
        "client options (submit/watch/status/cancel/shutdown):\n"
        "  --connect ADDR     server address (required)\n"
        "  --spec FILE        scenario spec to submit (submit)\n"
        "  --job ID           job id (watch/cancel; optional for status)\n"
        "  --stream           stream NDJSON progress records (submit)\n"
        "  --trace-out FILE   tee streamed records to FILE (implies --stream;\n"
        "                     the file passes mvf check-trace)\n"
        "  --no-wait          return after the ack, don't wait for results\n"
        "  --timeout S        server-side job deadline in seconds\n"
        "  --json FILE        write the results report to FILE\n",
        flow::scenario_help().c_str());
    return 2;
}

bool next_value(int argc, char** argv, int* i, std::string* out) {
    if (*i + 1 >= argc) {
        std::fprintf(stderr, "mvf: %s needs a value\n", argv[*i]);
        return false;
    }
    *out = argv[++*i];
    return true;
}

/// A process flag's number through the scenario table's strict parser;
/// prints a usage error on junk.
bool parse_int_flag(const std::string& value, const char* flag, int* out) {
    try {
        *out = flow::parse_int(value);
        return true;
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "mvf: %s %s\n", flag, e.what());
        return false;
    }
}

bool parse_double_flag(const std::string& value, const char* flag,
                       double* out) {
    try {
        *out = flow::parse_double(value);
        return true;
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "mvf: %s %s\n", flag, e.what());
        return false;
    }
}

/// Process-level switches of run/attack/batch.
struct ProcessFlags {
    std::string json_path;
    std::string spec_path;  ///< batch
    int jobs = 1;           ///< batch
    bool verbose = false;   ///< batch
    bool quick = false;     ///< run/attack
    std::string trace_path;  ///< empty = tracing off
    obs::TraceFormat trace_format = obs::TraceFormat::kNdjson;
    bool metrics = false;
};

/// Parses run/attack arguments (scenario flags go into `draft`) or, with a
/// null draft, batch arguments.  Returns false (after printing) on a usage
/// error.
bool parse_flags(int argc, char** argv, flow::ScenarioDraft* draft,
                 ProcessFlags* flags) {
    const bool batch = draft == nullptr;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--json") {
            if (!next_value(argc, argv, &i, &flags->json_path)) return false;
        } else if (arg == "--trace") {
            if (!next_value(argc, argv, &i, &flags->trace_path)) return false;
        } else if (arg == "--trace-format") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!obs::trace_format_from_name(value, &flags->trace_format)) {
                std::fprintf(stderr,
                             "mvf: --trace-format expects ndjson or chrome, "
                             "got \"%s\"\n",
                             value.c_str());
                return false;
            }
        } else if (arg == "--metrics") {
            flags->metrics = true;
        } else if (!batch && arg == "--quick") {
            flags->quick = true;
        } else if (batch && arg == "--spec") {
            if (!next_value(argc, argv, &i, &flags->spec_path)) return false;
        } else if (batch && arg == "--jobs") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_int_flag(value, "--jobs", &flags->jobs)) return false;
            if (flags->jobs <= 0) {
                std::fprintf(stderr, "mvf batch: --jobs must be > 0\n");
                return false;
            }
        } else if (batch && arg == "--verbose") {
            flags->verbose = true;
        } else if (batch && flow::is_scenario_flag(arg)) {
            std::fprintf(stderr,
                         "mvf batch: %s is a scenario key; it belongs in the "
                         "spec file\n",
                         arg.c_str());
            return false;
        } else {
            bool known = false;
            try {
                known = !batch && draft->set_flag(argc, argv, &i);
            } catch (const std::invalid_argument& e) {
                std::fprintf(stderr, "mvf: %s\n", e.what());
                return false;
            }
            if (!known) {
                std::fprintf(stderr, "mvf: unknown option %s\n", arg.c_str());
                return false;
            }
        }
    }
    return true;
}

void print_record(const flow::ScenarioRecord& r) {
    if (r.family == "circuit") {
        std::printf("scenario %s (circuit seed=%llu)\n", r.name.c_str(),
                    static_cast<unsigned long long>(r.seed));
    } else {
        std::printf("scenario %s (funcs=%s:%d seed=%llu)\n", r.name.c_str(),
                    r.family.c_str(), r.n,
                    static_cast<unsigned long long>(r.seed));
    }
    if (!r.ok) {
        std::printf("  FAILED: %s\n", r.error.c_str());
        return;
    }
    if (r.random_best > 0.0) {
        std::printf("  random      %8.1f GE avg, %8.1f GE best\n", r.random_avg,
                    r.random_best);
    }
    std::printf("  GA          %8.1f GE\n", r.ga_area);
    if (r.ga_tm_area > 0.0) {
        std::printf("  GA+TM       %8.1f GE  (%.0f%% vs best random)\n",
                    r.ga_tm_area, r.improvement_percent);
        std::printf("  camouflage  %d cells, configuration space 2^%.0f, %s\n",
                    r.camo_cells, r.config_space_bits,
                    r.verified ? "all configurations verified"
                               : "NOT verified");
    }
    for (const attack::AdversaryReport& a : r.attacks) {
        // survivors_str carries full precision (counting adversaries can
        // exceed uint64); fall back to the numeric field for the others.
        const std::string survivors = a.survivors_str.empty()
                                          ? std::to_string(a.survivors)
                                          : a.survivors_str;
        std::printf("  adversary %-13s %-7s %s: %d queries, %s survivors%s%s, %.2fs\n",
                    a.adversary.c_str(), a.success ? "SUCCESS" : "failed",
                    a.outcome.c_str(), a.queries, survivors.c_str(),
                    a.count_mode.empty() ? "" : " via ",
                    a.count_mode.c_str(), a.seconds);
        if (!(a.oracle == attack::OracleStats{})) {
            std::printf(
                "    oracle: %llu patterns (%llu scalar, %llu block calls), "
                "%llu cache hits, %llu noisy bits%s\n",
                static_cast<unsigned long long>(a.oracle.patterns),
                static_cast<unsigned long long>(a.oracle.scalar_queries),
                static_cast<unsigned long long>(a.oracle.block_queries),
                static_cast<unsigned long long>(a.oracle.cache_hits),
                static_cast<unsigned long long>(a.oracle.noisy_bits),
                a.oracle.budget_exhausted ? ", budget exhausted" : "");
        }
    }
    std::printf("  %.1fs\n", r.seconds);
}

int write_report(const std::string& path,
                 const std::vector<flow::ScenarioRecord>& records,
                 double total_seconds, const report::Json* metrics) {
    report::Json doc = flow::batch_report(records, total_seconds);
    if (metrics) doc.set("metrics", *metrics);
    const report::JsonWriter writer(path);
    if (!writer.write(doc)) {
        std::fprintf(stderr, "mvf: cannot write %s\n", path.c_str());
        return 1;
    }
    return 0;
}

int run_scenarios(const std::vector<flow::Scenario>& scenarios,
                  const ProcessFlags& flags) {
    // The trace sink is installed globally, for every thread's spans, and
    // attached to the job, for its progress records.  run_batch joins its
    // workers before it returns, so uninstalling then races no late event.
    flow::SubmitOptions options;
    std::shared_ptr<obs::TraceSink> sink;
    if (!flags.trace_path.empty()) {
        sink = std::make_shared<obs::TraceSink>(flags.trace_path,
                                                flags.trace_format);
        if (!sink->ok()) {
            std::fprintf(stderr, "mvf: cannot open trace file %s\n",
                         flags.trace_path.c_str());
            return 2;
        }
        obs::set_trace_sink(sink.get());
        options.sinks.push_back(sink);
    }
    if (flags.verbose) {
        if (auto err = obs::fd_sink(STDERR_FILENO, "<stderr>")) {
            options.sinks.push_back(std::move(err));
        }
    }
    if (flags.metrics) {
        obs::MetricsRegistry::global().reset();
        obs::set_metrics_enabled(true);
    }

    util::Stopwatch sw;
    const std::vector<flow::ScenarioRecord> records =
        flow::run_batch(scenarios, flags.jobs, options);
    const double total = sw.elapsed_seconds();

    if (sink) {
        obs::set_trace_sink(nullptr);
        sink->flush();
    }
    std::optional<report::Json> metrics;
    if (flags.metrics) {
        obs::set_metrics_enabled(false);
        metrics = obs::MetricsRegistry::global().snapshot_json();
    }

    int failures = 0;
    for (const flow::ScenarioRecord& r : records) {
        print_record(r);
        if (!r.ok) ++failures;
    }
    std::printf("%d scenario%s, %d failure%s, %.1fs (jobs=%d)\n",
                static_cast<int>(records.size()),
                records.size() == 1 ? "" : "s", failures,
                failures == 1 ? "" : "s", total, flags.jobs);
    if (metrics) {
        std::printf("metrics:\n%s\n", metrics->dump(2).c_str());
    }
    if (sink) {
        std::printf("trace written to %s (%llu events, %s)\n",
                    sink->path().c_str(),
                    static_cast<unsigned long long>(sink->events()),
                    std::string(obs::trace_format_name(sink->format())).c_str());
    }
    if (!flags.json_path.empty()) {
        const int rc = write_report(flags.json_path, records, total,
                                    metrics ? &*metrics : nullptr);
        if (rc != 0) return rc;
        std::printf("report written to %s\n", flags.json_path.c_str());
    }
    return failures == 0 ? 0 : 1;
}

int cmd_run(int argc, char** argv, bool force_attack) {
    flow::ScenarioDraft draft(flow::ScenarioDraft::Front::kCli);
    ProcessFlags flags;
    if (!parse_flags(argc, argv, &draft, &flags)) return 2;
    flow::FlowParams& params = draft.scenario.params;
    if (flags.quick) {
        // Presets: an explicit flag wins wherever it appears.  Enumerating
        // a million survivors dominates quick runs on big configuration
        // spaces; a small cap still shows the shape.  The cap governs
        // enumerate mode AND the exact counter's fallback, so it is lowered
        // whatever the counting mode, and so is the exact decision budget,
        // otherwise a few seconds of burn on dense instances.
        if (!draft.given("population")) params.ga.population = 8;
        if (!draft.given("generations")) params.ga.generations = 4;
        if (!draft.given("max_survivors")) params.oracle.max_survivors = 256;
        if (!draft.given("count_max_decisions")) {
            params.oracle.count_max_decisions = 20'000;
        }
    }
    if (force_attack && params.adversaries.empty()) {
        // Imported circuits have no viable-function set, so only the
        // oracle-granted adversaries apply.
        params.adversaries =
            params.circuit.path.empty()
                ? attack::AdversaryRegistry::instance().names()
                : std::vector<std::string>{"cegar", "random-sampling"};
    }
    std::vector<flow::Scenario> scenarios;
    try {
        scenarios.push_back(std::move(draft).finish());
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "mvf: %s\n", e.what());
        return 2;
    }
    return run_scenarios(scenarios, flags);
}

int cmd_batch(int argc, char** argv) {
    ProcessFlags flags;
    if (!parse_flags(argc, argv, nullptr, &flags)) return 2;
    if (flags.spec_path.empty()) {
        std::fprintf(stderr, "mvf batch: --spec FILE is required\n");
        return 2;
    }
    std::vector<flow::Scenario> scenarios;
    try {
        scenarios = flow::load_scenario_spec(flags.spec_path);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mvf batch: %s\n", e.what());
        return 2;
    }
    if (scenarios.empty()) {
        std::fprintf(stderr, "mvf batch: %s contains no scenarios\n",
                     flags.spec_path.c_str());
        return 2;
    }
    return run_scenarios(scenarios, flags);
}

int cmd_adversaries() {
    attack::AdversaryRegistry& registry = attack::AdversaryRegistry::instance();
    const attack::AdversaryOptions probe;  // factories only need options at attack time
    for (const std::string& name : registry.names()) {
        const auto adversary = registry.create(name, probe);
        std::printf("%-14s knowledge: %s\n", name.c_str(),
                    std::string(knowledge_name(adversary->knowledge())).c_str());
    }
    return 0;
}

int cmd_check_report(int argc, char** argv) {
    if (argc < 3) {
        std::fprintf(stderr, "usage: mvf check-report FILE\n");
        return 2;
    }
    const std::string path = argv[2];
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "mvf check-report: cannot open %s\n", path.c_str());
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
        const report::Json doc = report::Json::parse(text.str());
        const std::size_t declared = doc.at("scenario_count").as_uint();
        const report::Json& scenarios = doc.at("scenarios");
        if (scenarios.size() != declared) {
            std::fprintf(stderr,
                         "mvf check-report: scenario_count %zu != %zu records\n",
                         declared, scenarios.size());
            return 1;
        }
        int failures = 0;
        for (const report::Json& s : scenarios.items()) {
            // Field presence/type checks; throws JsonError when malformed.
            s.at("name").as_string();
            s.at("seconds").as_number();
            if (!s.at("ok").as_bool()) ++failures;
            for (const report::Json& a : s.at("attacks").items()) {
                attack::AdversaryReport::from_json(a);  // full round-trip check
                // The round trip alone cannot see a hand-edited
                // disagreement between the clamped numeric survivors field
                // and its authoritative decimal mirror (parsing rebuilds
                // the former from the latter); cross-check the raw
                // document explicitly.
                const std::string mismatch = attack::survivors_mismatch(a);
                if (!mismatch.empty()) {
                    std::fprintf(stderr, "mvf check-report: %s\n",
                                 mismatch.c_str());
                    return 1;
                }
            }
        }
        if (failures != doc.at("failures").as_int()) {
            std::fprintf(stderr,
                         "mvf check-report: failure count mismatch\n");
            return 1;
        }
        if (failures > 0) {
            std::fprintf(stderr, "mvf check-report: %d scenario(s) failed\n",
                         failures);
            return 1;
        }
        std::printf("%s: %zu scenario record(s), all ok\n", path.c_str(),
                    scenarios.size());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mvf check-report: malformed report: %s\n",
                     e.what());
        return 1;
    }
}

int cmd_verify_proof(int argc, char** argv) {
    if (argc < 3) {
        std::fprintf(stderr, "usage: mvf verify-proof FILE\n");
        return 2;
    }
    const std::string path = argv[2];
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "mvf verify-proof: cannot open %s\n",
                     path.c_str());
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
        // Strict parse: a proof with duplicate keys is ambiguous evidence,
        // not a last-wins document.
        const report::Json doc = report::Json::parse_strict(text.str());
        const audit::AttackProof proof = audit::AttackProof::from_json(doc);
        const camo::CamoNetlist netlist = flow::camo_netlist_from_json(
            proof.netlist,
            camo::CamoLibrary::from_gate_library(tech::GateLibrary::standard()));
        const audit::ProofVerification v = proof.verify(netlist);
        std::printf("proof %s\n", path.c_str());
        std::printf("  adversary   %s\n", proof.report.adversary.c_str());
        std::printf("  queries     %zu committed\n",
                    proof.transcript.entries.size());
        std::printf("  merkle root %s\n", proof.merkle_root.c_str());
        if (!proof.spec_hash.empty()) {
            std::printf("  spec hash   %s\n", proof.spec_hash.c_str());
        }
        std::printf("  commitments %s\n", v.commitments_ok ? "ok" : "MISMATCH");
        std::printf("  replay      %s\n", v.replay_ok ? "ok" : "MISMATCH");
        for (const std::string& f : v.failures) {
            std::fprintf(stderr, "mvf verify-proof: %s\n", f.c_str());
        }
        // Machine-parsable verdict line, mirroring check-report.
        std::printf("verify-proof: %s %s\n", v.ok ? "PASS" : "FAIL",
                    path.c_str());
        return v.ok ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mvf verify-proof: malformed proof: %s\n",
                     e.what());
        std::printf("verify-proof: FAIL %s\n", path.c_str());
        return 1;
    }
}

// ------------------------------------------------------------- serve --

int cmd_serve(int argc, char** argv) {
    serve::ServerParams params;
    std::string listen;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--listen") {
            if (!next_value(argc, argv, &i, &value)) return 2;
            listen = value;
        } else if (arg == "--jobs") {
            if (!next_value(argc, argv, &i, &value)) return 2;
            if (!parse_int_flag(value, "--jobs", &params.workers)) return 2;
            if (params.workers <= 0) {
                std::fprintf(stderr, "mvf serve: --jobs must be > 0\n");
                return 2;
            }
        } else if (arg == "--cache-mb") {
            if (!next_value(argc, argv, &i, &value)) return 2;
            int mb = 0;
            if (!parse_int_flag(value, "--cache-mb", &mb)) return 2;
            if (mb <= 0) {
                std::fprintf(stderr, "mvf serve: --cache-mb must be > 0\n");
                return 2;
            }
            params.cache.max_bytes = static_cast<std::size_t>(mb) << 20;
        } else if (arg == "--cache-dir") {
            if (!next_value(argc, argv, &i, &value)) return 2;
            params.cache.spill_dir = value;
        } else if (arg == "--verbose") {
            params.verbose = true;
        } else {
            std::fprintf(stderr, "mvf serve: unknown option %s\n", arg.c_str());
            return 2;
        }
    }
    if (listen.empty()) {
        std::fprintf(stderr, "mvf serve: --listen ADDR is required\n");
        return 2;
    }
    try {
        params.listen = util::SocketAddr::parse(listen);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mvf serve: %s\n", e.what());
        return 2;
    }
    try {
        serve::Server server(std::move(params));
        server.bind();
        // The resolved address (tcp port 0 in particular) on stdout, so
        // scripts can capture where to connect.
        std::printf("listening on %s\n", server.bound_addr().to_string().c_str());
        std::fflush(stdout);
        server.run();
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mvf serve: %s\n", e.what());
        return 1;
    }
}

/// Shared client-side flag parse for submit/watch/status/cancel/shutdown.
struct ClientFlags {
    std::string connect;
    std::string spec_path;
    std::string job;
    std::string json_path;
    std::string trace_out;
    double timeout_s = 0.0;
    bool stream = false;
    bool no_wait = false;
};

bool parse_client_flags(int argc, char** argv, const char* command,
                        ClientFlags* flags) {
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--connect") {
            if (!next_value(argc, argv, &i, &value)) return false;
            flags->connect = value;
        } else if (arg == "--spec") {
            if (!next_value(argc, argv, &i, &value)) return false;
            flags->spec_path = value;
        } else if (arg == "--job") {
            if (!next_value(argc, argv, &i, &value)) return false;
            flags->job = value;
        } else if (arg == "--json") {
            if (!next_value(argc, argv, &i, &value)) return false;
            flags->json_path = value;
        } else if (arg == "--trace-out") {
            if (!next_value(argc, argv, &i, &value)) return false;
            flags->trace_out = value;
            flags->stream = true;
        } else if (arg == "--stream" || arg == "--watch") {
            flags->stream = true;
        } else if (arg == "--no-wait") {
            flags->no_wait = true;
        } else if (arg == "--timeout") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_double_flag(value, "--timeout", &flags->timeout_s)) {
                return false;
            }
        } else {
            std::fprintf(stderr, "mvf %s: unknown option %s\n", command,
                         arg.c_str());
            return false;
        }
    }
    if (flags->connect.empty()) {
        std::fprintf(stderr, "mvf %s: --connect ADDR is required\n", command);
        return false;
    }
    return true;
}

std::optional<util::SocketAddr> parse_connect(const std::string& text,
                                              const char* command) {
    try {
        return util::SocketAddr::parse(text);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mvf %s: %s\n", command, e.what());
        return std::nullopt;
    }
}

/// One machine-parsable summary line for submit/watch, consumed by the
/// serve-smoke CI job (grep for job=/records_hash=/cache_hits=).
int print_client_result(const serve::ClientResult& result,
                        const std::string& json_path) {
    if (!result.ok) {
        std::fprintf(stderr, "mvf: %s\n", result.error.c_str());
        if (!result.job.empty()) std::printf("job=%s ok=0\n", result.job.c_str());
        return 1;
    }
    std::string state;
    std::string records_hash;
    int cache_hits = 0;
    double seconds = 0.0;
    if (const report::Json* s = result.results.find("state");
        s && s->is_string()) {
        state = s->as_string();
    }
    if (const report::Json* h = result.results.find("records_hash");
        h && h->is_string()) {
        records_hash = h->as_string();
    }
    if (const report::Json* c = result.results.find("cache_hits");
        c && c->is_number()) {
        cache_hits = c->as_int();
    }
    if (const report::Json* s = result.results.find("seconds");
        s && s->is_number()) {
        seconds = s->as_number();
    }
    std::printf(
        "job=%s ok=%d state=%s records_hash=%s cache_hits=%d seconds=%.3f "
        "trace_lines=%d\n",
        result.job.c_str(), state == "done" ? 1 : 0, state.c_str(),
        records_hash.c_str(), cache_hits, seconds, result.trace_lines);
    if (!json_path.empty()) {
        if (const report::Json* rep = result.results.find("report")) {
            const report::JsonWriter writer(json_path);
            if (!writer.write(*rep)) {
                std::fprintf(stderr, "mvf: cannot write %s\n",
                             json_path.c_str());
                return 1;
            }
            std::printf("report written to %s\n", json_path.c_str());
        }
    }
    return state == "done" ? 0 : 1;
}

/// Opens --trace-out and returns an observer appending raw NDJSON lines.
serve::TraceLineFn trace_tee(std::ofstream* out) {
    if (!out || !out->is_open()) return {};
    return [out](const std::string& line) { *out << line << '\n'; };
}

int cmd_submit(int argc, char** argv) {
    ClientFlags flags;
    if (!parse_client_flags(argc, argv, "submit", &flags)) return 2;
    if (flags.spec_path.empty()) {
        std::fprintf(stderr, "mvf submit: --spec FILE is required\n");
        return 2;
    }
    std::ifstream in(flags.spec_path);
    if (!in) {
        std::fprintf(stderr, "mvf submit: cannot open %s\n",
                     flags.spec_path.c_str());
        return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const std::optional<util::SocketAddr> addr =
        parse_connect(flags.connect, "submit");
    if (!addr) return 2;
    std::ofstream trace_file;
    if (!flags.trace_out.empty()) {
        trace_file.open(flags.trace_out);
        if (!trace_file) {
            std::fprintf(stderr, "mvf submit: cannot open %s\n",
                         flags.trace_out.c_str());
            return 2;
        }
    }
    const serve::Client client(*addr);
    const serve::ClientResult result =
        client.submit(text.str(), /*wait=*/!flags.no_wait, flags.stream,
                      flags.timeout_s, trace_tee(&trace_file));
    if (flags.no_wait) {
        if (!result.ok) {
            std::fprintf(stderr, "mvf submit: %s\n", result.error.c_str());
            return 1;
        }
        std::printf("job=%s ok=1 state=queued\n", result.job.c_str());
        return 0;
    }
    return print_client_result(result, flags.json_path);
}

int cmd_watch(int argc, char** argv) {
    ClientFlags flags;
    if (!parse_client_flags(argc, argv, "watch", &flags)) return 2;
    if (flags.job.empty()) {
        std::fprintf(stderr, "mvf watch: --job ID is required\n");
        return 2;
    }
    const std::optional<util::SocketAddr> addr =
        parse_connect(flags.connect, "watch");
    if (!addr) return 2;
    std::ofstream trace_file;
    if (!flags.trace_out.empty()) {
        trace_file.open(flags.trace_out);
        if (!trace_file) {
            std::fprintf(stderr, "mvf watch: cannot open %s\n",
                         flags.trace_out.c_str());
            return 2;
        }
    }
    const serve::Client client(*addr);
    const serve::ClientResult result =
        client.watch(flags.job, trace_tee(&trace_file));
    return print_client_result(result, flags.json_path);
}

/// status/cancel/shutdown: print the server's response as indented JSON.
int print_response(const report::Json& response) {
    const report::Json* ok = response.find("ok");
    if (!ok || !ok->is_bool() || !ok->as_bool()) {
        const report::Json* e = response.find("error");
        std::fprintf(stderr, "mvf: %s\n",
                     e && e->is_string() ? e->as_string().c_str()
                                         : "request failed");
        return 1;
    }
    std::printf("%s\n", response.dump(2).c_str());
    return 0;
}

int cmd_status(int argc, char** argv) {
    ClientFlags flags;
    if (!parse_client_flags(argc, argv, "status", &flags)) return 2;
    const std::optional<util::SocketAddr> addr =
        parse_connect(flags.connect, "status");
    if (!addr) return 2;
    return print_response(serve::Client(*addr).status(flags.job));
}

int cmd_cancel(int argc, char** argv) {
    ClientFlags flags;
    if (!parse_client_flags(argc, argv, "cancel", &flags)) return 2;
    if (flags.job.empty()) {
        std::fprintf(stderr, "mvf cancel: --job ID is required\n");
        return 2;
    }
    const std::optional<util::SocketAddr> addr =
        parse_connect(flags.connect, "cancel");
    if (!addr) return 2;
    return print_response(serve::Client(*addr).cancel(flags.job));
}

int cmd_shutdown(int argc, char** argv) {
    ClientFlags flags;
    if (!parse_client_flags(argc, argv, "shutdown", &flags)) return 2;
    const std::optional<util::SocketAddr> addr =
        parse_connect(flags.connect, "shutdown");
    if (!addr) return 2;
    return print_response(serve::Client(*addr).shutdown());
}

int cmd_check_trace(int argc, char** argv) {
    if (argc < 3) {
        std::fprintf(stderr, "usage: mvf check-trace FILE\n");
        return 2;
    }
    const std::string path = argv[2];
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "mvf check-trace: cannot open %s\n", path.c_str());
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const obs::TraceValidation v = obs::validate_trace(text.str());
    if (!v.ok) {
        std::fprintf(stderr, "mvf check-trace: %s: %s\n", path.c_str(),
                     v.error.c_str());
        return 1;
    }
    std::printf("%s: %d record(s), %d open span(s), ok\n", path.c_str(),
                v.records, v.open_spans);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    if (command == "run") return cmd_run(argc, argv, /*force_attack=*/false);
    if (command == "attack") return cmd_run(argc, argv, /*force_attack=*/true);
    if (command == "batch") return cmd_batch(argc, argv);
    if (command == "serve") return cmd_serve(argc, argv);
    if (command == "submit") return cmd_submit(argc, argv);
    if (command == "watch") return cmd_watch(argc, argv);
    if (command == "status") return cmd_status(argc, argv);
    if (command == "cancel") return cmd_cancel(argc, argv);
    if (command == "shutdown") return cmd_shutdown(argc, argv);
    if (command == "adversaries") return cmd_adversaries();
    if (command == "check-report") return cmd_check_report(argc, argv);
    if (command == "check-trace") return cmd_check_trace(argc, argv);
    if (command == "verify-proof") return cmd_verify_proof(argc, argv);
    if (command == "--help" || command == "-h" || command == "help") {
        usage();
        return 0;
    }
    std::fprintf(stderr, "mvf: unknown command \"%s\"\n", command.c_str());
    return usage();
}
