// src/obs/: the tracing sink (NDJSON + Chrome), trace validation, the
// metrics registry, and the report-carried AttackMetrics block.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "attack/adversary.hpp"
#include "flow/scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/json.hpp"

namespace mvf {
namespace {

using obs::AttackMetrics;
using obs::HistogramSnapshot;
using obs::MetricsRegistry;
using obs::Span;
using obs::TraceFormat;
using obs::TraceSink;
using obs::TraceValidation;
using obs::validate_trace;

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/// RAII sink installer: tests never leak the global pointer into each
/// other (or into an unrelated test binary run).
struct ScopedSink {
    explicit ScopedSink(TraceSink* s) { obs::set_trace_sink(s); }
    ~ScopedSink() { obs::set_trace_sink(nullptr); }
};

TEST(TraceFormatNames, RoundTrip) {
    EXPECT_EQ(obs::trace_format_name(TraceFormat::kNdjson), "ndjson");
    EXPECT_EQ(obs::trace_format_name(TraceFormat::kChrome), "chrome");
    TraceFormat f = TraceFormat::kNdjson;
    EXPECT_TRUE(obs::trace_format_from_name("chrome", &f));
    EXPECT_EQ(f, TraceFormat::kChrome);
    EXPECT_TRUE(obs::trace_format_from_name("ndjson", &f));
    EXPECT_EQ(f, TraceFormat::kNdjson);
    EXPECT_FALSE(obs::trace_format_from_name("xml", &f));
}

TEST(TraceSink, NdjsonRecordsParseAndValidate) {
    const std::string path = testing::TempDir() + "mvf_obs_basic.ndjson";
    {
        TraceSink sink(path);
        ASSERT_TRUE(sink.ok());
        report::Json args = report::Json::object();
        args.set("k", 7);
        sink.begin("outer", "test", std::move(args));
        sink.instant("tick", "test");
        report::Json c = report::Json::object();
        c.set("done", 3);
        sink.counter("progress", std::move(c));
        sink.begin("inner", "test");
        sink.end("inner");
        sink.end("outer");
        EXPECT_EQ(sink.events(), 6u);
    }
    const std::string text = slurp(path);

    // Every line is a standalone JSON object with the required fields.
    std::istringstream lines(text);
    std::string line;
    int n = 0;
    double last_ts = -1.0;
    while (std::getline(lines, line)) {
        if (line.empty()) continue;
        const report::Json j = report::Json::parse(line);
        ASSERT_TRUE(j.is_object());
        EXPECT_TRUE(j.contains("ts"));
        EXPECT_TRUE(j.contains("tid"));
        EXPECT_TRUE(j.contains("ph"));
        EXPECT_TRUE(j.contains("name"));
        EXPECT_GE(j.at("ts").as_number(), last_ts);  // monotone in file order
        last_ts = j.at("ts").as_number();
        ++n;
    }
    EXPECT_EQ(n, 6);

    const TraceValidation v = validate_trace(text);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_EQ(v.records, 6);
    EXPECT_EQ(v.open_spans, 0);
    std::remove(path.c_str());
}

TEST(TraceSink, ChromeFormatIsOneJsonArray) {
    const std::string path = testing::TempDir() + "mvf_obs_chrome.json";
    {
        TraceSink sink(path, TraceFormat::kChrome);
        ASSERT_TRUE(sink.ok());
        sink.begin("a", "test");
        sink.instant("mark", "test");
        sink.end("a");
    }
    const std::string text = slurp(path);
    const report::Json doc = report::Json::parse(text);  // throws if invalid
    ASSERT_TRUE(doc.is_array());
    EXPECT_EQ(doc.size(), 3u);
    EXPECT_EQ(doc.at(std::size_t{0}).at("ph").as_string(), "B");
    EXPECT_EQ(doc.at(std::size_t{1}).at("ph").as_string(), "i");
    EXPECT_EQ(doc.at(std::size_t{2}).at("ph").as_string(), "E");

    const TraceValidation v = validate_trace(text);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_EQ(v.records, 3);
    std::remove(path.c_str());
}

TEST(TraceSink, MultithreadedWritersStayWellFormed) {
    const std::string path = testing::TempDir() + "mvf_obs_mt.ndjson";
    {
        TraceSink sink(path);
        ASSERT_TRUE(sink.ok());
        ScopedSink scoped(&sink);
        std::vector<std::thread> workers;
        for (int t = 0; t < 4; ++t) {
            workers.emplace_back([t] {
                for (int i = 0; i < 50; ++i) {
                    report::Json args = report::Json::object();
                    args.set("worker", t);
                    args.set("i", i);
                    Span span("work", "test", std::move(args));
                    Span nested("sub", "test");
                }
            });
        }
        for (std::thread& w : workers) w.join();
        EXPECT_EQ(sink.events(), 4u * 50u * 4u);
    }
    const TraceValidation v = validate_trace(slurp(path));
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_EQ(v.records, 800);
    EXPECT_EQ(v.open_spans, 0);
    std::remove(path.c_str());
}

TEST(TraceSink, ConcurrentHammerOnOneSinkStaysValid) {
    // The serve scheduler points several job threads at ONE sink (a client
    // socket): hammer a single sink with direct emit calls from many
    // threads and require the interleaved output to still validate --
    // whole lines, monotone timestamps, balanced spans.
    const std::string path = testing::TempDir() + "mvf_obs_hammer.ndjson";
    constexpr int kThreads = 8;
    constexpr int kEventsPerThread = 200;
    {
        TraceSink sink(path);
        ASSERT_TRUE(sink.ok());
        std::vector<std::thread> writers;
        for (int t = 0; t < kThreads; ++t) {
            writers.emplace_back([&sink, t] {
                for (int i = 0; i < kEventsPerThread; ++i) {
                    report::Json args = report::Json::object();
                    args.set("thread", t);
                    args.set("i", i);
                    // A mix of record kinds, like a live job stream
                    // (stage instants + job-progress counters).
                    if (i % 3 == 0) {
                        sink.counter("job-progress", std::move(args));
                    } else {
                        sink.instant("stage", "serve", std::move(args));
                    }
                    if (i % 16 == 0) sink.flush();
                }
            });
        }
        for (std::thread& w : writers) w.join();
        EXPECT_EQ(sink.events(),
                  static_cast<std::uint64_t>(kThreads) * kEventsPerThread);
    }
    const TraceValidation v = validate_trace(slurp(path));
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_EQ(v.records, kThreads * kEventsPerThread);
    EXPECT_EQ(v.open_spans, 0);
    std::remove(path.c_str());
}

TEST(TraceSink, AdoptedStreamConstructorWritesNdjson) {
    // The FILE*-adopting constructor is how serve wraps client sockets;
    // the sink owns the stream and closes it on destruction.
    const std::string path = testing::TempDir() + "mvf_obs_stream.ndjson";
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    {
        TraceSink sink(f, "<test-stream>");
        ASSERT_TRUE(sink.ok());
        sink.instant("hello", "test");
        sink.flush();
    }
    const TraceValidation v = validate_trace(slurp(path));
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_EQ(v.records, 1);
    std::remove(path.c_str());
}

TEST(TraceSink, SpanIsInertWithoutSink) {
    // No sink installed: spans must not crash, allocate args, or count.
    ASSERT_EQ(obs::tracing(), nullptr);
    Span span("nothing", "test");
    EXPECT_FALSE(static_cast<bool>(span));
    span.set_end_args(report::Json::object());  // dropped, not stored
}

TEST(ValidateTrace, RejectsMalformedTraces) {
    // Unbalanced: a begin with no end.
    EXPECT_FALSE(
        validate_trace(
            R"({"ts":1,"tid":1,"pid":1,"ph":"B","name":"a","cat":"t"})")
            .ok);
    // Mismatched nesting: E names a span that is not the innermost open.
    const std::string mismatched =
        R"({"ts":1,"tid":1,"pid":1,"ph":"B","name":"a","cat":"t"})"
        "\n"
        R"({"ts":2,"tid":1,"pid":1,"ph":"B","name":"b","cat":"t"})"
        "\n"
        R"({"ts":3,"tid":1,"pid":1,"ph":"E","name":"a"})"
        "\n";
    EXPECT_FALSE(validate_trace(mismatched).ok);
    // Timestamps running backwards.
    const std::string regressed =
        R"({"ts":5,"tid":1,"pid":1,"ph":"i","name":"x","cat":"t"})"
        "\n"
        R"({"ts":4,"tid":1,"pid":1,"ph":"i","name":"y","cat":"t"})"
        "\n";
    EXPECT_FALSE(validate_trace(regressed).ok);
    // Not JSON at all.
    EXPECT_FALSE(validate_trace("this is not a trace\n").ok);
    // Missing required field (no ts).
    EXPECT_FALSE(
        validate_trace(R"({"tid":1,"ph":"i","name":"x","cat":"t"})").ok);
    // An empty trace is trivially valid.
    const TraceValidation empty = validate_trace("");
    EXPECT_TRUE(empty.ok);
    EXPECT_EQ(empty.records, 0);
}

TEST(HistogramBuckets, BucketOfPowersOfTwo) {
    EXPECT_EQ(HistogramSnapshot::bucket_of(0.0), 0);
    EXPECT_EQ(HistogramSnapshot::bucket_of(-3.0), 0);
    EXPECT_EQ(HistogramSnapshot::bucket_of(0.5), 0);
    EXPECT_EQ(HistogramSnapshot::bucket_of(1.0), 1);
    EXPECT_EQ(HistogramSnapshot::bucket_of(1.9), 1);
    EXPECT_EQ(HistogramSnapshot::bucket_of(2.0), 2);
    EXPECT_EQ(HistogramSnapshot::bucket_of(3.0), 2);
    EXPECT_EQ(HistogramSnapshot::bucket_of(4.0), 3);
    EXPECT_EQ(HistogramSnapshot::bucket_of(1024.0), 11);
    // Far past the top bucket: clamped, not out of range.
    EXPECT_EQ(HistogramSnapshot::bucket_of(1e18),
              HistogramSnapshot::kBuckets - 1);
}

TEST(Histogram, ObserveSnapshotAndJsonRoundTrip) {
    obs::Histogram h;
    for (const double v : {3.0, 3.0, 17.0, 0.2, 900.0}) h.observe(v);
    const HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 5u);
    EXPECT_DOUBLE_EQ(s.sum, 923.2);
    EXPECT_DOUBLE_EQ(s.min, 0.2);
    EXPECT_DOUBLE_EQ(s.max, 900.0);
    EXPECT_DOUBLE_EQ(s.mean(), 923.2 / 5.0);
    EXPECT_EQ(s.buckets[static_cast<std::size_t>(
                  HistogramSnapshot::bucket_of(3.0))],
              2u);

    const HistogramSnapshot back = HistogramSnapshot::from_json(s.to_json());
    EXPECT_TRUE(back == s);

    // And through a serialize/parse cycle (what reports actually do).
    const HistogramSnapshot reparsed =
        HistogramSnapshot::from_json(report::Json::parse(s.to_json().dump()));
    EXPECT_TRUE(reparsed == s);

    HistogramSnapshot merged = s;
    merged.merge(s);
    EXPECT_EQ(merged.count, 10u);
    EXPECT_DOUBLE_EQ(merged.max, 900.0);

    EXPECT_THROW(HistogramSnapshot::from_json(report::Json(3)),
                 report::JsonError);
}

TEST(Histogram, ConcurrentObserversLoseNothing) {
    obs::Histogram h;
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&h] {
            for (int i = 0; i < 10'000; ++i) h.observe(5.0);
        });
    }
    for (std::thread& w : workers) w.join();
    const HistogramSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 40'000u);
    EXPECT_DOUBLE_EQ(s.sum, 200'000.0);
    EXPECT_EQ(s.buckets[static_cast<std::size_t>(
                  HistogramSnapshot::bucket_of(5.0))],
              40'000u);
}

TEST(Metrics, RegistryNamesAreStableAndSnapshotTyped) {
    MetricsRegistry reg;
    reg.counter("a.hits").add(3);
    reg.counter("a.hits").add(2);  // same counter, not a second one
    reg.gauge("b.level").set(0.75);
    reg.histogram("c.lat").observe(8.0);

    const report::Json j = reg.snapshot_json();
    EXPECT_EQ(j.at("counters").at("a.hits").as_uint(), 5u);
    EXPECT_DOUBLE_EQ(j.at("gauges").at("b.level").as_number(), 0.75);
    EXPECT_EQ(j.at("histograms").at("c.lat").at("count").as_uint(), 1u);

    reg.reset();
    EXPECT_EQ(reg.snapshot_json().at("counters").size(), 0u);
}

TEST(Metrics, AttackMetricsSurviveAdversaryReportJson) {
    obs::Histogram q;
    q.observe(12.0);
    q.observe(40.0);
    obs::Histogram s;
    s.observe(700.0);

    attack::AdversaryReport r;
    r.adversary = "cegar";
    r.success = true;
    r.outcome = "solved";
    r.queries = 2;
    r.metrics.oracle_query_us = q.snapshot();
    r.metrics.sat_solve_us = s.snapshot();

    const report::Json j = r.to_json();
    ASSERT_TRUE(j.contains("metrics"));
    const attack::AdversaryReport back =
        attack::AdversaryReport::from_json(report::Json::parse(j.dump()));
    EXPECT_TRUE(back == r);
    EXPECT_EQ(back.metrics.oracle_query_us.count, 2u);
    EXPECT_DOUBLE_EQ(back.metrics.sat_solve_us.max, 700.0);

    // Reports without the block (every pre-existing report, and every
    // attack run with metrics off) must still round-trip.
    attack::AdversaryReport plain;
    plain.adversary = "random";
    const report::Json pj = plain.to_json();
    EXPECT_FALSE(pj.contains("metrics"));
    EXPECT_TRUE(attack::AdversaryReport::from_json(pj) == plain);
}

TEST(Metrics, SpecMetricsKeyFillsReportHistograms) {
    // metrics=1 in a scenario spec turns on per-attack collection: the
    // resulting report carries one sat-solve sample per CEGAR solve.
    const std::vector<flow::Scenario> scenarios = flow::parse_scenario_spec(
        "name=m funcs=present:2 seed=3 population=4 generations=2 "
        "attack=cegar baseline=0 metrics=1 max_survivors=64\n");
    const std::vector<flow::ScenarioRecord> records =
        flow::run_batch(scenarios, 1);
    ASSERT_EQ(records.size(), 1u);
    ASSERT_TRUE(records[0].ok) << records[0].error;
    ASSERT_EQ(records[0].attacks.size(), 1u);
    const obs::AttackMetrics& m = records[0].attacks[0].metrics;
    EXPECT_FALSE(m.empty());
    EXPECT_GT(m.sat_solve_us.count, 0u);
    EXPECT_GT(m.oracle_query_us.count, 0u);
}

TEST(BatchRunnerTrace, ParallelBatchTraceIsWellFormed) {
    const std::string path = testing::TempDir() + "mvf_obs_batch.ndjson";
    // Cheap scenarios: no attack, tiny GA budgets -- the point is span
    // structure under --jobs 4, not the workload.
    std::string spec;
    for (int i = 0; i < 6; ++i) {
        spec += "name=s" + std::to_string(i) +
                " funcs=present:2 seed=" + std::to_string(i + 1) +
                " population=2 generations=1 attack=none camo=0 baseline=0 "
                "verify=0\n";
    }
    const std::vector<flow::Scenario> scenarios =
        flow::parse_scenario_spec(spec);
    {
        // Installed globally for the spans and attached to the job for its
        // progress records, as `mvf batch --trace` does.
        const auto sink = std::make_shared<TraceSink>(path);
        ASSERT_TRUE(sink->ok());
        ScopedSink scoped(sink.get());
        flow::SubmitOptions options;
        options.sinks.push_back(sink);
        const std::vector<flow::ScenarioRecord> records =
            flow::run_batch(scenarios, 4, options);
        ASSERT_EQ(records.size(), 6u);
        for (const flow::ScenarioRecord& r : records) {
            EXPECT_TRUE(r.ok) << r.error;
        }
    }
    const std::string text = slurp(path);
    const TraceValidation v = validate_trace(text);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_EQ(v.open_spans, 0);
    // One scenario span pair per scenario plus stage spans inside, and one
    // job-progress counter sample per finished scenario.
    EXPECT_GE(v.records, 6 * 2);
    EXPECT_NE(text.find("\"name\":\"scenario\""), std::string::npos);
    std::size_t progress = 0;
    for (std::size_t at = text.find("\"name\":\"job-progress\"");
         at != std::string::npos;
         at = text.find("\"name\":\"job-progress\"", at + 1)) {
        ++progress;
    }
    EXPECT_EQ(progress, 6u);
    EXPECT_NE(text.find("\"name\":\"job-done\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"pin-search\""), std::string::npos);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace mvf
