// The serve subsystem: the two-tier StageCache, the records_hash bit-
// identity digest, the JobScheduler it runs jobs on, and a real
// client/server round trip over a unix socket -- submit the same spec
// twice, expect the second run to restore every stage from cache and hash
// to the same records digest, then prove cancellation leaves the server
// serviceable.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flow/scheduler.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/stage_cache.hpp"
#include "util/socket.hpp"

namespace mvf::serve {
namespace {

using flow::JobResults;
using flow::JobScheduler;
using flow::JobState;
using flow::JobStatus;
using flow::records_hash;

/// A name under testing::TempDir() that no other process uses, so test
/// binaries running side by side (say, two sanitizer builds) never share
/// a socket or a spill directory.
std::string temp_path(const std::string& name) {
    return testing::TempDir() + "mvf_serve_" + std::to_string(::getpid()) +
           "_" + name;
}

report::Json snapshot_of_size(std::size_t bytes) {
    report::Json j = report::Json::object();
    j.set("pad", std::string(bytes, 'x'));
    return j;
}

// A fast scenario line: no adversaries, tiny GA budgets.
constexpr const char* kTinySpec =
    "funcs=present:2 population=8 generations=3 seed=5 attack=none\n";

std::vector<flow::Scenario> tiny_scenarios(int count = 1) {
    std::string text;
    for (int i = 0; i < count; ++i) {
        text += "funcs=present:2 population=8 generations=3 seed=" +
                std::to_string(5 + i) + " attack=none\n";
    }
    return flow::parse_scenario_spec(text);
}

// ------------------------------------------------------------ StageCache --

TEST(StageCache, HitsMissesAndStats) {
    StageCache cache;
    report::Json out;
    EXPECT_FALSE(cache.load("k1", &out));
    cache.store("k1", snapshot_of_size(100));
    EXPECT_TRUE(cache.load("k1", &out));
    EXPECT_EQ(out.at("pad").as_string().size(), 100u);
    const StageCache::Stats st = cache.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.stores, 1u);
    EXPECT_EQ(st.entries, 1u);
    EXPECT_GT(st.bytes, 100u);
    EXPECT_TRUE(cache.stats_json().contains("hits"));
}

TEST(StageCache, LruEvictsOldestWhenOverBudget) {
    StageCacheParams params;
    params.max_bytes = 600;  // fits ~2 of the ~250-byte entries
    StageCache cache(params);
    cache.store("a", snapshot_of_size(200));
    cache.store("b", snapshot_of_size(200));
    report::Json out;
    ASSERT_TRUE(cache.load("a", &out));  // a is now most-recent
    cache.store("c", snapshot_of_size(200));  // evicts b, the LRU tail
    EXPECT_TRUE(cache.load("a", &out));
    EXPECT_FALSE(cache.load("b", &out));
    EXPECT_TRUE(cache.load("c", &out));
    EXPECT_GE(cache.stats().evictions, 1u);

    // An entry bigger than the whole budget is stored nowhere (memory-only
    // cache) and everything already cached survives.
    cache.store("huge", snapshot_of_size(5000));
    EXPECT_FALSE(cache.load("huge", &out));
    EXPECT_TRUE(cache.load("a", &out));
}

TEST(StageCache, SpillServesEvictedAndRestartedEntries) {
    const std::string dir = temp_path("spill");
    StageCacheParams params;
    params.max_bytes = 600;
    params.spill_dir = dir;
    {
        StageCache cache(params);
        // Keys carry the ':' separators of stage_cache_key; the spill file
        // name must sanitize them.
        cache.store("deadbeef:s1:pin-search", snapshot_of_size(200));
        cache.store("deadbeef:s1:synthesize", snapshot_of_size(200));
        cache.store("deadbeef:s1:camo-cover", snapshot_of_size(200));
        // The first key was evicted from memory but spills back in.
        report::Json out;
        EXPECT_TRUE(cache.load("deadbeef:s1:pin-search", &out));
        EXPECT_GE(cache.stats().spill_hits, 1u);
    }
    // A fresh cache over the same directory starts warm.
    StageCache restarted(params);
    report::Json out;
    EXPECT_TRUE(restarted.load("deadbeef:s1:synthesize", &out));
    EXPECT_EQ(out.at("pad").as_string().size(), 200u);
    EXPECT_EQ(restarted.stats().spill_hits, 1u);
    std::filesystem::remove_all(dir);
}

// ----------------------------------------------------------- records_hash --

TEST(RecordsHash, IgnoresVolatileFieldsOnly) {
    flow::ScenarioRecord a;
    a.name = "present2-s5";
    a.family = "present";
    a.n = 2;
    a.seed = 5;
    a.ok = true;
    a.status = "ok";
    a.ga_area = 123.5;
    a.seconds = 1.25;
    flow::ScenarioRecord b = a;
    b.seconds = 99.0;   // timing is volatile...
    b.cache_hits = 4;   // ...and so is cache provenance
    EXPECT_EQ(records_hash({a}), records_hash({b}));

    flow::ScenarioRecord c = a;
    c.ga_area = 124.0;  // any semantic field changes the digest
    EXPECT_NE(records_hash({a}), records_hash({c}));
    flow::ScenarioRecord d = a;
    d.status = "error";
    d.ok = false;
    EXPECT_NE(records_hash({a}), records_hash({d}));
}

// ------------------------------------------------------------- scheduler --

TEST(JobScheduler, RunsABatchToDone) {
    JobScheduler scheduler(2, nullptr);
    const std::string id = scheduler.submit(tiny_scenarios(2));
    ASSERT_TRUE(scheduler.wait(id));
    const std::optional<JobStatus> st = scheduler.status(id);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->state, JobState::kDone);
    EXPECT_EQ(st->completed, 2);
    EXPECT_EQ(st->failures, 0);
    EXPECT_FALSE(st->records_hash.empty());
    const std::optional<JobResults> res = scheduler.results(id);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(res->status.records_hash, st->records_hash);
    ASSERT_EQ(res->records.size(), 2u);
    for (const flow::ScenarioRecord& r : res->records) {
        EXPECT_TRUE(r.ok);
        EXPECT_EQ(r.status, "ok");
        EXPECT_FALSE(r.spec_hash.empty());
    }
    EXPECT_FALSE(scheduler.wait("nope"));
    EXPECT_FALSE(scheduler.cancel("nope"));
}

TEST(JobScheduler, SharedStoreMakesResubmitsCacheHits) {
    StageCache cache;
    JobScheduler scheduler(2, &cache);
    const std::string first = scheduler.submit(tiny_scenarios(1));
    ASSERT_TRUE(scheduler.wait(first));
    const std::string second = scheduler.submit(tiny_scenarios(1));
    ASSERT_TRUE(scheduler.wait(second));

    const std::optional<JobStatus> st1 = scheduler.status(first);
    const std::optional<JobStatus> st2 = scheduler.status(second);
    ASSERT_TRUE(st1 && st2);
    EXPECT_EQ(st1->cache_hits, 0);
    EXPECT_GT(st2->cache_hits, 0);
    // Bit-identity across the cached re-run.
    EXPECT_EQ(st1->records_hash, st2->records_hash);
}

TEST(JobScheduler, CancelledJobTerminatesAndSchedulerStaysUsable) {
    JobScheduler scheduler(1, nullptr);
    // One worker, several scenarios: whatever is queued behind the running
    // scenario must complete instantly as "cancelled" placeholders.
    const std::string id = scheduler.submit(tiny_scenarios(4));
    ASSERT_TRUE(scheduler.cancel(id));
    ASSERT_TRUE(scheduler.wait(id));
    const std::optional<JobStatus> st = scheduler.status(id);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->state, JobState::kCancelled);
    EXPECT_EQ(st->completed, 4);
    const std::optional<JobResults> res = scheduler.results(id);
    ASSERT_TRUE(res.has_value());
    int cancelled = 0;
    for (const flow::ScenarioRecord& r : res->records) {
        if (r.status == "cancelled") ++cancelled;
    }
    EXPECT_GT(cancelled, 0);

    // The pool is not poisoned: a fresh job still runs to completion.
    const std::string next = scheduler.submit(tiny_scenarios(1));
    ASSERT_TRUE(scheduler.wait(next));
    EXPECT_EQ(scheduler.status(next)->state, JobState::kDone);
}

// ---------------------------------------------------------- end to end --

struct RunningServer {
    explicit RunningServer(ServerParams params)
        : server(std::move(params)) {
        server.bind();
        thread = std::thread([this] { server.run(); });
    }
    ~RunningServer() {
        server.request_shutdown();
        thread.join();
    }
    Server server;
    std::thread thread;
};

util::SocketAddr temp_unix_addr(const char* name) {
    return util::SocketAddr::parse("unix:" + temp_path(name));
}

TEST(Server, SubmitTwiceIsBitIdenticalAndServedFromCache) {
    ServerParams params;
    params.listen = temp_unix_addr("e2e.sock");
    params.workers = 2;
    RunningServer running(std::move(params));
    const Client client(running.server.bound_addr());

    std::string error;
    ASSERT_TRUE(client.ping(&error)) << error;

    std::vector<std::string> trace;
    const ClientResult first = client.submit(
        kTinySpec, /*wait=*/true, /*stream=*/true, /*timeout_s=*/0.0,
        [&trace](const std::string& line) { trace.push_back(line); });
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_FALSE(first.job.empty());
    ASSERT_GT(first.trace_lines, 0);
    // The streamed records form a valid NDJSON trace.
    std::string joined;
    for (const std::string& line : trace) joined += line + "\n";
    const obs::TraceValidation v = obs::validate_trace(joined);
    EXPECT_TRUE(v.ok) << v.error;

    const ClientResult second =
        client.submit(kTinySpec, /*wait=*/true, /*stream=*/false);
    ASSERT_TRUE(second.ok) << second.error;

    const auto field = [](const ClientResult& r, const char* key) {
        const report::Json* j = r.results.find(key);
        return j ? *j : report::Json();
    };
    EXPECT_EQ(field(first, "state").as_string(), "done");
    EXPECT_EQ(field(second, "state").as_string(), "done");
    EXPECT_EQ(field(first, "cache_hits").as_int(), 0);
    EXPECT_GT(field(second, "cache_hits").as_int(), 0);
    EXPECT_EQ(field(first, "records_hash").as_string(),
              field(second, "records_hash").as_string());

    // status reports both jobs and live cache stats.
    const report::Json status = client.status();
    ASSERT_TRUE(status.at("ok").as_bool());
    EXPECT_EQ(status.at("jobs").size(), 2u);
    EXPECT_GT(status.at("cache").at("stores").as_uint(), 0u);

    // The results op re-serves a finished job on a new connection.
    const report::Json replayed = client.results(first.job);
    ASSERT_TRUE(replayed.at("ok").as_bool());
    EXPECT_EQ(replayed.at("records_hash").as_string(),
              field(first, "records_hash").as_string());
}

TEST(Server, SubmitTimeoutCancelsAtTheNextStageBoundary) {
    ServerParams params;
    params.listen = temp_unix_addr("timeout.sock");
    params.workers = 1;
    RunningServer running(std::move(params));
    const Client client(running.server.bound_addr());

    // A deadline that has passed before the first stage starts.
    const ClientResult r = client.submit(kTinySpec, /*wait=*/true,
                                         /*stream=*/false, /*timeout_s=*/1e-9);
    ASSERT_TRUE(r.ok) << r.error;
    const report::Json& record = r.results.at("report").at("scenarios").at(0);
    EXPECT_EQ(record.at("status").as_string(), "cancelled");
    EXPECT_NE(record.at("error").as_string().find("cancelled before stage"),
              std::string::npos)
        << record.at("error").as_string();
    // A job whose only record was cut ends cancelled, not done.
    EXPECT_EQ(r.results.at("state").as_string(), "cancelled");
}

TEST(Server, CancelAndBadRequestsLeaveServerServiceable) {
    ServerParams params;
    params.listen = temp_unix_addr("cancel.sock");
    params.workers = 1;
    RunningServer running(std::move(params));
    const Client client(running.server.bound_addr());

    // Malformed and unknown requests earn error lines, not disconnects.
    EXPECT_FALSE(client.results("j999").at("ok").as_bool());
    EXPECT_FALSE(client.cancel("j999").at("ok").as_bool());

    // Queue several scenarios on one worker, cancel without waiting.
    std::ostringstream spec;
    for (int i = 0; i < 4; ++i) {
        spec << "funcs=present:2 population=8 generations=3 seed="
             << 100 + i << " attack=none\n";
    }
    const ClientResult submitted =
        client.submit(spec.str(), /*wait=*/false, /*stream=*/false);
    ASSERT_TRUE(submitted.ok) << submitted.error;
    const report::Json cancelled = client.cancel(submitted.job);
    ASSERT_TRUE(cancelled.at("ok").as_bool());

    // The watch op rides the terminal wait even for a cancelled job and
    // reports its final state.
    const ClientResult watched = client.watch(submitted.job);
    ASSERT_TRUE(watched.ok) << watched.error;
    EXPECT_EQ(watched.results.at("state").as_string(), "cancelled");
    // The server is still fully serviceable: a fresh submit runs to
    // completion with correct results.
    const ClientResult fresh =
        client.submit(kTinySpec, /*wait=*/true, /*stream=*/false);
    ASSERT_TRUE(fresh.ok) << fresh.error;
}

TEST(Server, FinishedJobsBeyondTheCapAreEvictedOldestFirst) {
    ServerParams params;
    params.listen = temp_unix_addr("evict.sock");
    params.workers = 1;
    RunningServer running(std::move(params));
    const Client client(running.server.bound_addr());

    // A spec without scenarios makes a job that finishes at submit, so
    // cap + 5 submits leave five more finished jobs than the cap.
    constexpr std::size_t kCap = JobScheduler::kMaxRetainedJobs;
    std::string newest;
    for (std::size_t i = 0; i < kCap + 5; ++i) {
        const ClientResult r =
            client.submit("# no scenarios\n", /*wait=*/true, /*stream=*/false);
        ASSERT_TRUE(r.ok) << r.error;
        // A waiting submit gets its own job's results.
        EXPECT_EQ(r.results.at("job").as_string(), r.job);
        newest = r.job;
    }
    EXPECT_EQ(newest, "j" + std::to_string(kCap + 5));
    EXPECT_EQ(running.server.scheduler().jobs().size(), kCap);

    // The oldest job is gone, and the error says why.
    const report::Json evicted = client.results("j1");
    EXPECT_FALSE(evicted.at("ok").as_bool());
    const std::string why = evicted.at("error").as_string();
    EXPECT_NE(why.find("evicted"), std::string::npos) << why;
    EXPECT_NE(why.find(std::to_string(kCap)), std::string::npos) << why;
    EXPECT_NE(client.status("j5").at("error").as_string().find("evicted"),
              std::string::npos);
    // An id never issued is unknown, not evicted.
    const std::string unknown = client.results("j999").at("error").as_string();
    EXPECT_NE(unknown.find("unknown job"), std::string::npos) << unknown;

    // The newest jobs still answer.
    const report::Json kept = client.results(newest);
    ASSERT_TRUE(kept.at("ok").as_bool());
    EXPECT_EQ(kept.at("state").as_string(), "done");
    EXPECT_TRUE(client.results("j6").at("ok").as_bool());
}

TEST(Server, OverlongRequestLineIsRefusedAndTheServerStaysUp) {
    ServerParams params;
    params.listen = temp_unix_addr("overlong.sock");
    params.workers = 1;
    RunningServer running(std::move(params));

    // A 10 MB line with no newline in its first kMaxRequestLine bytes: the
    // server answers one error line and drops the session instead of
    // buffering it.  The sender runs on its own thread, because the
    // server stops reading long before the line ends.
    util::Socket raw = util::Socket::connect(running.server.bound_addr());
    const std::string big(10'000'000, 'x');
    std::thread sender([&raw, &big] {
        raw.send_all(big + "\n");
        raw.shutdown_write();
    });
    std::string reply;
    ASSERT_TRUE(raw.recv_line(&reply));
    const report::Json j = report::Json::parse(reply);
    EXPECT_FALSE(j.at("ok").as_bool());
    EXPECT_NE(j.at("error").as_string().find("exceeds"), std::string::npos);
    EXPECT_FALSE(raw.recv_line(&reply));  // the session is gone
    sender.join();

    // A new connection is served as before.
    const Client client(running.server.bound_addr());
    std::string error;
    EXPECT_TRUE(client.ping(&error)) << error;
}

/// One line per memory mapping of this process.  A session thread that
/// ended but was never joined keeps two: its stack and its guard page.
std::size_t mapping_count() {
    std::ifstream maps("/proc/self/maps");
    std::size_t lines = 0;
    for (std::string line; std::getline(maps, line);) ++lines;
    return lines;
}

TEST(Server, EndedSessionsAreJoinedWhileTheServerRuns) {
    ServerParams params;
    params.listen = temp_unix_addr("reap.sock");
    params.workers = 1;
    RunningServer running(std::move(params));
    const Client client(running.server.bound_addr());
    std::string error;
    ASSERT_TRUE(client.ping(&error)) << error;  // first-use setup
    const std::size_t before = mapping_count();
    ASSERT_GT(before, 0u) << "/proc/self/maps is unreadable";
    // One connection, and so one session thread, per ping: unjoined, the
    // ended sessions would add at least 2 * kConnections mappings.
    constexpr std::size_t kConnections = 256;
    for (std::size_t i = 0; i < kConnections; ++i) {
        ASSERT_TRUE(client.ping(&error)) << error;
    }
    EXPECT_LT(mapping_count(), before + kConnections / 4);
}

TEST(Server, ConnectionsBeyondTheSessionCapAreRefused) {
    ServerParams params;
    params.listen = temp_unix_addr("cap.sock");
    params.workers = 1;
    RunningServer running(std::move(params));
    const util::SocketAddr& addr = running.server.bound_addr();
    const std::string ping = R"({"op":"ping"})";
    const auto answers_ping = [&ping](util::Socket& s) {
        std::string reply;
        return s.send_line(ping) && s.recv_line(&reply) &&
               report::Json::parse(reply).at("ok").as_bool();
    };

    // kMaxSessions idle connections, each answered once so its session is
    // known to be live.
    std::vector<util::Socket> idle;
    for (std::size_t i = 0; i < Server::kMaxSessions; ++i) {
        idle.push_back(util::Socket::connect(addr));
        ASSERT_TRUE(answers_ping(idle.back())) << "connection " << i;
    }

    // One more gets one error line naming the cap, then EOF.  The receive
    // timeout turns a session that waits for a request into a failure.
    util::Socket extra = util::Socket::connect(addr);
    const timeval timeout{10, 0};
    ASSERT_EQ(::setsockopt(extra.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    std::string reply;
    ASSERT_TRUE(extra.recv_line(&reply));
    const report::Json j = report::Json::parse(reply);
    EXPECT_FALSE(j.at("ok").as_bool());
    EXPECT_NE(j.at("error").as_string().find(
                  std::to_string(Server::kMaxSessions)),
              std::string::npos);
    EXPECT_FALSE(extra.recv_line(&reply));

    // The live sessions are untouched.
    EXPECT_TRUE(answers_ping(idle.front()));

    // Once one idle connection closes and its session ends, a new
    // connection is served.  The session sees the EOF on its own thread,
    // so the first tries may still be refused.
    idle.pop_back();
    const Client client(addr);
    std::string error;
    bool served = false;
    for (int attempt = 0; attempt < 1000 && !served; ++attempt) {
        served = client.ping(&error);
        if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(served) << error;
}

TEST(Server, ShutdownOpStopsTheAcceptLoop) {
    ServerParams params;
    params.listen = temp_unix_addr("shutdown.sock");
    params.workers = 1;
    Server server(std::move(params));
    server.bind();
    std::thread runner([&server] { server.run(); });
    const Client client(server.bound_addr());
    const report::Json resp = client.shutdown();
    EXPECT_TRUE(resp.at("ok").as_bool());
    runner.join();  // run() returned: the shutdown op unblocked accept()
}

}  // namespace
}  // namespace mvf::serve
