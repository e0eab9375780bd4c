#pragma once
// The one way scenario batches run in parallel.
//
// A job is one submitted scenario batch.  `mvf run`, `mvf batch`, the
// benches and the tests submit one job and wait for it (run_batch is the
// few-line form); `mvf serve` keeps one scheduler for all its sessions.
// Every job's scenarios go onto one shared util::ThreadPool in submission
// order, each run start to finish on one worker, and all jobs share one
// optional flow::StageStore -- a scenario one client already paid for is a
// cache restore for every later client.
//
// Per-job wiring: a flow::CancelToken (cancel() flips it; queued scenarios
// then complete immediately as "cancelled" records, the running one stops
// at its next stage boundary), an optional deadline, and any number of
// attached obs::TraceSink streams that receive per-stage progress and
// job-progress counters (`mvf --trace`/`--verbose` and the serve sessions'
// client sockets).  A sink detaching mid-run -- client disconnected -- is
// harmless: emission just stops reaching it.
//
// Retention: the scheduler keeps at most kMaxRetainedJobs terminal jobs
// and evicts the oldest one first, so a long-lived server's memory and
// lookup cost stay bounded.  Queued and running jobs are never evicted,
// nor is a job a wait() call is waiting on.  Between submit() and wait()
// a finished job is evicted only once kMaxRetainedJobs newer jobs have
// finished.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "flow/batch_runner.hpp"
#include "obs/trace.hpp"
#include "report/json.hpp"
#include "util/thread_pool.hpp"

namespace mvf::flow {

enum class JobState { kQueued, kRunning, kDone, kCancelled };

std::string_view job_state_name(JobState s);

/// Point-in-time view of one job.
struct JobStatus {
    std::string id;
    JobState state = JobState::kQueued;
    int completed = 0;  ///< scenarios finished (any status)
    int total = 0;
    int failures = 0;    ///< records with status "error"
    int cache_hits = 0;  ///< pipeline stages restored, summed over records
    double seconds = 0.0;
    std::string records_hash;  ///< set once terminal
};

/// A job's status with its records, read under one lock.
struct JobResults {
    JobStatus status;
    /// In input order; records of unfinished scenarios are placeholders.
    std::vector<ScenarioRecord> records;
};

struct SubmitOptions {
    /// Wall-clock budget for the whole job (0 = none).
    double timeout_s = 0.0;
    /// Initial trace streams (more can attach later via watch()).
    std::vector<std::shared_ptr<obs::TraceSink>> sinks;
};

class JobScheduler {
public:
    /// Terminal jobs kept for status and results queries.
    static constexpr std::size_t kMaxRetainedJobs = 256;

    /// `workers` pool threads; `store` may be null (no stage caching).
    JobScheduler(int workers, StageStore* store);
    /// Cancels everything still running and drains the pool.
    ~JobScheduler();

    /// Enqueues a job; returns its id ("j1", "j2", ...).
    std::string submit(std::vector<Scenario> scenarios,
                       const SubmitOptions& options = {});

    /// Flips the job's cancel token; false for unknown and evicted ids.
    /// Idempotent.
    bool cancel(const std::string& id);

    std::optional<JobStatus> status(const std::string& id) const;
    std::vector<JobStatus> jobs() const;

    /// Attaches a trace stream to a job; terminal jobs get no events
    /// (false).  Streams live until the job finishes.
    bool watch(const std::string& id, std::shared_ptr<obs::TraceSink> sink);

    /// Blocks until the job is terminal and returns its results; empty
    /// for unknown and evicted ids.  The job is not evicted while this
    /// call waits, however many other jobs finish meanwhile.
    std::optional<JobResults> wait(const std::string& id);

    /// The job's results now, without waiting; empty for unknown and
    /// evicted ids.
    std::optional<JobResults> results(const std::string& id) const;

    /// True for an id this scheduler issued ("jN", N below the next id)
    /// whose job has since been evicted.
    bool evicted(const std::string& id) const;

    /// Cancels every non-terminal job (shutdown path).
    void cancel_all();

    int workers() const { return pool_.num_threads(); }

private:
    struct Job {
        std::string id;
        std::vector<Scenario> scenarios;
        CancelToken cancel;
        std::optional<std::chrono::steady_clock::time_point> deadline;
        std::chrono::steady_clock::time_point submitted;
        std::vector<ScenarioRecord> records;
        int completed = 0;
        JobState state = JobState::kQueued;
        double seconds = 0.0;
        std::string records_hash;
        std::vector<std::shared_ptr<obs::TraceSink>> sinks;
        int waiters = 0;  ///< wait() calls in progress; pins the job

        bool terminal() const {
            return state == JobState::kDone || state == JobState::kCancelled;
        }
    };

    void run_scenario_task(const std::shared_ptr<Job>& job, int index);
    void finish_scenario(const std::shared_ptr<Job>& job, int index);
    /// Emits to every sink attached to `job` (snapshots the list under
    /// mu_, emits outside it).
    void emit_instant(const std::shared_ptr<Job>& job, const char* name,
                      report::Json args);
    JobStatus status_locked(const Job& job) const;
    std::shared_ptr<Job> find_locked(const std::string& id) const;
    /// Evicts the oldest unpinned terminal jobs beyond kMaxRetainedJobs.
    void evict_locked();

    StageStore* store_;
    mutable std::mutex mu_;
    std::condition_variable terminal_cv_;
    std::vector<std::shared_ptr<Job>> jobs_;
    std::uint64_t next_id_ = 1;
    util::ThreadPool pool_;  ///< last: its dtor drains tasks that use *this
};

/// Runs `scenarios` as one job on a scheduler of `jobs` workers (at most
/// one per scenario), waits, and returns the records in input order.
/// Scenario failures are captured in their record, never thrown.  The
/// scheduler's workers are joined before this returns, so `options.sinks`
/// receive nothing afterwards.
std::vector<ScenarioRecord> run_batch(const std::vector<Scenario>& scenarios,
                                      int jobs,
                                      const SubmitOptions& options = {});

/// Recursively removes volatile members ("seconds", "total_seconds",
/// "solve_seconds", "metrics", "cache_hits") -- everything that may
/// legitimately differ between a fresh and a cache-served run of the same
/// experiment.
report::Json strip_volatile(const report::Json& j);

/// FNV-1a of the canonicalized, volatile-stripped records array: equal
/// hashes mean semantically identical results, no matter which stages
/// came from the cache or how many workers ran them.
std::string records_hash(const std::vector<ScenarioRecord>& records);

}  // namespace mvf::flow
