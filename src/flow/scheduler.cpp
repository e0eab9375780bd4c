#include "flow/scheduler.hpp"

#include <algorithm>
#include <charconv>
#include <utility>

#include "flow/spec_hash.hpp"
#include "util/hash.hpp"

namespace mvf::flow {

std::string_view job_state_name(JobState s) {
    switch (s) {
        case JobState::kQueued: return "queued";
        case JobState::kRunning: return "running";
        case JobState::kDone: return "done";
        case JobState::kCancelled: return "cancelled";
    }
    return "unknown";
}

JobScheduler::JobScheduler(int workers, StageStore* store)
    : store_(store), pool_(workers) {}

JobScheduler::~JobScheduler() {
    cancel_all();
    pool_.wait_idle();
}

std::string JobScheduler::submit(std::vector<Scenario> scenarios,
                                 const SubmitOptions& options) {
    auto job = std::make_shared<Job>();
    {
        std::lock_guard lock(mu_);
        job->id = 'j' + std::to_string(next_id_++);
    }
    job->scenarios = std::move(scenarios);
    job->submitted = std::chrono::steady_clock::now();
    if (options.timeout_s > 0.0) {
        job->deadline =
            job->submitted +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(options.timeout_s));
    }
    job->records.resize(job->scenarios.size());
    job->sinks = options.sinks;
    const int total = static_cast<int>(job->scenarios.size());
    {
        std::lock_guard lock(mu_);
        jobs_.push_back(job);
        if (total == 0) {
            job->state = JobState::kDone;
            job->records_hash = records_hash(job->records);
            evict_locked();
        }
    }
    if (total == 0) {
        terminal_cv_.notify_all();
        return job->id;
    }
    report::Json args = report::Json::object();
    args.set("job", job->id);
    args.set("scenarios", total);
    emit_instant(job, "job-submitted", std::move(args));
    for (int i = 0; i < total; ++i) {
        pool_.submit([this, job, i] { run_scenario_task(job, i); });
    }
    return job->id;
}

void JobScheduler::run_scenario_task(const std::shared_ptr<Job>& job,
                                     int index) {
    {
        std::lock_guard lock(mu_);
        if (job->state == JobState::kQueued) job->state = JobState::kRunning;
    }
    const Scenario& scenario =
        job->scenarios[static_cast<std::size_t>(index)];
    ScenarioRecord record;
    if (job->cancel.cancelled()) {
        // Cancelled while queued: a placeholder record, no pipeline work.
        record.index = index;
        record.name = scenario.name;
        record.family = scenario.family;
        record.n = scenario.n;
        record.seed = scenario.params.seed;
        record.ok = false;
        record.status = "cancelled";
        record.error = "cancelled while queued";
        record.spec_hash = spec_hash(scenario);
    } else {
        ScenarioRunHooks hooks;
        hooks.cancel = job->cancel;
        hooks.deadline = job->deadline;
        hooks.stage_store = store_;
        hooks.progress = [this, &job, index,
                          &scenario](const StageEvent& ev) {
            report::Json args = report::Json::object();
            args.set("job", job->id);
            args.set("scenario", scenario.name);
            args.set("scenario_index", index);
            args.set("stage", std::string(ev.stage));
            args.set("stage_index", ev.index);
            args.set("stage_total", ev.total);
            args.set("seconds", ev.seconds);
            args.set("completed", ev.completed);
            args.set("cached", ev.cached);
            emit_instant(job, "stage", std::move(args));
        };
        record = run_scenario(scenario, index, hooks);
    }
    {
        std::lock_guard lock(mu_);
        job->records[static_cast<std::size_t>(index)] = std::move(record);
    }
    finish_scenario(job, index);
}

void JobScheduler::finish_scenario(const std::shared_ptr<Job>& job,
                                   int index) {
    bool terminal = false;
    JobStatus st;
    {
        std::lock_guard lock(mu_);
        ++job->completed;
        if (job->completed == static_cast<int>(job->scenarios.size())) {
            // A deadline cuts records without firing the token.
            const bool cut = std::any_of(
                job->records.begin(), job->records.end(),
                [](const ScenarioRecord& r) { return r.status == "cancelled"; });
            job->state = job->cancel.cancelled() || cut ? JobState::kCancelled
                                                        : JobState::kDone;
            job->seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - job->submitted)
                    .count();
            job->records_hash = records_hash(job->records);
            terminal = true;
            evict_locked();
        }
        st = status_locked(*job);
    }
    const ScenarioRecord& rec =
        job->records[static_cast<std::size_t>(index)];
    report::Json done = report::Json::object();
    done.set("job", job->id);
    done.set("scenario", rec.name);
    done.set("scenario_index", index);
    done.set("status", rec.status);
    done.set("seconds", rec.seconds);
    if (rec.cache_hits > 0) done.set("cache_hits", rec.cache_hits);
    emit_instant(job, "scenario-done", std::move(done));
    report::Json progress = report::Json::object();
    progress.set("completed", st.completed);
    progress.set("total", st.total);
    {
        std::unique_lock lock(mu_);
        std::vector<std::shared_ptr<obs::TraceSink>> sinks = job->sinks;
        lock.unlock();
        for (const auto& sink : sinks) {
            sink->counter("job-progress", progress);
            sink->flush();
        }
    }
    if (terminal) {
        report::Json fin = report::Json::object();
        fin.set("job", job->id);
        fin.set("state", std::string(job_state_name(st.state)));
        fin.set("records_hash", st.records_hash);
        fin.set("seconds", st.seconds);
        fin.set("cache_hits", st.cache_hits);
        emit_instant(job, "job-done", std::move(fin));
        {
            // Detach streams: the job will emit nothing further, and the
            // serve session needs exclusive use of the socket for the
            // final results line.
            std::lock_guard lock(mu_);
            job->sinks.clear();
        }
        terminal_cv_.notify_all();
    }
}

void JobScheduler::emit_instant(const std::shared_ptr<Job>& job,
                                const char* name, report::Json args) {
    std::unique_lock lock(mu_);
    if (job->sinks.empty()) return;
    std::vector<std::shared_ptr<obs::TraceSink>> sinks = job->sinks;
    lock.unlock();
    for (const auto& sink : sinks) {
        sink->instant(name, "job", args);
        sink->flush();
    }
}

JobStatus JobScheduler::status_locked(const Job& job) const {
    JobStatus st;
    st.id = job.id;
    st.state = job.state;
    st.completed = job.completed;
    st.total = static_cast<int>(job.scenarios.size());
    for (const ScenarioRecord& r : job.records) {
        if (r.status == "error") ++st.failures;
        st.cache_hits += r.cache_hits;
    }
    st.seconds = job.terminal()
                     ? job.seconds
                     : std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - job.submitted)
                           .count();
    st.records_hash = job.records_hash;
    return st;
}

std::shared_ptr<JobScheduler::Job> JobScheduler::find_locked(
    const std::string& id) const {
    for (const auto& j : jobs_) {
        if (j->id == id) return j;
    }
    return nullptr;
}

void JobScheduler::evict_locked() {
    std::size_t terminal = 0;
    for (const auto& j : jobs_) terminal += j->terminal() ? 1 : 0;
    // jobs_ is in submission order, so the first evictable job is the
    // oldest.
    for (auto it = jobs_.begin();
         terminal > kMaxRetainedJobs && it != jobs_.end();) {
        if ((*it)->terminal() && (*it)->waiters == 0) {
            it = jobs_.erase(it);
            --terminal;
        } else {
            ++it;
        }
    }
}

bool JobScheduler::cancel(const std::string& id) {
    std::shared_ptr<Job> job;
    {
        std::lock_guard lock(mu_);
        job = find_locked(id);
    }
    if (!job) return false;
    job->cancel.cancel();
    return true;
}

std::optional<JobStatus> JobScheduler::status(const std::string& id) const {
    std::lock_guard lock(mu_);
    if (const std::shared_ptr<Job> job = find_locked(id)) {
        return status_locked(*job);
    }
    return std::nullopt;
}

std::vector<JobStatus> JobScheduler::jobs() const {
    std::lock_guard lock(mu_);
    std::vector<JobStatus> out;
    out.reserve(jobs_.size());
    for (const auto& j : jobs_) out.push_back(status_locked(*j));
    return out;
}

bool JobScheduler::watch(const std::string& id,
                         std::shared_ptr<obs::TraceSink> sink) {
    std::lock_guard lock(mu_);
    const std::shared_ptr<Job> job = find_locked(id);
    if (!job || job->terminal()) return false;
    job->sinks.push_back(std::move(sink));
    return true;
}

std::optional<JobResults> JobScheduler::wait(const std::string& id) {
    std::unique_lock lock(mu_);
    const std::shared_ptr<Job> job = find_locked(id);
    if (!job) return std::nullopt;
    ++job->waiters;
    terminal_cv_.wait(lock, [&] { return job->terminal(); });
    --job->waiters;
    JobResults out{status_locked(*job), job->records};
    evict_locked();  // the pin may have held the job past the cap
    return out;
}

std::optional<JobResults> JobScheduler::results(const std::string& id) const {
    std::lock_guard lock(mu_);
    if (const std::shared_ptr<Job> job = find_locked(id)) {
        return JobResults{status_locked(*job), job->records};
    }
    return std::nullopt;
}

bool JobScheduler::evicted(const std::string& id) const {
    if (id.size() < 2 || id[0] != 'j' || id[1] == '0') return false;
    std::uint64_t n = 0;
    const char* end = id.data() + id.size();
    const auto [ptr, ec] = std::from_chars(id.data() + 1, end, n);
    if (ec != std::errc() || ptr != end) return false;
    std::lock_guard lock(mu_);
    return n < next_id_ && !find_locked(id);
}

void JobScheduler::cancel_all() {
    std::vector<std::shared_ptr<Job>> jobs;
    {
        std::lock_guard lock(mu_);
        jobs = jobs_;
    }
    for (const auto& j : jobs) j->cancel.cancel();
}

std::vector<ScenarioRecord> run_batch(const std::vector<Scenario>& scenarios,
                                      int jobs, const SubmitOptions& options) {
    const int count = static_cast<int>(scenarios.size());
    JobScheduler scheduler(std::min(jobs, std::max(count, 1)), nullptr);
    return scheduler.wait(scheduler.submit(scenarios, options))->records;
}

namespace {

bool is_volatile_key(const std::string& key) {
    return key == "seconds" || key == "total_seconds" ||
           key == "solve_seconds" || key == "metrics" || key == "cache_hits";
}

}  // namespace

report::Json strip_volatile(const report::Json& j) {
    switch (j.type()) {
        case report::Json::Type::kArray: {
            report::Json out = report::Json::array();
            for (const report::Json& item : j.items()) {
                out.push_back(strip_volatile(item));
            }
            return out;
        }
        case report::Json::Type::kObject: {
            report::Json out = report::Json::object();
            for (const auto& [key, value] : j.members()) {
                if (is_volatile_key(key)) continue;
                out.set(key, strip_volatile(value));
            }
            return out;
        }
        default:
            return j;
    }
}

std::string records_hash(const std::vector<ScenarioRecord>& records) {
    report::Json arr = report::Json::array();
    for (const ScenarioRecord& r : records) {
        arr.push_back(r.to_json());
    }
    return util::fnv1a64_hex(
        report::canonicalized(strip_volatile(arr)).dump());
}

}  // namespace mvf::flow
