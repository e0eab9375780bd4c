#include "serve/server.hpp"

#include <sys/socket.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "serve/protocol.hpp"

namespace mvf::serve {

namespace {

report::Json status_json(const flow::JobStatus& st) {
    report::Json j = report::Json::object();
    j.set("job", st.id);
    j.set("state", std::string(flow::job_state_name(st.state)));
    j.set("completed", st.completed);
    j.set("total", st.total);
    j.set("failures", st.failures);
    j.set("cache_hits", st.cache_hits);
    j.set("seconds", st.seconds);
    if (!st.records_hash.empty()) j.set("records_hash", st.records_hash);
    return j;
}

}  // namespace

Server::Server(ServerParams params)
    : params_(std::move(params)),
      cache_(std::make_unique<StageCache>(params_.cache)),
      scheduler_(std::make_unique<flow::JobScheduler>(params_.workers,
                                                cache_.get())) {
    util::ignore_sigpipe();
}

Server::~Server() {
    request_shutdown();
    // request_shutdown() poked every live session; wait for all of them to
    // end.  The wait releases sessions_mu_, which a still-running session
    // may need (the op=shutdown path calls request_shutdown(), and every
    // session takes the lock to move itself to ended_).
    {
        std::unique_lock lock(sessions_mu_);
        session_ended_.wait(lock, [this] { return sessions_.empty(); });
    }
    reap_ended_sessions();
}

void Server::reap_ended_sessions() {
    // Join OUTSIDE the lock: an ended session still takes sessions_mu_ on
    // its way out, and joining it while holding the mutex deadlocks.  The
    // threads here have moved themselves to ended_, so each join only waits
    // for the thread function to return.
    std::list<Session> ended;
    {
        std::lock_guard lock(sessions_mu_);
        ended.swap(ended_);
    }
    for (Session& s : ended) s.thread.join();
}

void Server::bind() {
    listener_ = util::ListenSocket::listen(params_.listen);
    bound_addr_ = listener_.addr();
}

void Server::run() {
    if (!listener_.valid()) bind();
    if (params_.verbose) {
        std::fprintf(stderr, "mvf serve: listening on %s (%d workers)\n",
                     bound_addr_.to_string().c_str(), scheduler_->workers());
    }
    while (!stopping_.load(std::memory_order_acquire)) {
        util::Socket client = listener_.accept();
        if (!client.valid()) break;  // listener closed (shutdown) or error
        bool full = false;
        {
            // Only this thread adds sessions, so the count cannot grow
            // between this check and the insertion below.
            std::lock_guard lock(sessions_mu_);
            full = sessions_.size() >= kMaxSessions;
        }
        if (full) {
            client.send_line(error_line(
                "server holds its limit of " + std::to_string(kMaxSessions) +
                " concurrent sessions; closing the connection"));
            continue;  // ~Socket closes it
        }
        auto socket = std::make_shared<util::Socket>(std::move(client));
        // The node is built outside sessions_ so a thread that fails to
        // start leaves nothing behind; splicing keeps `it` valid.
        std::list<Session> node(1);
        const auto it = node.begin();
        it->socket = socket;
        {
            std::lock_guard lock(sessions_mu_);
            // The thread needs sessions_mu_ to move its node to ended_, so
            // it cannot do so before the node is in sessions_.
            it->thread = std::thread(
                [this, it, socket = std::move(socket)]() mutable {
                    session(*socket);
                    socket.reset();  // the fd closes before the node moves
                    std::lock_guard done(sessions_mu_);
                    ended_.splice(ended_.end(), sessions_, it);
                    session_ended_.notify_all();
                });
            sessions_.splice(sessions_.end(), node);
        }
        // After the new session starts, so its client never waits on a join.
        reap_ended_sessions();
    }
    // Drain: cancel whatever still runs so the scheduler's pool empties
    // promptly, then let its destructor join the workers.
    scheduler_->cancel_all();
}

void Server::request_shutdown() {
    if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
    listener_.close();  // unblocks accept()
    scheduler_->cancel_all();
    std::lock_guard lock(sessions_mu_);
    for (const Session& session : sessions_) {
        if (const std::shared_ptr<util::Socket> s = session.socket.lock()) {
            // Poke, do not close: the session owns the fd and may be
            // mid-recv; shutdown() unblocks it without racing fd reuse.
            ::shutdown(s->fd(), SHUT_RDWR);
        }
    }
}

void Server::session(util::Socket& socket) {
    std::string line;
    while (!stopping_.load(std::memory_order_acquire)) {
        const util::Socket::Recv got = socket.recv_line(&line, kMaxRequestLine);
        if (got == util::Socket::Recv::kTooLong) {
            socket.send_line(error_line(
                "request line exceeds " + std::to_string(kMaxRequestLine) +
                " bytes; closing the connection"));
            break;
        }
        if (got != util::Socket::Recv::kLine) break;
        if (line.empty()) continue;
        if (!handle(socket, line)) break;
    }
}

bool Server::handle(util::Socket& socket, const std::string& line) {
    report::Json request;
    try {
        request = report::Json::parse(line);
    } catch (const report::JsonError& e) {
        socket.send_line(error_line(std::string("malformed request: ") +
                                    e.what()));
        return true;
    }
    std::string op;
    if (const report::Json* o = request.find("op"); o && o->is_string()) {
        op = o->as_string();
    } else {
        socket.send_line(error_line("request needs a string \"op\""));
        return true;
    }
    if (params_.verbose) {
        std::fprintf(stderr, "mvf serve: op=%s\n", op.c_str());
    }

    const auto job_arg = [&](std::string* id) {
        const report::Json* j = request.find("job");
        if (!j || !j->is_string()) return false;
        *id = j->as_string();
        return true;
    };
    const auto no_job = [&](const std::string& id) {
        socket.send_line(error_line(
            scheduler_->evicted(id)
                ? "job " + id + " was evicted: the server keeps the last " +
                      std::to_string(flow::JobScheduler::kMaxRetainedJobs) +
                      " finished jobs"
                : "unknown job: " + id));
    };
    const auto send_results = [&](const std::string& id,
                                  const std::optional<flow::JobResults>& res) {
        if (!res) {
            no_job(id);
            return;
        }
        const flow::JobStatus& st = res->status;
        report::Json j = report::Json::object();
        j.set("ok", true);
        j.set("op", "results");
        j.set("job", id);
        j.set("state", std::string(flow::job_state_name(st.state)));
        j.set("records_hash", st.records_hash);
        j.set("cache_hits", st.cache_hits);
        j.set("seconds", st.seconds);
        j.set("report", flow::batch_report(res->records, st.seconds));
        socket.send_line(response_line(j));
    };

    if (op == "ping") {
        report::Json j = report::Json::object();
        j.set("ok", true);
        j.set("protocol", kProtocolVersion);
        socket.send_line(response_line(j));
        return true;
    }
    if (op == "submit") {
        const report::Json* spec = request.find("spec");
        if (!spec || !spec->is_string()) {
            socket.send_line(error_line("submit needs a string \"spec\""));
            return true;
        }
        std::vector<flow::Scenario> scenarios;
        try {
            scenarios = flow::parse_scenario_spec(spec->as_string());
        } catch (const std::invalid_argument& e) {
            socket.send_line(error_line(e.what()));
            return true;
        }
        flow::SubmitOptions options;
        if (const report::Json* t = request.find("timeout_s");
            t && t->is_number()) {
            options.timeout_s = t->as_number();
        }
        const auto flag = [&](const char* key, bool fallback) {
            const report::Json* f = request.find(key);
            return f && f->is_bool() ? f->as_bool() : fallback;
        };
        const bool stream = flag("stream", false);
        const bool wait = flag("wait", true);
        const std::string id =
            scheduler_->submit(std::move(scenarios), options);
        report::Json ack = report::Json::object();
        ack.set("ok", true);
        ack.set("op", "submit");
        ack.set("protocol", kProtocolVersion);
        ack.set("job", id);
        if (!socket.send_line(response_line(ack))) return false;
        if (!wait) return true;
        // Attach the stream only after the ack is on the wire, so the
        // client always reads ack -> trace records -> results in order.
        // (Events emitted before the attach are not replayed.)
        if (stream) {
            if (auto sink = obs::fd_sink(socket.fd(), "<client>")) {
                scheduler_->watch(id, std::move(sink));
            }
        }
        send_results(id, scheduler_->wait(id));
        return true;
    }
    if (op == "status") {
        std::string id;
        report::Json j = report::Json::object();
        j.set("ok", true);
        j.set("op", "status");
        if (job_arg(&id)) {
            const std::optional<flow::JobStatus> st = scheduler_->status(id);
            if (!st) {
                no_job(id);
                return true;
            }
            report::Json arr = report::Json::array();
            arr.push_back(status_json(*st));
            j.set("jobs", std::move(arr));
        } else {
            report::Json arr = report::Json::array();
            for (const flow::JobStatus& st : scheduler_->jobs()) {
                arr.push_back(status_json(st));
            }
            j.set("jobs", std::move(arr));
        }
        j.set("cache", cache_->stats_json());
        socket.send_line(response_line(j));
        return true;
    }
    if (op == "results") {
        std::string id;
        if (!job_arg(&id)) {
            socket.send_line(error_line("results needs a string \"job\""));
            return true;
        }
        send_results(id, scheduler_->results(id));
        return true;
    }
    if (op == "watch") {
        std::string id;
        if (!job_arg(&id)) {
            socket.send_line(error_line("watch needs a string \"job\""));
            return true;
        }
        if (!scheduler_->status(id)) {
            no_job(id);
            return true;
        }
        report::Json ack = report::Json::object();
        ack.set("ok", true);
        ack.set("op", "watch");
        ack.set("job", id);
        if (!socket.send_line(response_line(ack))) return false;
        if (auto sink = obs::fd_sink(socket.fd(), "<client>")) {
            scheduler_->watch(id, std::move(sink));  // no-op when terminal
        }
        send_results(id, scheduler_->wait(id));
        return true;
    }
    if (op == "cancel") {
        std::string id;
        if (!job_arg(&id)) {
            socket.send_line(error_line("cancel needs a string \"job\""));
            return true;
        }
        if (!scheduler_->cancel(id)) {
            no_job(id);
            return true;
        }
        const std::optional<flow::JobStatus> st = scheduler_->status(id);
        report::Json j = report::Json::object();
        j.set("ok", true);
        j.set("op", "cancel");
        j.set("job", id);
        if (st) j.set("state", std::string(flow::job_state_name(st->state)));
        socket.send_line(response_line(j));
        return true;
    }
    if (op == "shutdown") {
        report::Json j = report::Json::object();
        j.set("ok", true);
        j.set("op", "shutdown");
        socket.send_line(response_line(j));
        request_shutdown();
        return false;
    }
    socket.send_line(error_line("unknown op \"" + op + "\""));
    return true;
}

}  // namespace mvf::serve
