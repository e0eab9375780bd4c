#pragma once
// The persistent experiment server behind `mvf serve`.
//
// One accept loop, one session thread per client connection (at most
// kMaxSessions at once), one shared flow::JobScheduler + StageCache behind
// them all.  The accept loop joins the sessions that have ended each time
// it starts a new one, so a long-lived server holds threads only for its
// live connections (plus those that ended since the last accept); the
// destructor waits for the rest.
// Sessions speak the
// line protocol of serve/protocol.hpp; a streaming submit or watch points
// a per-job obs::TraceSink at the client socket (fdopen over a dup'ed fd),
// so progress records ride the same connection as the responses.
//
// Failure containment, by construction:
//   * a client disconnecting mid-stream only kills its FILE* writes (the
//     socket is MSG_NOSIGNAL / SIGPIPE-ignored); the job keeps running and
//     its results stay queryable from new connections until newer
//     finished jobs evict it;
//   * a cancelled job releases its pool slots at the next stage boundary;
//   * a malformed request earns an error line, never a session exit.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "flow/scheduler.hpp"
#include "serve/stage_cache.hpp"
#include "util/socket.hpp"

namespace mvf::serve {

struct ServerParams {
    util::SocketAddr listen;
    /// Scheduler pool width.
    int workers = 2;
    StageCacheParams cache;
    /// Per-connection request logging on stderr.
    bool verbose = false;
};

class Server {
public:
    /// Most sessions the server holds at once.  A connection is the only
    /// way a client can make the server start a thread, so a connection
    /// beyond the cap gets one error line naming it and is closed; the
    /// live sessions are left as they are.
    static constexpr std::size_t kMaxSessions = 256;

    explicit Server(ServerParams params);
    ~Server();

    /// Binds the listen socket; throws std::runtime_error on failure.
    /// Separate from run() so callers can learn the bound port first.
    void bind();
    /// The actual address (tcp port 0 resolved); valid after bind().
    const util::SocketAddr& bound_addr() const { return bound_addr_; }

    /// Accept loop; returns after a shutdown request (local or remote).
    /// Jobs still running at shutdown are cancelled and drained.
    void run();

    /// Thread-safe; unblocks run().  Idempotent.
    void request_shutdown();

    flow::JobScheduler& scheduler() { return *scheduler_; }
    StageCache& cache() { return *cache_; }

private:
    struct Session {
        std::thread thread;
        /// Poked (shutdown(2)) to unblock the session's reads at server
        /// shutdown; weak so an ended session's fd is freed normally.
        std::weak_ptr<util::Socket> socket;
    };

    void session(util::Socket& socket);
    /// Joins the sessions that have ended (outside sessions_mu_).
    void reap_ended_sessions();
    /// One request line -> zero or more stream lines + one response line.
    /// Returns false when the session should end (disconnect or shutdown).
    bool handle(util::Socket& socket, const std::string& line);

    ServerParams params_;
    util::SocketAddr bound_addr_;
    std::unique_ptr<StageCache> cache_;
    std::unique_ptr<flow::JobScheduler> scheduler_;
    util::ListenSocket listener_;
    std::atomic<bool> stopping_{false};
    std::mutex sessions_mu_;
    /// Live sessions.  An ending session moves its own node to ended_
    /// (std::list splice: the node, and the iterator its thread holds,
    /// stay valid) and signals session_ended_.
    std::list<Session> sessions_;
    /// Ended sessions whose threads have not been joined yet.
    std::list<Session> ended_;
    std::condition_variable session_ended_;
};

}  // namespace mvf::serve
