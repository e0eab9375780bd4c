#pragma once
// The persistent experiment server behind `mvf serve`.
//
// One accept loop, one detached session thread per client connection, one
// shared JobScheduler + StageCache behind them all.  Sessions speak the
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
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/scheduler.hpp"
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

    JobScheduler& scheduler() { return *scheduler_; }
    StageCache& cache() { return *cache_; }

private:
    void session(util::Socket socket);
    /// One request line -> zero or more stream lines + one response line.
    /// Returns false when the session should end (disconnect or shutdown).
    bool handle(util::Socket& socket, const std::string& line);

    ServerParams params_;
    util::SocketAddr bound_addr_;
    std::unique_ptr<StageCache> cache_;
    std::unique_ptr<JobScheduler> scheduler_;
    util::ListenSocket listener_;
    std::atomic<bool> stopping_{false};
    std::mutex sessions_mu_;
    std::vector<std::thread> sessions_;
    /// Live session sockets, poked (shutdown(2)) to unblock their reads at
    /// server shutdown; weak so a finished session's fd is freed normally.
    std::vector<std::weak_ptr<util::Socket>> session_sockets_;
};

}  // namespace mvf::serve
