#pragma once
// Minimal POSIX stream sockets for the serve subsystem.
//
// Two address families behind one textual syntax:
//   unix:/path/to.sock     local filesystem socket (the default for serve)
//   tcp:host:port          TCP; port 0 asks the kernel for a free port
//                          (ListenSocket::bound_port reports the choice)
//
// Everything is blocking; the line protocol on top (serve/protocol.hpp)
// frames messages with '\n'.  Sends never raise SIGPIPE (MSG_NOSIGNAL):
// a peer that went away surfaces as a false return, which the server
// treats as "client disconnected" and drops the stream.

#include <string>
#include <string_view>

namespace mvf::util {

/// Parsed socket address.  parse() throws std::invalid_argument on
/// malformed syntax (unknown scheme, missing port, ...).
struct SocketAddr {
    bool is_unix = true;
    std::string path;  ///< unix: filesystem path
    std::string host;  ///< tcp: host
    int port = 0;      ///< tcp: port (0 = kernel-assigned)

    static SocketAddr parse(const std::string& text);
    std::string to_string() const;
};

/// One connected stream socket (owning; move-only).
class Socket {
public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket();
    Socket(Socket&& other) noexcept;
    Socket& operator=(Socket&& other) noexcept;
    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /// Connects to `addr`; throws std::runtime_error with errno text on
    /// failure.
    static Socket connect(const SocketAddr& addr);

    /// Writes all of `data`; false when the peer is gone (no SIGPIPE).
    bool send_all(std::string_view data);
    /// Convenience: data + '\n'.
    bool send_line(std::string_view data);

    /// Outcome of a capped recv_line.
    enum class Recv { kLine, kClosed, kTooLong };

    /// Reads up to the next '\n' (stripped; a trailing '\r' too).  kClosed
    /// on EOF/error with no buffered line.  A line longer than `max_line`
    /// bytes returns kTooLong as soon as more than `max_line` bytes of it
    /// are buffered, without reading the rest; the stream is then out of
    /// step and should be dropped.  Each received byte is scanned once.
    Recv recv_line(std::string* line, std::size_t max_line);
    /// Uncapped: for peers trusted to send bounded lines.
    bool recv_line(std::string* line) {
        return recv_line(line, std::string::npos) == Recv::kLine;
    }

    /// Half-closes the write side (peer sees EOF after draining).
    void shutdown_write();
    void close();

private:
    int fd_ = -1;
    std::string buffer_;     ///< bytes past the last returned line
    std::size_t scanned_ = 0;  ///< prefix of buffer_ known to hold no '\n'
};

/// Bound + listening socket.  For unix addresses, a stale socket file at
/// the path is unlinked before binding and the file is unlinked again on
/// close.
class ListenSocket {
public:
    ListenSocket() = default;
    ~ListenSocket();
    ListenSocket(ListenSocket&& other) noexcept;
    ListenSocket& operator=(ListenSocket&& other) noexcept;
    ListenSocket(const ListenSocket&) = delete;
    ListenSocket& operator=(const ListenSocket&) = delete;

    /// Binds and listens; throws std::runtime_error on failure.
    static ListenSocket listen(const SocketAddr& addr, int backlog = 16);

    bool valid() const { return fd_ >= 0; }
    /// The actual port (tcp with port 0 resolves here); 0 for unix.
    int bound_port() const { return port_; }
    const SocketAddr& addr() const { return addr_; }

    /// Blocks for one connection; an invalid Socket means the listener was
    /// closed (or errored) -- the accept loop's exit signal.
    Socket accept();

    /// Unblocks a concurrent accept() and removes the unix socket file.
    /// Safe to call from another thread than the accept loop; the
    /// descriptor itself is released by the destructor.
    void close();

private:
    void release();

    int fd_ = -1;
    int port_ = 0;
    SocketAddr addr_;
    bool shut_down_ = false;  ///< close() ran
};

/// Idempotently installs SIG_IGN for SIGPIPE (belt to MSG_NOSIGNAL's
/// braces: FILE*-wrapped sockets in the trace streamer bypass send()).
void ignore_sigpipe();

}  // namespace mvf::util
