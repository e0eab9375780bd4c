#include "util/socket.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace mvf::util {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_un unix_sockaddr(const std::string& path) {
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (path.size() >= sizeof(sa.sun_path)) {
        throw std::invalid_argument("unix socket path too long: " + path);
    }
    std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
    return sa;
}

}  // namespace

SocketAddr SocketAddr::parse(const std::string& text) {
    SocketAddr a;
    if (text.rfind("unix:", 0) == 0) {
        a.is_unix = true;
        a.path = text.substr(5);
        if (a.path.empty()) {
            throw std::invalid_argument("unix socket address needs a path: " +
                                        text);
        }
        return a;
    }
    if (text.rfind("tcp:", 0) == 0) {
        a.is_unix = false;
        const std::string rest = text.substr(4);
        const std::size_t colon = rest.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 == rest.size()) {
            throw std::invalid_argument(
                "tcp socket address must be tcp:host:port: " + text);
        }
        a.host = rest.substr(0, colon);
        try {
            std::size_t used = 0;
            a.port = std::stoi(rest.substr(colon + 1), &used);
            if (used != rest.size() - colon - 1) {
                throw std::invalid_argument(rest);
            }
        } catch (const std::exception&) {
            throw std::invalid_argument("tcp port is not a number: " + text);
        }
        if (a.port < 0 || a.port > 65535) {
            throw std::invalid_argument("tcp port out of range: " + text);
        }
        return a;
    }
    throw std::invalid_argument(
        "socket address must start with unix: or tcp: -- got \"" + text +
        "\"");
}

std::string SocketAddr::to_string() const {
    if (is_unix) return "unix:" + path;
    return "tcp:" + host + ":" + std::to_string(port);
}

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept
    : fd_(other.fd_),
      buffer_(std::move(other.buffer_)),
      scanned_(other.scanned_) {
    other.fd_ = -1;
    other.scanned_ = 0;
}

Socket& Socket::operator=(Socket&& other) noexcept {
    if (this != &other) {
        close();
        fd_ = other.fd_;
        buffer_ = std::move(other.buffer_);
        scanned_ = other.scanned_;
        other.fd_ = -1;
        other.scanned_ = 0;
    }
    return *this;
}

Socket Socket::connect(const SocketAddr& addr) {
    if (addr.is_unix) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) throw_errno("socket(AF_UNIX)");
        const sockaddr_un sa = unix_sockaddr(addr.path);
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa),
                      sizeof(sa)) != 0) {
            const int err = errno;
            ::close(fd);
            errno = err;
            throw_errno("connect " + addr.to_string());
        }
        return Socket(fd);
    }
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const std::string port = std::to_string(addr.port);
    const int rc = ::getaddrinfo(addr.host.c_str(), port.c_str(), &hints, &res);
    if (rc != 0) {
        throw std::runtime_error("resolve " + addr.to_string() + ": " +
                                 gai_strerror(rc));
    }
    int fd = -1;
    int last_errno = ECONNREFUSED;
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            last_errno = errno;
            continue;
        }
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
        last_errno = errno;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0) {
        errno = last_errno;
        throw_errno("connect " + addr.to_string());
    }
    return Socket(fd);
}

bool Socket::send_all(std::string_view data) {
    while (!data.empty()) {
        const ssize_t n =
            ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

bool Socket::send_line(std::string_view data) {
    std::string line(data);
    line.push_back('\n');
    return send_all(line);
}

Socket::Recv Socket::recv_line(std::string* line, std::size_t max_line) {
    while (true) {
        const std::size_t nl = buffer_.find('\n', scanned_);
        if (nl != std::string::npos) {
            if (nl > max_line) return Recv::kTooLong;
            line->assign(buffer_, 0, nl);
            buffer_.erase(0, nl + 1);
            scanned_ = 0;
            if (!line->empty() && line->back() == '\r') line->pop_back();
            return Recv::kLine;
        }
        scanned_ = buffer_.size();
        if (buffer_.size() > max_line) return Recv::kTooLong;
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return Recv::kClosed;  // partial line is dropped
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

void Socket::shutdown_write() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::close() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buffer_.clear();
    scanned_ = 0;
}

ListenSocket::~ListenSocket() { release(); }

ListenSocket::ListenSocket(ListenSocket&& other) noexcept
    : fd_(other.fd_),
      port_(other.port_),
      addr_(std::move(other.addr_)),
      shut_down_(other.shut_down_) {
    other.fd_ = -1;
}

ListenSocket& ListenSocket::operator=(ListenSocket&& other) noexcept {
    if (this != &other) {
        release();
        fd_ = other.fd_;
        port_ = other.port_;
        addr_ = std::move(other.addr_);
        shut_down_ = other.shut_down_;
        other.fd_ = -1;
    }
    return *this;
}

ListenSocket ListenSocket::listen(const SocketAddr& addr, int backlog) {
    ListenSocket ls;
    ls.addr_ = addr;
    if (addr.is_unix) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) throw_errno("socket(AF_UNIX)");
        // A previous server that crashed leaves its socket file behind;
        // binding over it needs the unlink (a live server holds the file
        // locked only by convention -- callers pick per-run paths).
        ::unlink(addr.path.c_str());
        const sockaddr_un sa = unix_sockaddr(addr.path);
        if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) !=
            0) {
            const int err = errno;
            ::close(fd);
            errno = err;
            throw_errno("bind " + addr.to_string());
        }
        if (::listen(fd, backlog) != 0) {
            const int err = errno;
            ::close(fd);
            ::unlink(addr.path.c_str());
            errno = err;
            throw_errno("listen " + addr.to_string());
        }
        ls.fd_ = fd;
        return ls;
    }
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo* res = nullptr;
    const std::string port = std::to_string(addr.port);
    const int rc = ::getaddrinfo(addr.host.empty() ? nullptr : addr.host.c_str(),
                                 port.c_str(), &hints, &res);
    if (rc != 0) {
        throw std::runtime_error("resolve " + addr.to_string() + ": " +
                                 gai_strerror(rc));
    }
    int fd = -1;
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) continue;
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
            ::listen(fd, backlog) == 0) {
            break;
        }
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0) throw_errno("bind " + addr.to_string());
    sockaddr_storage bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
        if (bound.ss_family == AF_INET) {
            ls.port_ = ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
        } else if (bound.ss_family == AF_INET6) {
            ls.port_ =
                ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
        }
    }
    ls.addr_.port = ls.port_;
    ls.fd_ = fd;
    return ls;
}

Socket ListenSocket::accept() {
    while (true) {
        const int fd = ::accept(fd_, nullptr, nullptr);
        if (fd >= 0) return Socket(fd);
        if (errno == EINTR) continue;
        return Socket();
    }
}

void ListenSocket::close() {
    if (fd_ < 0 || shut_down_) return;
    // Only shutdown(): it wakes a concurrent accept() (which then fails
    // with EINVAL) and leaves fd_ alone.  Closing the descriptor here, on
    // another thread than the accept loop, would race that loop's read of
    // fd_ and could let accept() run on a reused descriptor number; the
    // destructor releases it once the loop is gone.
    ::shutdown(fd_, SHUT_RDWR);
    shut_down_ = true;
    if (addr_.is_unix && !addr_.path.empty()) {
        ::unlink(addr_.path.c_str());
    }
}

void ListenSocket::release() {
    if (fd_ < 0) return;
    close();
    ::close(fd_);
    fd_ = -1;
}

void ignore_sigpipe() { ::signal(SIGPIPE, SIG_IGN); }

}  // namespace mvf::util
