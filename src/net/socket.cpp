#include "ppsim/net/socket.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "ppsim/util/check.hpp"

namespace ppsim::net {

namespace {

/// Fills a sockaddr_un for `path`, rejecting paths that don't fit — a
/// truncated path would bind somewhere the client never looks.
sockaddr_un make_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  PPSIM_CHECK(path.size() < sizeof(addr.sun_path),
              "unix socket path too long (" + std::to_string(path.size()) +
                  " bytes): " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Socket::send_all(std::string_view data) noexcept {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t sent = ::send(fd_, p, left, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += sent;
    left -= static_cast<std::size_t>(sent);
  }
  return true;
}

long Socket::recv_some(char* buf, std::size_t len) noexcept {
  while (true) {
    const ssize_t got = ::recv(fd_, buf, len, 0);
    if (got < 0 && errno == EINTR) continue;
    return static_cast<long>(got);
  }
}

Listener Listener::listen_on(const std::string& path, int backlog) {
  const sockaddr_un addr = make_address(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  PPSIM_CHECK(fd >= 0, std::string("socket(): ") + std::strerror(errno));
  ::unlink(path.c_str());  // clear a stale socket file from a dead daemon
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    PPSIM_CHECK(false, "bind(" + path + "): " + std::strerror(err));
  }
  if (::listen(fd, backlog) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(path.c_str());
    PPSIM_CHECK(false, "listen(" + path + "): " + std::strerror(err));
  }
  return Listener(fd, path);
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_.exchange(-1)), path_(std::move(other.path_)) {
  other.path_.clear();
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    if (!path_.empty()) ::unlink(path_.c_str());
    fd_ = other.fd_.exchange(-1);
    path_ = std::move(other.path_);
    other.path_.clear();
  }
  return *this;
}

Listener::~Listener() {
  close();
  if (!path_.empty()) ::unlink(path_.c_str());
}

Socket Listener::accept() noexcept {
  while (true) {
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) return Socket(client);
    if (errno == EINTR) continue;
    return Socket();
  }
}

void Listener::close() noexcept {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() wakes a thread blocked in accept(); close alone may not.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

Socket connect_to(const std::string& path) {
  const sockaddr_un addr = make_address(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  PPSIM_CHECK(fd >= 0, std::string("socket(): ") + std::strerror(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(fd);
    PPSIM_CHECK(false, "connect(" + path + "): " + std::strerror(err));
  }
  return Socket(fd);
}

std::optional<std::string> LineChannel::read_line() {
  if (broken_) return std::nullopt;
  while (true) {
    const std::size_t lf = buffer_.find('\n');
    if (lf != std::string::npos) {
      std::string line = buffer_.substr(0, lf);
      buffer_.erase(0, lf + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    if (buffer_.size() > max_line_) {
      broken_ = true;  // over-long line: drop the peer, don't buffer forever
      return std::nullopt;
    }
    char chunk[4096];
    const long got = socket_.recv_some(chunk, sizeof chunk);
    if (got <= 0) {
      broken_ = true;
      return std::nullopt;
    }
    buffer_.append(chunk, static_cast<std::size_t>(got));
  }
}

bool LineChannel::write_line(std::string_view line) {
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line);
  framed.push_back('\n');
  return socket_.send_all(framed);
}

}  // namespace ppsim::net
