// Minimal unix-domain stream sockets for the sweep service.
//
// The service speaks line-delimited JSON over a local AF_UNIX socket — no
// TLS, no name resolution, no portability layer, just a filesystem path as
// the rendezvous. This header wraps the raw fds in RAII (Socket owns one
// connection, Listener owns the listening fd AND the socket file, which it
// unlinks on destruction) and adds LineChannel, a buffered reader/writer
// that frames messages as LF-terminated lines with a hard line-length cap
// (a misbehaving peer cannot make the server buffer unbounded input).
// Writes use MSG_NOSIGNAL so a vanished client surfaces as a false return,
// never as SIGPIPE killing the daemon.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace ppsim::net {

/// One connected stream socket (RAII over the fd). Move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  void close() noexcept;

  /// Blocking write of the whole buffer; false on any error (including a
  /// peer that hung up — MSG_NOSIGNAL keeps SIGPIPE out of it).
  bool send_all(std::string_view data) noexcept;
  /// Blocking read of up to `len` bytes; returns bytes read, 0 on orderly
  /// shutdown, -1 on error. Retries EINTR internally.
  long recv_some(char* buf, std::size_t len) noexcept;

 private:
  int fd_ = -1;
};

/// Listening unix-domain socket bound to a filesystem path. The path is
/// unlinked on bind (stale socket files from a crashed daemon would
/// otherwise block restart) and again on destruction.
class Listener {
 public:
  /// Binds and listens on `path`; throws CheckFailure on failure (path too
  /// long for sockaddr_un, bind/listen errors).
  static Listener listen_on(const std::string& path, int backlog = 16);

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  /// Blocks for the next connection; an invalid Socket means the listener
  /// was closed (the daemon's shutdown path) or accept failed terminally.
  Socket accept() noexcept;

  /// Closes the listening fd, waking a blocked accept(). Idempotent.
  void close() noexcept;

  const std::string& path() const noexcept { return path_; }

 private:
  Listener(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  // Atomic because close() runs on the stopping thread while accept()
  // blocks on the serving one.
  std::atomic<int> fd_{-1};
  std::string path_;
};

/// Connects to a listening unix-domain socket; throws CheckFailure when the
/// daemon is not there.
Socket connect_to(const std::string& path);

/// LF-framed message channel over a Socket: one JSON document per line.
class LineChannel {
 public:
  /// `max_line` caps the bytes buffered while hunting for a LF; a longer
  /// line is a protocol violation and reads as end-of-stream.
  explicit LineChannel(Socket socket, std::size_t max_line = 1 << 20)
      : socket_(std::move(socket)), max_line_(max_line) {}

  /// Next line without its trailing LF (a final CR is stripped too, so a
  /// `nc`-driven session works); nullopt on EOF, error, or an over-long
  /// line.
  std::optional<std::string> read_line();

  /// Writes `line` plus LF; false when the peer is gone.
  bool write_line(std::string_view line);

  Socket& socket() noexcept { return socket_; }

 private:
  Socket socket_;
  std::size_t max_line_;
  std::string buffer_;
  bool broken_ = false;
};

}  // namespace ppsim::net
