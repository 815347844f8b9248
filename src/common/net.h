#ifndef CMP_COMMON_NET_H_
#define CMP_COMMON_NET_H_

#include <cstddef>
#include <string>

namespace cmp {

/// Shared POSIX socket helpers for the serving daemon (serve/server.cc),
/// its client (serve/client.cc) and the cmpserve front end.
/// All of them speak over blocking stream sockets and need the same
/// four things: ride out EINTR, survive partial reads/writes, never die
/// on SIGPIPE, and hand a listening socket back with its resolved port.

/// Writes the whole buffer, riding out EINTR and partial sends.
/// MSG_NOSIGNAL turns a peer hangup into an error return instead of a
/// process-killing SIGPIPE.
bool SendAll(int fd, const void* data, size_t size);
bool SendAll(int fd, const std::string& data);

/// SendAll of `line` plus a trailing newline.
bool SendLine(int fd, const std::string& line);

/// Buffered newline-framed reader over a blocking socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// False on EOF or error with no complete line left. Strips one
  /// trailing '\r' so CRLF clients work.
  bool ReadLine(std::string* out);

 private:
  int fd_;
  std::string buf_;
};

/// Sets TCP_NODELAY so small replies leave at once instead of waiting
/// under Nagle's algorithm for the peer's (delayed) ACK. A no-op on
/// sockets without Nagle, such as AF_UNIX.
void SetNoDelay(int fd);

/// Binds and listens on host:port (SO_REUSEADDR; port 0 binds an
/// ephemeral port). On success returns the fd and stores the resolved
/// port in *bound_port. On failure returns -1 with *error set.
int ListenTcp(const std::string& host, int port, int* bound_port,
              std::string* error);

/// Binds and listens on a UNIX-domain socket at `path`, unlinking any
/// stale socket first. Returns the fd, or -1 with *error set.
int ListenUnix(const std::string& path, std::string* error);

/// Writes "port\n" to `path` (truncating). Written after listen() so a
/// reader of the file can connect immediately — the race-free startup
/// handshake for scripts and e2e tests.
bool WritePortFile(const std::string& path, int port);

}  // namespace cmp

#endif  // CMP_COMMON_NET_H_
