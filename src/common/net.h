#ifndef CMP_COMMON_NET_H_
#define CMP_COMMON_NET_H_

#include <cstddef>
#include <string>

#include "common/schema.h"

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

/// Longest number field a request needs: the longest form std::to_chars
/// writes for a double, e.g. "-2.2250738585072014e-308" (a sign, 17
/// significant digits, a point and a 5-byte exponent).
inline constexpr size_t kMaxFieldBytes = 24;

/// Room for a request line's verb, model name and separators.
inline constexpr size_t kMaxLineHeadBytes = 4096;

/// Longest line a LineReader accepts: a `predict` line whose
/// kMaxSchemaAttrs (2^20) fields are kMaxFieldBytes each plus a comma,
/// after the head: 4 KiB + 25 MiB. It bounds what one client can make
/// the daemon buffer.
inline constexpr size_t kMaxLineBytes =
    kMaxLineHeadBytes +
    static_cast<size_t>(kMaxSchemaAttrs) * (kMaxFieldBytes + 1);

/// Buffered newline-framed reader over a blocking socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// False on EOF or error with no complete line left, and on a line of
  /// more than kMaxLineBytes (see too_long()). Strips one trailing '\r'
  /// so CRLF clients work.
  bool ReadLine(std::string* out);

  /// True once ReadLine has met a line over the cap. The stream is then
  /// out of step, so every later ReadLine returns false.
  bool too_long() const { return too_long_; }

 private:
  int fd_;
  std::string buf_;
  size_t start_ = 0;  // first unread byte of buf_
  bool too_long_ = false;
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
