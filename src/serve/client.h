#ifndef CMP_SERVE_CLIENT_H_
#define CMP_SERVE_CLIENT_H_

#include <string>
#include <vector>

#include "common/net.h"

namespace cmp {

/// Minimal blocking client for the cmpserve line protocol, used by the
/// tests, the serve benchmark, and anyone scripting against a local
/// daemon. One connection per instance; not thread-safe (use one client
/// per thread).
class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  bool ConnectTcp(const std::string& host, int port, std::string* error);
  bool ConnectUnix(const std::string& path, std::string* error);
  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Sends one request line (newline appended).
  bool Send(const std::string& line);
  /// Receives one reply line (newline stripped). False on EOF/error.
  bool Recv(std::string* line);
  /// Send + single-line reply.
  bool Rpc(const std::string& line, std::string* reply);

  /// Convenience: `batch` exchange — sends the verb plus `rows`, reads
  /// one reply per row and the trailing "done" line. Returns false on
  /// transport failure; per-row replies (including "err ..." lines) land
  /// in `replies`.
  bool Batch(const std::string& model, const std::vector<std::string>& rows,
             std::vector<std::string>* replies);

 private:
  int fd_ = -1;
  LineReader reader_{-1};
};

}  // namespace cmp

#endif  // CMP_SERVE_CLIENT_H_
