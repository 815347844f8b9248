#ifndef CMP_SERVE_SERVER_H_
#define CMP_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/net.h"
#include "common/thread_pool.h"
#include "serve/batcher.h"
#include "serve/latency.h"
#include "serve/registry.h"

namespace cmp {

/// Daemon configuration.
struct ServeOptions {
  /// TCP listen address; loopback by default — cmpserve is a local
  /// sidecar, not an internet-facing service.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  /// When non-empty, listen on a UNIX-domain socket at this path
  /// instead of TCP.
  std::string unix_path;
  /// Size of the pool that splits a batch of more than 512 rows; 0 means
  /// hardware concurrency, 1 an inline pool. Each connection thread
  /// scores its own requests either way.
  int num_threads = 0;
  BatchPolicy batch;
};

/// The cmpserve daemon: accept loop, line protocol, and the wiring
/// between connections, the micro-batcher, and the model registry.
///
/// Protocol — newline-terminated requests, newline-terminated replies:
///
///   predict <model> <v0,v1,...>   one CSV row -> "ok <label>"
///   predictp <model> <row>        -> "ok <label> <p0> <p1> ..."
///   batch <model> <n>             then n row lines -> n replies,
///                                 then "done <n>"
///   swap <model> <path.cmpb>      load + publish -> "ok <model> v<N>"
///   stats                         -> "ok <json>"
///   quit                          -> "ok bye", daemon shuts down
///
/// Any failure answers "err <message>" without closing the connection
/// (malformed rows inside `batch` fail row-by-row). Rows are dense CSV
/// in schema attribute order; categorical attributes take their integer
/// code.
///
/// Threading: one OS thread per connection (blocking reads), which also
/// scores its own requests through the MicroBatcher; only a request of
/// more than 512 rows splits across the shared ThreadPool. `swap` is
/// safe at any time — see ModelRegistry for the RCU argument.
class ServeDaemon {
 public:
  explicit ServeDaemon(ServeOptions opts);
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Binds, listens, and starts the accept thread. False + *error on
  /// any socket failure (the daemon is then inert; Shutdown is safe).
  bool Start(std::string* error);

  /// Actual TCP port after Start (resolves port 0).
  int port() const { return port_; }
  const ServeOptions& options() const { return opts_; }

  ModelRegistry& registry() { return registry_; }
  ServeStats& stats() { return stats_; }
  MicroBatcher& batcher() { return *batcher_; }
  ThreadPool& pool() { return pool_; }

  /// Flags the daemon for shutdown (e.g. from a `quit` handler or a
  /// signal-watching loop) without blocking; Wait()/WaitFor() callers
  /// wake up and run Shutdown.
  void RequestShutdown();

  /// Waits up to `timeout_ms` for a shutdown request; true when one
  /// arrived. A loop around this is the signal-safe main-thread idiom.
  bool WaitFor(int timeout_ms);

  /// Blocks until RequestShutdown, then tears the daemon down.
  void Wait();

  /// Stops accepting, unblocks and joins every connection, stops the
  /// batcher once it has scored every row it accepted. Idempotent; must not be called from a connection thread
  /// (it joins them) — connection handlers use RequestShutdown.
  void Shutdown();

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  /// Handles one request line; false means close the connection.
  /// `reader` is the connection's framing buffer — verbs that consume
  /// further lines (batch) must read through it, not the raw fd.
  bool HandleLine(int fd, LineReader* reader, const std::string& line);
  bool HandlePredict(int fd, const std::string& rest, bool want_probs);
  bool HandleBatch(int fd, LineReader* reader, const std::string& rest);
  /// Sends a whole newline-terminated reply in one write, timed into the
  /// reply_write stage.
  bool WriteReply(int fd, const std::string& reply);
  void TrackConnection(int fd);
  void UntrackConnection(int fd);

  ServeOptions opts_;
  ServeStats stats_;
  ThreadPool pool_;
  ModelRegistry registry_;
  std::unique_ptr<MicroBatcher> batcher_;

  int listen_fd_ = -1;
  int port_ = 0;
  bool bound_unix_ = false;
  std::thread accept_thread_;

  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<int> conn_fds_;

  std::atomic<bool> stopping_{false};
  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool shut_down_ = false;
};

}  // namespace cmp

#endif  // CMP_SERVE_SERVER_H_
