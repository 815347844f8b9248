#include "serve/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/format_number.h"
#include "common/net.h"
#include "common/parse_number.h"

namespace cmp {

namespace {

/// Parses one dense CSV row against `schema` into per-attribute slots.
/// A numeric field must be one real number (ParseRealNumber: no sign but
/// '-', no spaces, no hex, not NaN), a categorical field a whole-number
/// code in [0, cardinality).
bool ParseRow(const Schema& schema, std::string_view text,
              std::vector<double>* numeric, std::vector<int32_t>* categorical,
              std::string* error) {
  const int32_t na = schema.num_attrs();
  numeric->assign(static_cast<size_t>(na), 0.0);
  categorical->assign(static_cast<size_t>(na), -1);
  size_t pos = 0;
  for (int32_t a = 0; a < na; ++a) {
    const size_t comma = text.find(',', pos);
    const bool last = a == na - 1;
    if (!last && comma == std::string_view::npos) {
      *error = "expected " + std::to_string(na) + " fields";
      return false;
    }
    const size_t end = comma == std::string_view::npos ? text.size() : comma;
    const std::string_view field(text.data() + pos, end - pos);
    if (field.empty()) {
      *error = "empty field " + std::to_string(a);
      return false;
    }
    bool ok = false;
    if (schema.is_numeric(a)) {
      ok = ParseRealNumber(field, &(*numeric)[a]);
    } else {
      int64_t code = 0;
      ok = ParseWholeNumber(field, 0, schema.attr(a).cardinality - 1, &code);
      (*categorical)[a] = static_cast<int32_t>(code);
    }
    if (!ok) {
      *error = "bad value '" + std::string(field) + "' for attribute " +
               schema.attr(a).name;
      return false;
    }
    if (last) {
      if (comma != std::string_view::npos) {
        *error = "expected " + std::to_string(na) + " fields";
        return false;
      }
      return true;
    }
    pos = comma + 1;
  }
  *error = "model has no attributes";
  return false;
}

/// ParseRow, timed into `hist`.
bool TimedParseRow(const Schema& schema, std::string_view text,
                   std::vector<double>* numeric,
                   std::vector<int32_t>* categorical, std::string* error,
                   LatencyHistogram* hist) {
  const auto start = std::chrono::steady_clock::now();
  const bool ok = ParseRow(schema, text, numeric, categorical, error);
  hist->Record(NanosBetween(start, std::chrono::steady_clock::now()));
  return ok;
}

/// Appends the reply line for one row, without its newline.
void AppendReply(const Schema& schema, const RowReply& reply,
                 bool want_probs, std::string* out) {
  if (!reply.ok) {
    *out += "err ";
    *out += reply.error;
    return;
  }
  *out += "ok ";
  if (reply.label == kInvalidClass) {
    *out += '?';
  } else if (reply.label < schema.num_classes()) {
    *out += schema.class_name(reply.label);
  } else {
    *out += "class";
    *out += std::to_string(reply.label);
  }
  if (want_probs) {
    for (const float p : reply.probs) {
      *out += ' ';
      AppendFloat(p, out);
    }
  }
}

}  // namespace

ServeDaemon::ServeDaemon(ServeOptions opts)
    : opts_(std::move(opts)),
      pool_(opts_.num_threads),
      registry_(&pool_),
      batcher_(std::make_unique<MicroBatcher>(&pool_, opts_.batch, &stats_)) {
  stats_.SetBatchCapacity(opts_.batch.max_rows);
}

ServeDaemon::~ServeDaemon() { Shutdown(); }

bool ServeDaemon::Start(std::string* error) {
  if (!opts_.unix_path.empty()) {
    listen_fd_ = ListenUnix(opts_.unix_path, error);
    if (listen_fd_ < 0) return false;
    bound_unix_ = true;
  } else {
    listen_fd_ = ListenTcp(opts_.host, opts_.port, &port_, error);
    if (listen_fd_ < 0) return false;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void ServeDaemon::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by Shutdown
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    SetNoDelay(fd);
    stats_.AddConnection();
    TrackConnection(fd);
    std::lock_guard<std::mutex> lock(conn_mu_);
    conn_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void ServeDaemon::TrackConnection(int fd) {
  std::lock_guard<std::mutex> lock(conn_mu_);
  conn_fds_.push_back(fd);
}

void ServeDaemon::UntrackConnection(int fd) {
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (size_t i = 0; i < conn_fds_.size(); ++i) {
    if (conn_fds_[i] == fd) {
      conn_fds_.erase(conn_fds_.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
}

void ServeDaemon::ServeConnection(int fd) {
  LineReader reader(fd);
  std::string line;
  while (!stopping_.load(std::memory_order_acquire) && reader.ReadLine(&line)) {
    if (line.empty()) continue;
    if (!HandleLine(fd, &reader, line)) break;
  }
  if (reader.too_long()) {
    // The next request starts after a newline that may never come, so
    // the connection cannot stay in step: answer and close it.
    stats_.AddProtocolError();
    SendLine(fd, "err line too long");
  }
  UntrackConnection(fd);
  ::close(fd);
}

bool ServeDaemon::HandleLine(int fd, LineReader* reader,
                             const std::string& line) {
  const size_t sp = line.find(' ');
  const std::string verb = line.substr(0, sp);
  const std::string rest = sp == std::string::npos ? "" : line.substr(sp + 1);

  if (verb == "predict") return HandlePredict(fd, rest, /*want_probs=*/false);
  if (verb == "predictp") return HandlePredict(fd, rest, /*want_probs=*/true);
  if (verb == "batch") return HandleBatch(fd, reader, rest);
  if (verb == "stats") return SendLine(fd, "ok " + stats_.ToJson());
  if (verb == "swap") {
    const size_t sp2 = rest.find(' ');
    if (sp2 == std::string::npos) {
      stats_.AddProtocolError();
      return SendLine(fd, "err usage: swap <model> <path.cmpb>");
    }
    const std::string name = rest.substr(0, sp2);
    const std::string path = rest.substr(sp2 + 1);
    std::string error;
    const uint64_t version = registry_.PublishFromFile(name, path, &error);
    if (version == 0) return SendLine(fd, "err " + error);
    stats_.AddSwap();
    return SendLine(fd, "ok " + name + " v" + std::to_string(version));
  }
  if (verb == "quit") {
    SendLine(fd, "ok bye");
    RequestShutdown();
    return false;
  }
  stats_.AddProtocolError();
  return SendLine(fd, "err unknown verb '" + verb + "'");
}

bool ServeDaemon::HandlePredict(int fd, const std::string& rest,
                                bool want_probs) {
  const size_t sp = rest.find(' ');
  if (sp == std::string::npos) {
    stats_.AddProtocolError();
    return SendLine(fd, "err usage: predict <model> <csv-row>");
  }
  const std::string name = rest.substr(0, sp);
  const std::shared_ptr<const ServedModel> model = registry_.Get(name);
  if (model == nullptr) {
    stats_.AddProtocolError();
    return SendLine(fd, "err unknown model '" + name + "'");
  }
  std::vector<double> numeric;
  std::vector<int32_t> categorical;
  std::string error;
  if (!TimedParseRow(model->schema(), std::string_view(rest).substr(sp + 1),
                     &numeric, &categorical, &error, &stats_.stages().parse)) {
    stats_.AddProtocolError();
    return SendLine(fd, "err " + error);
  }
  stats_.AddRequests(1);
  const Schema& schema = model->schema();
  std::future<RowReply> fut = batcher_->Submit(
      std::move(model), std::move(numeric), std::move(categorical),
      want_probs);
  std::string out;
  AppendReply(schema, fut.get(), want_probs, &out);
  out += '\n';
  return WriteReply(fd, out);
}

bool ServeDaemon::WriteReply(int fd, const std::string& reply) {
  const auto start = std::chrono::steady_clock::now();
  const bool ok = SendAll(fd, reply);
  stats_.stages().reply_write.Record(
      NanosBetween(start, std::chrono::steady_clock::now()));
  return ok;
}

bool ServeDaemon::HandleBatch(int fd, LineReader* reader,
                              const std::string& rest) {
  const size_t sp = rest.find(' ');
  const std::string name = rest.substr(0, sp);
  int64_t n = 0;
  if (name.empty() || sp == std::string::npos ||
      !ParseWholeNumber(std::string_view(rest).substr(sp + 1), 0, 1 << 20,
                        &n)) {
    stats_.AddProtocolError();
    return SendLine(fd, "err usage: batch <model> <num-rows>");
  }
  // Every multi-line reply below goes out as one buffer in one write:
  // line-by-line sends would leave all but the first line waiting under
  // Nagle for the client's delayed ACK.
  std::string out;
  const std::shared_ptr<const ServedModel> model = registry_.Get(name);
  if (model == nullptr) {
    // The client has likely pipelined n row lines behind the verb;
    // consume them so they are not misread as requests, and keep the
    // reply shape (n row replies + done) invariant.
    stats_.AddProtocolError();
    const std::string err = "err unknown model '" + name + "'\n";
    std::string discard;
    for (int64_t i = 0; i < n; ++i) {
      if (!reader->ReadLine(&discard)) return false;
      out += err;
    }
    out += "done 0\n";
    return SendAll(fd, out);
  }
  const Schema& schema = model->schema();

  // Read and parse every row, then enqueue them all in one call, so the
  // batcher never splits the request into a lone first row plus the
  // rest. The connection's reader is shared so rows the client
  // pipelined behind the verb line are not stranded in its buffer.
  const size_t count = static_cast<size_t>(n);
  std::vector<RowValues> rows;
  rows.reserve(count);
  std::vector<std::string> parse_errors(count);
  std::string row;
  for (size_t i = 0; i < count; ++i) {
    if (!reader->ReadLine(&row)) {
      if (!reader->too_long()) {
        SendLine(fd, "err short batch: got " + std::to_string(i) + " of " +
                         std::to_string(n) + " rows");
      }
      return false;
    }
    RowValues values;
    if (!TimedParseRow(schema, row, &values.numeric, &values.categorical,
                       &parse_errors[i], &stats_.stages().parse)) {
      continue;
    }
    rows.push_back(std::move(values));
  }
  std::vector<std::future<RowReply>> futures =
      batcher_->SubmitMany(model, std::move(rows), /*want_probs=*/false);
  stats_.AddRequests(count);

  // Futures are in the order of the rows that parsed; a row that failed
  // keeps its reply position with its error.
  size_t next = 0;
  for (size_t i = 0; i < count; ++i) {
    if (!parse_errors[i].empty()) {
      out += "err " + parse_errors[i];
    } else {
      AppendReply(schema, futures[next++].get(), /*want_probs=*/false, &out);
    }
    out += '\n';
  }
  out += "done " + std::to_string(next) + "\n";
  return WriteReply(fd, out);
}

void ServeDaemon::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

bool ServeDaemon::WaitFor(int timeout_ms) {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  return shutdown_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                               [this] { return shutdown_requested_; });
}

void ServeDaemon::Wait() {
  {
    std::unique_lock<std::mutex> lock(shutdown_mu_);
    shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
  }
  Shutdown();
}

void ServeDaemon::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
  stopping_.store(true, std::memory_order_release);

  if (listen_fd_ >= 0) {
    // shutdown() unblocks a blocked accept(); close alone may not.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;

  // Unblock connection threads parked in recv, then join them.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }

  batcher_->Stop();
  if (bound_unix_) ::unlink(opts_.unix_path.c_str());
}

}  // namespace cmp
