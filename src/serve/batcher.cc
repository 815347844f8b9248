#include "serve/batcher.h"

#include <algorithm>
#include <utility>

namespace cmp {

MicroBatcher::MicroBatcher(ThreadPool* /*pool*/, BatchPolicy policy,
                           ServeStats* stats)
    : policy_{std::max(1, policy.max_rows)}, stats_(stats) {}

MicroBatcher::~MicroBatcher() { Stop(); }

std::future<RowReply> MicroBatcher::Submit(
    std::shared_ptr<const ServedModel> model, std::vector<double> numeric,
    std::vector<int32_t> categorical, bool want_probs) {
  const RowValues row{std::move(numeric), std::move(categorical)};
  return std::move(Score(*model, std::span(&row, 1), want_probs)[0]);
}

std::vector<std::future<RowReply>> MicroBatcher::SubmitMany(
    std::shared_ptr<const ServedModel> model, std::vector<RowValues> rows,
    bool want_probs) {
  return Score(*model, rows, want_probs);
}

std::vector<std::future<RowReply>> MicroBatcher::Score(
    const ServedModel& model, std::span<const RowValues> rows,
    bool want_probs) {
  const auto enqueued = std::chrono::steady_clock::now();
  std::vector<std::promise<RowReply>> promises(rows.size());
  std::vector<std::future<RowReply>> futures;
  futures.reserve(rows.size());
  for (std::promise<RowReply>& promise : promises) {
    futures.push_back(promise.get_future());
  }
  if (rows.empty()) return futures;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      for (std::promise<RowReply>& promise : promises) {
        RowReply reply;
        reply.error = "server shutting down";
        promise.set_value(std::move(reply));
      }
      return futures;
    }
    ++in_flight_;
  }
  if (stats_ != nullptr) {
    stats_->AddQueueDepth(static_cast<int64_t>(rows.size()));
  }
  // Stop waits for in_flight_, so it drops to zero even when a batch
  // throws.
  struct Release {
    MicroBatcher* self;
    ~Release() {
      std::lock_guard<std::mutex> lock(self->mu_);
      if (--self->in_flight_ == 0 && self->stopping_) self->idle_.notify_all();
    }
  } release{this};
  const size_t cap = static_cast<size_t>(policy_.max_rows);
  for (size_t begin = 0; begin < rows.size(); begin += cap) {
    const size_t n = std::min(cap, rows.size() - begin);
    RunBatch(model, rows.subspan(begin, n),
             std::span(promises).subspan(begin, n), want_probs, enqueued);
  }
  return futures;
}

void MicroBatcher::RunBatch(const ServedModel& model,
                            std::span<const RowValues> rows,
                            std::span<std::promise<RowReply>> promises,
                            bool want_probs,
                            std::chrono::steady_clock::time_point enqueued)
    const {
  const auto started = std::chrono::steady_clock::now();
  const int32_t na = model.schema().num_attrs();
  const int32_t nc = model.num_classes();
  const int64_t n = static_cast<int64_t>(rows.size());
  // One row-major -> SoA transpose per batch: the rows are scattered
  // attr-major into column buffers, and the predictor descends the
  // columns directly (vector kernel tiers included) with no further
  // copies.
  std::vector<double> numeric(static_cast<size_t>(n) * na);
  std::vector<int32_t> categorical;
  const bool any_cat =
      std::any_of(rows.begin(), rows.end(), [](const RowValues& row) {
        return !row.categorical.empty();
      });
  if (any_cat) categorical.assign(static_cast<size_t>(n) * na, -1);
  for (int64_t r = 0; r < n; ++r) {
    const RowValues& row = rows[r];
    for (int32_t a = 0; a < na; ++a) {
      numeric[static_cast<size_t>(a) * n + r] = row.numeric[a];
    }
    if (!row.categorical.empty()) {
      for (int32_t a = 0; a < na; ++a) {
        categorical[static_cast<size_t>(a) * n + r] = row.categorical[a];
      }
    }
  }
  std::vector<const double*> numeric_cols(na);
  std::vector<const int32_t*> cat_cols(any_cat ? na : 0);
  for (int32_t a = 0; a < na; ++a) {
    numeric_cols[a] = numeric.data() + static_cast<size_t>(a) * n;
    if (any_cat) cat_cols[a] = categorical.data() + static_cast<size_t>(a) * n;
  }
  const BatchResult result = model.PredictColumns(
      numeric_cols.data(), any_cat ? cat_cols.data() : nullptr, n);
  const auto done = std::chrono::steady_clock::now();
  // Account before fulfilling: a client that pipelines `stats` behind
  // its own reply must see counters that already include its rows.
  if (stats_ != nullptr) {
    const int64_t wait_ns = NanosBetween(enqueued, started);
    const int64_t latency_ns = NanosBetween(enqueued, done);
    for (int64_t r = 0; r < n; ++r) {
      stats_->stages().queue_wait.Record(wait_ns);
      stats_->request_latency().Record(latency_ns);
    }
    stats_->stages().score.Record(NanosBetween(started, done));
    stats_->AddRows(static_cast<uint64_t>(n));
    stats_->AddBatch();
    stats_->AddQueueDepth(-n);
  }
  for (int64_t r = 0; r < n; ++r) {
    RowReply reply;
    reply.ok = true;
    reply.label = result.labels[r];
    reply.model_version = model.version();
    if (want_probs && !result.probs.empty()) {
      reply.probs.assign(result.probs.begin() + r * nc,
                         result.probs.begin() + (r + 1) * nc);
    }
    promises[r].set_value(std::move(reply));
  }
}

void MicroBatcher::Stop() {
  std::unique_lock<std::mutex> lock(mu_);
  stopping_ = true;
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

}  // namespace cmp
