#include "serve/batcher.h"

#include <algorithm>
#include <map>
#include <utility>

namespace cmp {

MicroBatcher::MicroBatcher(ThreadPool* pool, BatchPolicy policy,
                           ServeStats* stats)
    : pool_(pool), policy_(policy), stats_(stats) {
  flusher_ = std::thread([this] { FlusherLoop(); });
}

MicroBatcher::~MicroBatcher() { Stop(); }

std::future<RowReply> MicroBatcher::Submit(
    std::shared_ptr<const ServedModel> model, std::vector<double> numeric,
    std::vector<int32_t> categorical, bool want_probs) {
  Request req;
  req.model = std::move(model);
  req.numeric = std::move(numeric);
  req.categorical = std::move(categorical);
  req.want_probs = want_probs;
  req.enqueued = std::chrono::steady_clock::now();
  std::future<RowReply> fut = req.promise.get_future();

  std::vector<Request> full;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      RowReply reply;
      reply.error = "server shutting down";
      req.promise.set_value(std::move(reply));
      return fut;
    }
    pending_.push_back(std::move(req));
    if (stats_ != nullptr) stats_->AddQueueDepth(1);
    if (static_cast<int>(pending_.size()) >= policy_.max_rows) {
      full.swap(pending_);
    } else if (pending_.size() == 1) {
      // First row of a fresh batch: arm the flusher's deadline.
      cv_.notify_one();
    }
  }
  if (!full.empty()) Dispatch(std::move(full), /*inline_run=*/false);
  return fut;
}

void MicroBatcher::Flush() {
  std::vector<Request> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch.swap(pending_);
  }
  Dispatch(std::move(batch), /*inline_run=*/false);
}

void MicroBatcher::FlusherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
    if (stopping_) return;
    const auto deadline =
        pending_.front().enqueued + std::chrono::microseconds(policy_.max_delay_us);
    // Sleep until the oldest row's deadline; Submit may flush a full
    // batch out from under us in the meantime, which just re-arms us.
    cv_.wait_until(lock, deadline, [this, deadline] {
      return stopping_ || pending_.empty() ||
             pending_.front().enqueued +
                     std::chrono::microseconds(policy_.max_delay_us) !=
                 deadline;
    });
    if (stopping_) return;
    if (pending_.empty()) continue;
    if (std::chrono::steady_clock::now() < deadline &&
        static_cast<int>(pending_.size()) < policy_.max_rows) {
      continue;  // woken early (new first row); re-evaluate
    }
    std::vector<Request> batch;
    batch.swap(pending_);
    lock.unlock();
    Dispatch(std::move(batch), /*inline_run=*/false);
    lock.lock();
  }
}

void MicroBatcher::Dispatch(std::vector<Request> batch, bool inline_run) {
  if (batch.empty()) return;
  if (inline_run || pool_ == nullptr || pool_->num_threads() == 0) {
    RunBatch(&batch);
    return;
  }
  auto shared = std::make_shared<std::vector<Request>>(std::move(batch));
  pool_->Submit([this, shared] { RunBatch(shared.get()); });
}

void MicroBatcher::RunBatch(std::vector<Request>* batch) const {
  const auto started = std::chrono::steady_clock::now();
  // Group row indices by model instance (pointer identity: two versions
  // of one name are distinct groups, which is exactly what a mid-queue
  // swap requires).
  std::map<const ServedModel*, std::vector<size_t>> groups;
  for (size_t i = 0; i < batch->size(); ++i) {
    groups[(*batch)[i].model.get()].push_back(i);
    if (stats_ != nullptr) {
      stats_->stages().queue_wait.Record(
          NanosBetween((*batch)[i].enqueued, started));
    }
  }

  for (auto& [model, rows] : groups) {
    const auto group_start = std::chrono::steady_clock::now();
    const int32_t na = model->schema().num_attrs();
    const int32_t nc = model->num_classes();
    const int64_t n = static_cast<int64_t>(rows.size());
    // One row-major -> SoA transpose per flushed batch: the group's rows
    // are scattered attr-major into column buffers as they are gathered
    // from the requests, and the predictor descends the columns directly
    // (vector kernel tiers included) with no further copies.
    std::vector<double> numeric(static_cast<size_t>(n) * na);
    std::vector<int32_t> categorical;
    bool any_cat = false;
    for (int64_t r = 0; r < n && !any_cat; ++r) {
      any_cat = !(*batch)[rows[r]].categorical.empty();
    }
    if (any_cat) categorical.assign(static_cast<size_t>(n) * na, -1);
    for (int64_t r = 0; r < n; ++r) {
      const Request& req = (*batch)[rows[r]];
      for (int32_t a = 0; a < na; ++a) {
        numeric[static_cast<size_t>(a) * n + r] = req.numeric[a];
      }
      if (!req.categorical.empty()) {
        for (int32_t a = 0; a < na; ++a) {
          categorical[static_cast<size_t>(a) * n + r] = req.categorical[a];
        }
      }
    }
    std::vector<const double*> numeric_cols(na);
    std::vector<const int32_t*> cat_cols(any_cat ? na : 0);
    for (int32_t a = 0; a < na; ++a) {
      numeric_cols[a] = numeric.data() + static_cast<size_t>(a) * n;
      if (any_cat) cat_cols[a] = categorical.data() + static_cast<size_t>(a) * n;
    }
    const BatchResult result = model->PredictColumns(
        numeric_cols.data(), any_cat ? cat_cols.data() : nullptr, n);
    const auto done = std::chrono::steady_clock::now();
    // Account before fulfilling: a client that pipelines `stats` behind
    // its own reply must see counters that already include its rows.
    if (stats_ != nullptr) {
      stats_->stages().score.Record(NanosBetween(group_start, done));
      stats_->AddRows(static_cast<uint64_t>(n));
      stats_->AddBatch();
      stats_->AddQueueDepth(-n);
    }
    for (int64_t r = 0; r < n; ++r) {
      Request& req = (*batch)[rows[r]];
      RowReply reply;
      reply.ok = true;
      reply.label = result.labels[r];
      reply.model_version = model->version();
      if (req.want_probs && !result.probs.empty()) {
        reply.probs.assign(result.probs.begin() + r * nc,
                           result.probs.begin() + (r + 1) * nc);
      }
      if (stats_ != nullptr) {
        stats_->request_latency().Record(NanosBetween(req.enqueued, done));
      }
      req.promise.set_value(std::move(reply));
    }
  }
}

void MicroBatcher::Stop() {
  std::vector<Request> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    leftovers.swap(pending_);
  }
  cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  // Score what was already accepted so no submitted future dangles.
  Dispatch(std::move(leftovers), /*inline_run=*/true);
}

}  // namespace cmp
