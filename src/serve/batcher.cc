#include "serve/batcher.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <span>
#include <utility>

namespace cmp {

MicroBatcher::MicroBatcher(ThreadPool* pool, BatchPolicy policy,
                           ServeStats* stats)
    : pool_(pool),
      policy_{std::max(1, policy.max_rows)},
      stats_(stats),
      slots_(pool == nullptr ? 0 : pool->num_threads()) {}

MicroBatcher::~MicroBatcher() { Stop(); }

std::future<RowReply> MicroBatcher::Submit(
    std::shared_ptr<const ServedModel> model, std::vector<double> numeric,
    std::vector<int32_t> categorical, bool want_probs) {
  std::vector<Request> requests(1);
  requests[0].model = std::move(model);
  requests[0].values.numeric = std::move(numeric);
  requests[0].values.categorical = std::move(categorical);
  requests[0].want_probs = want_probs;
  return std::move(Enqueue(std::move(requests))[0]);
}

std::vector<std::future<RowReply>> MicroBatcher::SubmitMany(
    std::shared_ptr<const ServedModel> model, std::vector<RowValues> rows,
    bool want_probs) {
  std::vector<Request> requests(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    requests[i].model = model;
    requests[i].values = std::move(rows[i]);
    requests[i].want_probs = want_probs;
  }
  return Enqueue(std::move(requests));
}

std::vector<std::future<RowReply>> MicroBatcher::Enqueue(
    std::vector<Request> requests) {
  std::vector<std::future<RowReply>> futures;
  futures.reserve(requests.size());
  const auto now = std::chrono::steady_clock::now();
  for (Request& req : requests) {
    req.enqueued = now;
    futures.push_back(req.promise.get_future());
  }
  if (requests.empty()) return futures;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      for (Request& req : requests) {
        RowReply reply;
        reply.error = "server shutting down";
        req.promise.set_value(std::move(reply));
      }
      return futures;
    }
    if (stats_ != nullptr) {
      stats_->AddQueueDepth(static_cast<int64_t>(requests.size()));
    }
    if (slots_ > 0) {
      if (pending_.empty()) {
        pending_ = std::move(requests);
      } else {
        pending_.insert(pending_.end(),
                        std::make_move_iterator(requests.begin()),
                        std::make_move_iterator(requests.end()));
      }
      StartScorersLocked();
      return futures;
    }
    ++in_flight_;
  }
  ScoreInline(std::move(requests));
  return futures;
}

void MicroBatcher::ScoreInline(std::vector<Request> batch) {
  const size_t cap = static_cast<size_t>(policy_.max_rows);
  try {
    for (size_t begin = 0; begin < batch.size(); begin += cap) {
      RunBatch(std::span<Request>(batch).subspan(
          begin, std::min(cap, batch.size() - begin)));
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    ReleaseSlotLocked();
    throw;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ReleaseSlotLocked();
}

void MicroBatcher::Drain(std::vector<Request> batch) {
  for (;;) {
    try {
      RunBatch(batch);
    } catch (...) {
      // A throwing batch still gives its slot back, and rows that
      // pended meanwhile go to a fresh scorer instead of being stranded.
      std::lock_guard<std::mutex> lock(mu_);
      ReleaseSlotLocked();
      StartScorersLocked();
      throw;
    }
    batch.clear();  // free the scored rows outside the lock
    std::lock_guard<std::mutex> lock(mu_);
    batch = TakePendingLocked();
    if (batch.empty()) {
      // Released in the critical section that found nothing pending, so
      // no row can pend in between and be left without a scorer.
      ReleaseSlotLocked();
      return;
    }
  }
}

void MicroBatcher::StartScorersLocked() {
  while (in_flight_ < slots_ && !pending_.empty()) {
    ++in_flight_;
    // std::function needs a copyable callable, hence the shared_ptr.
    auto batch = std::make_shared<std::vector<Request>>(TakePendingLocked());
    pool_->Submit([this, batch] { Drain(std::move(*batch)); });
  }
}

std::vector<MicroBatcher::Request> MicroBatcher::TakePendingLocked() {
  std::vector<Request> batch;
  const size_t cap = static_cast<size_t>(policy_.max_rows);
  if (pending_.size() <= cap) {
    batch.swap(pending_);
    return batch;
  }
  const auto split = pending_.begin() + static_cast<ptrdiff_t>(cap);
  batch.assign(std::make_move_iterator(pending_.begin()),
               std::make_move_iterator(split));
  pending_.erase(pending_.begin(), split);
  return batch;
}

void MicroBatcher::ReleaseSlotLocked() {
  --in_flight_;
  if (stopping_ && in_flight_ == 0) idle_.notify_all();
}

void MicroBatcher::RunBatch(std::span<Request> batch) const {
  const auto started = std::chrono::steady_clock::now();
  // Group row indices by model instance (pointer identity: two versions
  // of one name are distinct groups, which is exactly what a mid-queue
  // swap requires).
  std::map<const ServedModel*, std::vector<size_t>> groups;
  for (size_t i = 0; i < batch.size(); ++i) {
    groups[batch[i].model.get()].push_back(i);
    if (stats_ != nullptr) {
      stats_->stages().queue_wait.Record(
          NanosBetween(batch[i].enqueued, started));
    }
  }

  for (auto& [model, rows] : groups) {
    const auto group_start = std::chrono::steady_clock::now();
    const int32_t na = model->schema().num_attrs();
    const int32_t nc = model->num_classes();
    const int64_t n = static_cast<int64_t>(rows.size());
    // One row-major -> SoA transpose per batch: the group's rows are
    // scattered attr-major into column buffers as they are gathered
    // from the requests, and the predictor descends the columns directly
    // (vector kernel tiers included) with no further copies.
    std::vector<double> numeric(static_cast<size_t>(n) * na);
    std::vector<int32_t> categorical;
    bool any_cat = false;
    for (int64_t r = 0; r < n && !any_cat; ++r) {
      any_cat = !batch[rows[r]].values.categorical.empty();
    }
    if (any_cat) categorical.assign(static_cast<size_t>(n) * na, -1);
    for (int64_t r = 0; r < n; ++r) {
      const RowValues& row = batch[rows[r]].values;
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
      Request& req = batch[rows[r]];
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
  std::unique_lock<std::mutex> lock(mu_);
  stopping_ = true;
  idle_.wait(lock, [this] { return in_flight_ == 0 && pending_.empty(); });
}

}  // namespace cmp
