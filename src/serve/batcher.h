#ifndef CMP_SERVE_BATCHER_H_
#define CMP_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "common/types.h"
#include "serve/latency.h"
#include "serve/registry.h"

namespace cmp {

/// Outcome of one served row.
struct RowReply {
  bool ok = false;
  std::string error;           // set when !ok
  ClassId label = kInvalidClass;
  std::vector<float> probs;    // per-class, filled when requested
  uint64_t model_version = 0;  // version that actually scored the row
};

/// When the batcher flushes pending rows into a scoring batch.
struct BatchPolicy {
  /// Flush as soon as this many rows are pending (dispatched inline
  /// from the submitting thread — no waiting on the flusher).
  int max_rows = 256;
  /// Flush when the oldest pending row has waited this long, so a lone
  /// request never stalls behind an unfilled batch.
  int max_delay_us = 1000;
};

/// Coalesces individually-submitted rows into scoring batches.
///
/// Submit() stamps the row with the model version resolved by the
/// caller and parks it; a batch flushes when it reaches
/// `policy.max_rows` or when the oldest row has waited
/// `policy.max_delay_us` (a dedicated flusher thread watches the
/// deadline), or when a caller calls Flush(). Flushed batches are
/// grouped by model — one PredictRows call per distinct model — and run
/// as tasks on the shared ThreadPool, where the predictor's own
/// ParallelFor further splits large groups. Each row's future is
/// fulfilled with its label/probs and the version that scored it;
/// per-row queue+score latency, the queue-wait and score stages and the
/// queue depth are recorded into `stats`.
///
/// Because rows carry their own shared_ptr<const ServedModel>, a hot
/// swap mid-queue is torn-read-free by construction: rows submitted
/// before the swap score on the old version (kept alive by their
/// references), rows after it on the new one, and nothing in between.
class MicroBatcher {
 public:
  MicroBatcher(ThreadPool* pool, BatchPolicy policy, ServeStats* stats);
  ~MicroBatcher();

  /// Enqueues one row against `model` (non-null). `numeric` and
  /// `categorical` are dense per-attribute slots sized
  /// model->schema().num_attrs() (categorical may be empty for
  /// all-numeric schemas). The future resolves once the row's batch has
  /// been scored. `want_probs` asks for the per-class vector in the
  /// reply.
  std::future<RowReply> Submit(std::shared_ptr<const ServedModel> model,
                               std::vector<double> numeric,
                               std::vector<int32_t> categorical,
                               bool want_probs);

  /// Dispatches every pending row now, as a full batch would be. For
  /// callers that know no more rows are coming — a `batch` request once
  /// all its rows are submitted — so they do not wait out the deadline.
  void Flush();

  /// Flushes anything pending and stops the flusher thread. Submissions
  /// after Stop() resolve immediately with an error reply. Idempotent;
  /// called by the destructor.
  void Stop();

  const BatchPolicy& policy() const { return policy_; }

 private:
  struct Request {
    std::shared_ptr<const ServedModel> model;
    std::vector<double> numeric;
    std::vector<int32_t> categorical;
    bool want_probs = false;
    std::promise<RowReply> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  void FlusherLoop();
  /// Hands a flushed batch to the pool (or runs it inline during Stop).
  void Dispatch(std::vector<Request> batch, bool inline_run);
  /// Groups by model, scores, fulfills promises, records latency.
  void RunBatch(std::vector<Request>* batch) const;

  ThreadPool* pool_;
  const BatchPolicy policy_;
  ServeStats* stats_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Request> pending_;
  bool stopping_ = false;
  std::thread flusher_;
};

}  // namespace cmp

#endif  // CMP_SERVE_BATCHER_H_
