#ifndef CMP_SERVE_BATCHER_H_
#define CMP_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
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

/// One parsed row: dense per-attribute slots sized
/// model->schema().num_attrs() (categorical may be empty for
/// all-numeric schemas).
struct RowValues {
  std::vector<double> numeric;
  std::vector<int32_t> categorical;
};

/// How large a scoring batch may grow.
struct BatchPolicy {
  /// Most rows one batch scores; a larger backlog goes out as several.
  /// Values below 1 mean 1.
  int max_rows = 256;
};

/// Coalesces individually-submitted rows into scoring batches by group
/// commit: there is no timer, the scorers clock the batches themselves.
///
/// A pool with W workers has W scoring slots. A submission whose rows
/// find a free slot takes it and its rows go to the pool at once, so a
/// lone request on an idle server never waits. When every slot is busy
/// the rows pend; a slot that finishes its batch takes whatever pended
/// meanwhile (up to `policy.max_rows`) and scores it as its next batch
/// on the same worker, and gives the slot back only when nothing is
/// pending. Batches therefore grow with load and shrink to one row when
/// idle. With an inline pool (no workers) every submitting thread
/// scores its own rows at once, so no thread ever drains rows for
/// another.
///
/// Batches are grouped by model — one PredictColumns call per distinct
/// model — and the predictor's own ParallelFor may split large groups
/// further. Each row's future is fulfilled with its label/probs and the
/// version that scored it; per-row queue+score latency, the queue-wait
/// and score stages and the queue depth are recorded into `stats`.
///
/// Because rows carry their own shared_ptr<const ServedModel>, a hot
/// swap mid-queue is torn-read-free by construction: rows submitted
/// before the swap score on the old version (kept alive by their
/// references), rows after it on the new one, and nothing in between.
class MicroBatcher {
 public:
  MicroBatcher(ThreadPool* pool, BatchPolicy policy, ServeStats* stats);
  ~MicroBatcher();

  /// Enqueues one row against `model` (non-null); see RowValues for the
  /// slot layout. The future resolves once the row has been scored.
  /// `want_probs` asks for the per-class vector in the reply.
  std::future<RowReply> Submit(std::shared_ptr<const ServedModel> model,
                               std::vector<double> numeric,
                               std::vector<int32_t> categorical,
                               bool want_probs);

  /// Enqueues every row of one request under one lock, so the rows are
  /// never split into a lone first row plus the rest; futures come back
  /// in row order.
  std::vector<std::future<RowReply>> SubmitMany(
      std::shared_ptr<const ServedModel> model, std::vector<RowValues> rows,
      bool want_probs);

  /// Rejects new work (later submissions resolve at once with an error
  /// reply), then waits until every accepted row has been scored.
  /// Idempotent; called by the destructor.
  void Stop();

  const BatchPolicy& policy() const { return policy_; }

 private:
  struct Request {
    std::shared_ptr<const ServedModel> model;
    RowValues values;
    bool want_probs = false;
    std::promise<RowReply> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Stamps and queues `requests`, then starts scorers on free slots (or
  /// scores them on this thread with an inline pool).
  std::vector<std::future<RowReply>> Enqueue(std::vector<Request> requests);
  /// Scores `batch` on the calling thread in batches of at most
  /// `max_rows`, holding a slot until it returns or throws; the
  /// inline-pool path.
  void ScoreInline(std::vector<Request> batch);
  /// Scores `batch`, then every batch that pends meanwhile, on one
  /// worker; gives the slot back once nothing is pending or a batch
  /// throws.
  void Drain(std::vector<Request> batch);
  /// Under mu_: hands pending rows to free slots, each as a Drain task.
  void StartScorersLocked();
  /// Under mu_: removes and returns up to max_rows pending rows.
  std::vector<Request> TakePendingLocked();
  /// Under mu_: gives one slot back and wakes Stop once idle.
  void ReleaseSlotLocked();
  /// Groups by model, scores, fulfills promises, records latency.
  void RunBatch(std::span<Request> batch) const;

  ThreadPool* pool_;
  const BatchPolicy policy_;
  ServeStats* stats_;
  const int slots_;  // pool workers; 0 = inline pool

  std::mutex mu_;
  std::condition_variable idle_;  // in_flight_ reached 0 while stopping_
  std::vector<Request> pending_;
  int in_flight_ = 0;  // batches being scored (slots held)
  bool stopping_ = false;
};

}  // namespace cmp

#endif  // CMP_SERVE_BATCHER_H_
