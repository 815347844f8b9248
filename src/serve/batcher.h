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
  /// Most rows one batch scores; a larger request goes out as several.
  /// Values below 1 mean 1.
  int max_rows = 256;
};

/// Scores each submission on the thread that submits it.
///
/// A submission is one request: one model and one or more rows. Its rows
/// are cut into batches of at most `policy.max_rows`, and each batch is
/// gathered into columns and scored with one PredictColumns call. The
/// predictor's ParallelFor runs a batch of up to one block (512 rows) on
/// the calling thread and splits a larger one across the pool its model
/// was built with, so a request leaves its connection thread only when
/// it has more than 512 rows. The futures that Submit and SubmitMany
/// return are therefore ready on return.
///
/// There is no queue and no coalescing across requests: a batch never
/// holds rows of two requests, so the `batches` and `batch_fill` that
/// `stats` reports describe request sizes. Nothing is held beyond the
/// rows of the requests being scored, and no submitter waits on
/// another's rows.
/// Each row's future carries its label/probs and the version that
/// scored it; per-row queue+score latency, the queue-wait and score
/// stages and the queue depth are recorded into `stats`.
///
/// A submission carries its own shared_ptr<const ServedModel>, so a hot
/// swap is torn-read-free by construction: a request resolved before
/// the swap scores on the old version (kept alive by its reference), a
/// request after it on the new one, and nothing in between.
class MicroBatcher {
 public:
  /// `pool` is not used: rows score on the submitting thread, and a
  /// large batch splits across the pool of its model's predictor.
  MicroBatcher(ThreadPool* pool, BatchPolicy policy, ServeStats* stats);
  ~MicroBatcher();

  /// Scores one row against `model` (non-null); see RowValues for the
  /// slot layout. The future is ready on return. `want_probs` asks for
  /// the per-class vector in the reply.
  std::future<RowReply> Submit(std::shared_ptr<const ServedModel> model,
                               std::vector<double> numeric,
                               std::vector<int32_t> categorical,
                               bool want_probs);

  /// Scores every row of one request; futures come back ready, in row
  /// order.
  std::vector<std::future<RowReply>> SubmitMany(
      std::shared_ptr<const ServedModel> model, std::vector<RowValues> rows,
      bool want_probs);

  /// Rejects new work (later submissions resolve at once with an error
  /// reply), then waits until every submission being scored has
  /// finished. Idempotent; called by the destructor.
  void Stop();

  const BatchPolicy& policy() const { return policy_; }

 private:
  /// Scores `rows` on the calling thread in batches of at most
  /// `max_rows`, unless Stop has begun.
  std::vector<std::future<RowReply>> Score(const ServedModel& model,
                                           std::span<const RowValues> rows,
                                           bool want_probs);
  /// Scores one batch, fulfils its promises and records its stats.
  void RunBatch(const ServedModel& model, std::span<const RowValues> rows,
                std::span<std::promise<RowReply>> promises, bool want_probs,
                std::chrono::steady_clock::time_point enqueued) const;

  const BatchPolicy policy_;
  ServeStats* stats_;

  std::mutex mu_;
  std::condition_variable idle_;  // in_flight_ reached 0 while stopping_
  int in_flight_ = 0;             // submissions being scored
  bool stopping_ = false;
};

}  // namespace cmp

#endif  // CMP_SERVE_BATCHER_H_
