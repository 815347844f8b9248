#ifndef CMP_INFER_BATCH_PREDICTOR_H_
#define CMP_INFER_BATCH_PREDICTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/dataset.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "infer/compiled_tree.h"
#include "infer/scratch.h"

namespace cmp {

/// Knobs for batch scoring.
struct PredictOptions {
  /// Worker threads; 1 scores on the calling thread, 0 means
  /// std::thread::hardware_concurrency.
  int num_threads = 1;
  /// Rows per work unit handed to the thread pool.
  int64_t block_size = 2048;
  /// Fill BatchResult::probs with per-row class probabilities.
  bool want_probs = false;
  /// When > 1, fill BatchResult::topk with the `top_k` most probable
  /// classes per row, most probable first (ties broken by lower class id).
  int top_k = 1;
  /// Abstain (predict kInvalidClass) when the probability of the
  /// predicted class is below this. 0 never abstains.
  double abstain_threshold = 0.0;
};

/// How a model of several trees combines its members' opinions on a row.
enum class VoteKind {
  /// One hard vote per tree for its predicted class; ties go to the
  /// lower class id. Reported probabilities are vote fractions.
  kMajority,
  /// Average of the trees' leaf probability vectors; the predicted class
  /// is its argmax (ties to the lower class id).
  kAverageProb,
};

/// Output of a batch scoring run over n rows.
struct BatchResult {
  /// Predicted class per row; kInvalidClass where the predictor abstained.
  std::vector<ClassId> labels;
  /// n x num_classes row-major probabilities (empty unless want_probs).
  std::vector<float> probs;
  /// n x top_k class ids (empty unless top_k > 1), ordered by descending
  /// probability (ties broken by lower class id). Abstention blanks
  /// labels[i] but not these.
  std::vector<ClassId> topk;
  /// Rows on which the predictor abstained.
  int64_t num_abstained = 0;
};

/// Scores column-major rows against a model of one or more
/// CompiledTrees sharing a schema (a single tree, the k trees a
/// cross-validation run leaves behind, a boosted forest) in row blocks,
/// optionally fanned out across a ThreadPool.
///
/// A one-tree model labels a row with its leaf's class and reports the
/// leaf's probabilities, whatever the vote kind. Several trees are
/// combined by the VoteKind; then "probability of the predicted class"
/// for abstention is the combined vote fraction or averaged probability,
/// so the model abstains exactly when its members disagree.
///
/// Options and pool are fixed at construction. The scoring pool is
/// created once, not per call, so repeated calls reuse the same workers.
/// Injecting `pool` instead shares threads with other work (training,
/// other predictors) without oversubscribing the machine; the pool must
/// outlive the predictor. Scoring is const and safe to call
/// concurrently.
class BatchPredictor {
 public:
  /// A one-tree model. The tree is a view, so copying it is cheap.
  explicit BatchPredictor(const CompiledTree* tree, PredictOptions opts = {},
                          ThreadPool* pool = nullptr);

  /// A model of `trees` (at least one, all agreeing on the class count)
  /// combined by `vote` when there are several.
  BatchPredictor(std::vector<CompiledTree> trees, VoteKind vote,
                 PredictOptions opts = {}, ThreadPool* pool = nullptr);

  int num_trees() const { return static_cast<int>(trees_.size()); }
  int32_t num_classes() const { return trees_.front().num_classes(); }

  /// Scores every record of `ds` (whose schema must match the model's)
  /// on `pool` if given (its thread count wins), else on the
  /// predictor's pool.
  BatchResult Predict(const Dataset& ds, ThreadPool* pool = nullptr) const;

  /// Scores `n` rows already in column-major form (one pointer per
  /// schema attribute, see RowColumnsView), e.g. a table block or the
  /// serving batcher's micro-batch.
  BatchResult PredictColumns(const double* const* numeric_cols,
                             const int32_t* const* categorical_cols,
                             int64_t n) const;

 private:
  BatchResult Run(const RowColumnsView& view, int64_t n,
                  ThreadPool* pool) const;

  std::vector<CompiledTree> trees_;
  VoteKind vote_;
  PredictOptions opts_;
  ThreadPool* pool_;  // borrowed if injected, else owned_.get()
  std::unique_ptr<ThreadPool> owned_;
  mutable ScratchPool scratch_;  // per-block scoring buffers, reused
};

}  // namespace cmp

#endif  // CMP_INFER_BATCH_PREDICTOR_H_
