#ifndef CMP_SERVE_REGISTRY_H_
#define CMP_SERVE_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "infer/batch_predictor.h"
#include "infer/model_io.h"

namespace cmp {

/// One published version of a named model: the compiled blob view plus
/// a predictor bound to it. Immutable after construction — scoring
/// threads touch it only through `const`, so a ServedModel can be
/// shared freely across batches with no locking.
///
/// One BatchPredictor scores every model: a single tree by its leaves,
/// a multi-tree blob (a boosted forest) by the average-probability
/// vote.
class ServedModel {
 public:
  /// Builds a served instance over a compiled model (at least one
  /// tree). `pool` is borrowed for the predictor and must outlive the
  /// ServedModel.
  ServedModel(std::string name, uint64_t version, std::string source_path,
              CompiledModel model, ThreadPool* pool);

  const std::string& name() const { return name_; }
  uint64_t version() const { return version_; }
  const std::string& source_path() const { return source_path_; }
  const Schema& schema() const { return *model_.schema; }
  int num_trees() const { return model_.num_trees(); }
  int32_t num_classes() const { return model_.num_classes(); }

  /// Scores `n` rows already in column-major form (one pointer per
  /// schema attribute, see RowColumnsView). This is what the batcher
  /// feeds: it transposes each micro-batch once, and the vector
  /// kernels descend the columns with no further copying. Always fills
  /// probabilities so mixed want-probs batches need no re-grouping.
  /// Thread-safe.
  BatchResult PredictColumns(const double* const* numeric_cols,
                             const int32_t* const* categorical_cols,
                             int64_t n) const;

 private:
  std::string name_;
  uint64_t version_;
  std::string source_path_;
  CompiledModel model_;
  BatchPredictor predictor_;
};

/// Named model versions behind shared_ptr RCU semantics.
///
/// Readers (the batcher, connection threads) call Get() and hold the
/// returned shared_ptr for the duration of one batch; Publish()
/// replaces the map entry under a short mutex and bumps the version.
/// A reader that resolved the pointer before a swap keeps scoring
/// against the old version — never a torn mix of old and new arrays —
/// and the old blob (including its mmap) is unmapped exactly when the
/// last in-flight batch drops its reference. No reader-side lock is
/// held while scoring; the mutex guards only the pointer-sized map
/// update, so a swap under full traffic stalls nobody.
class ModelRegistry {
 public:
  /// `pool` is borrowed for the predictors of published models and must
  /// outlive the registry.
  explicit ModelRegistry(ThreadPool* pool) : pool_(pool) {}

  /// Publishes `model` under `name`, replacing any current version.
  /// Returns the new version number (monotone per name, starting at 1),
  /// or 0 with *error set if the model is unusable.
  uint64_t Publish(const std::string& name, CompiledModel model,
                   const std::string& source_path, std::string* error);

  /// Loads a .cmpb file and publishes it. Validation happens before the
  /// swap: a corrupt file leaves the current version serving.
  uint64_t PublishFromFile(const std::string& name, const std::string& path,
                           std::string* error);

  /// Current version of a model, or null if the name is unknown. The
  /// caller's shared_ptr is the RCU read lock: hold it across the batch.
  std::shared_ptr<const ServedModel> Get(const std::string& name) const;

  /// Snapshot of all current versions, name-ordered.
  std::vector<std::shared_ptr<const ServedModel>> List() const;

  int size() const;

 private:
  ThreadPool* pool_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const ServedModel>> models_;
  std::map<std::string, uint64_t> next_version_;
};

}  // namespace cmp

#endif  // CMP_SERVE_REGISTRY_H_
