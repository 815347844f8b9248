#ifndef CMP_TREE_CROSSVAL_H_
#define CMP_TREE_CROSSVAL_H_

#include <cstdint>
#include <vector>

#include "common/dataset.h"
#include "tree/builder.h"

namespace cmp {

/// Result of a k-fold cross-validation run.
struct CrossValResult {
  /// Held-out accuracy per fold.
  std::vector<double> fold_accuracy;
  /// Training cost counters accumulated across folds.
  BuildStats total_stats;
  /// The per-fold trees, in fold order — only populated when
  /// CrossValidate is called with keep_trees, typically to feed a
  /// BatchPredictor (infer/batch_predictor.h) that votes the k folds.
  std::vector<DecisionTree> trees;

  double MeanAccuracy() const;
  /// Sample standard deviation of the fold accuracies.
  double StdDevAccuracy() const;
};

/// Runs k-fold cross-validation of `builder` on `data` with a
/// deterministic shuffle. With `keep_trees` the k fold trees are
/// returned in CrossValResult::trees instead of being discarded.
CrossValResult CrossValidate(TreeBuilder* builder, const Dataset& data,
                             int folds, uint64_t seed = 1,
                             bool keep_trees = false);

}  // namespace cmp

#endif  // CMP_TREE_CROSSVAL_H_
