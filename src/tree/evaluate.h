#ifndef CMP_TREE_EVALUATE_H_
#define CMP_TREE_EVALUATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "tree/tree.h"

namespace cmp {

class BatchPredictor;

/// Classification quality of a tree on a dataset.
struct Evaluation {
  int64_t total = 0;
  int64_t correct = 0;
  /// confusion[actual][predicted].
  std::vector<std::vector<int64_t>> confusion;

  double Accuracy() const {
    return total == 0 ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(total);
  }
  double ErrorRate() const { return 1.0 - Accuracy(); }

  /// Tabular rendering of the confusion matrix.
  std::string ToString(const Schema& schema) const;
};

/// Runs `tree` over every record of `ds`.
Evaluation Evaluate(const DecisionTree& tree, const Dataset& ds);

/// Runs a compiled model (one tree or several) over every record of
/// `ds`.
Evaluation Evaluate(const BatchPredictor& predictor, const Dataset& ds);

/// Deterministically shuffles record ids and splits them into train/test
/// with the given test fraction.
void TrainTestSplit(int64_t num_records, double test_fraction, uint64_t seed,
                    std::vector<RecordId>* train_ids,
                    std::vector<RecordId>* test_ids);

}  // namespace cmp

#endif  // CMP_TREE_EVALUATE_H_
