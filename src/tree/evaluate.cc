#include "tree/evaluate.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/random.h"
#include "infer/batch_predictor.h"
#include "infer/compiled_tree.h"

namespace cmp {

Evaluation Evaluate(const DecisionTree& tree, const Dataset& ds) {
  const CompiledTree compiled = CompiledTree::Compile(tree);
  return Evaluate(BatchPredictor(&compiled), ds);
}

Evaluation Evaluate(const BatchPredictor& predictor, const Dataset& ds) {
  Evaluation out;
  // The evaluation dataset may carry classes the model never saw in
  // training (or vice versa), so the confusion matrix spans both label
  // spaces and indexing is guarded rather than trusted.
  const int nc = std::max(ds.num_classes(), predictor.num_classes());
  out.confusion.assign(nc, std::vector<int64_t>(nc, 0));

  const BatchResult result = predictor.Predict(ds);
  for (RecordId r = 0; r < ds.num_records(); ++r) {
    const ClassId actual = ds.label(r);
    const ClassId predicted = result.labels[r];
    out.total++;
    if (actual == predicted) out.correct++;
    if (actual >= 0 && actual < nc && predicted >= 0 && predicted < nc) {
      out.confusion[actual][predicted]++;
    }
  }
  return out;
}

std::string Evaluation::ToString(const Schema& schema) const {
  std::ostringstream os;
  os << "accuracy: " << std::fixed << std::setprecision(4) << Accuracy()
     << " (" << correct << "/" << total << ")\n";
  // The matrix may be wider than the schema when the tree and the
  // dataset disagree on the class list; unnamed classes get a fallback.
  const ClassId nc = static_cast<ClassId>(confusion.size());
  auto name = [&schema](ClassId c) {
    return c < schema.num_classes() ? schema.class_name(c)
                                    : "class" + std::to_string(c);
  };
  os << std::setw(12) << "actual\\pred";
  for (ClassId c = 0; c < nc; ++c) {
    os << std::setw(10) << name(c);
  }
  os << '\n';
  for (ClassId a = 0; a < nc; ++a) {
    os << std::setw(12) << name(a);
    for (ClassId p = 0; p < nc; ++p) {
      os << std::setw(10) << confusion[a][p];
    }
    os << '\n';
  }
  return os.str();
}

void TrainTestSplit(int64_t num_records, double test_fraction, uint64_t seed,
                    std::vector<RecordId>* train_ids,
                    std::vector<RecordId>* test_ids) {
  std::vector<RecordId> ids(num_records);
  for (int64_t i = 0; i < num_records; ++i) ids[i] = i;
  // Fisher-Yates with the library RNG for reproducibility.
  Rng rng(seed);
  for (int64_t i = num_records - 1; i > 0; --i) {
    const int64_t j = rng.UniformInt(0, i);
    std::swap(ids[i], ids[j]);
  }
  const int64_t test_n = static_cast<int64_t>(num_records * test_fraction);
  test_ids->assign(ids.begin(), ids.begin() + test_n);
  train_ids->assign(ids.begin() + test_n, ids.end());
}

}  // namespace cmp
