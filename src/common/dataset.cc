#include "common/dataset.h"

#include <cassert>
#include <utility>

namespace cmp {

Dataset::Dataset(Schema schema) : schema_(std::move(schema)) {
  numeric_cols_.resize(schema_.num_attrs());
  cat_cols_.resize(schema_.num_attrs());
}

Dataset::Dataset(Schema schema, std::vector<std::vector<double>> numeric_cols,
                 std::vector<std::vector<int32_t>> cat_cols,
                 std::vector<ClassId> labels)
    : schema_(std::move(schema)),
      numeric_cols_(std::move(numeric_cols)),
      cat_cols_(std::move(cat_cols)),
      labels_(std::move(labels)) {
  assert(numeric_cols_.size() == static_cast<size_t>(schema_.num_attrs()));
  assert(cat_cols_.size() == static_cast<size_t>(schema_.num_attrs()));
  for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
    assert((schema_.is_numeric(a) ? numeric_cols_[a].size()
                                  : cat_cols_[a].size()) == labels_.size());
  }
}

RecordId Dataset::Append(const std::vector<double>& numeric_values,
                         const std::vector<int32_t>& cat_values,
                         ClassId label) {
  size_t ni = 0;
  size_t ci = 0;
  for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
    if (schema_.is_numeric(a)) {
      assert(ni < numeric_values.size());
      numeric_cols_[a].push_back(numeric_values[ni++]);
    } else {
      assert(ci < cat_values.size());
      cat_cols_[a].push_back(cat_values[ci++]);
    }
  }
  assert(label >= 0 && label < schema_.num_classes());
  labels_.push_back(label);
  return static_cast<RecordId>(labels_.size()) - 1;
}

void Dataset::Reserve(int64_t n) {
  for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
    if (schema_.is_numeric(a)) {
      numeric_cols_[a].reserve(n);
    } else {
      cat_cols_[a].reserve(n);
    }
  }
  labels_.reserve(n);
}

std::vector<int64_t> Dataset::ClassCounts() const {
  std::vector<int64_t> counts(schema_.num_classes(), 0);
  for (ClassId c : labels_) counts[c]++;
  return counts;
}

Dataset Dataset::Subset(const std::vector<RecordId>& rids) const {
  Dataset out(schema_);
  out.Reserve(static_cast<int64_t>(rids.size()));
  for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
    if (schema_.is_numeric(a)) {
      for (RecordId r : rids) out.numeric_cols_[a].push_back(numeric_cols_[a][r]);
    } else {
      for (RecordId r : rids) out.cat_cols_[a].push_back(cat_cols_[a][r]);
    }
  }
  for (RecordId r : rids) out.labels_.push_back(labels_[r]);
  return out;
}

}  // namespace cmp
