#include "common/dataset.h"

#include <cassert>
#include <utility>

namespace cmp {

Dataset::Dataset(Schema schema) : schema_(std::move(schema)) {
  owned_numeric_.resize(schema_.num_attrs());
  owned_categorical_.resize(schema_.num_attrs());
  ViewOwned();
}

Dataset::Dataset(Schema schema, std::vector<std::vector<double>> numeric_cols,
                 std::vector<std::vector<int32_t>> cat_cols,
                 std::vector<ClassId> labels)
    : schema_(std::move(schema)),
      owned_numeric_(std::move(numeric_cols)),
      owned_categorical_(std::move(cat_cols)),
      owned_labels_(std::move(labels)) {
  assert(owned_numeric_.size() == static_cast<size_t>(schema_.num_attrs()));
  assert(owned_categorical_.size() ==
         static_cast<size_t>(schema_.num_attrs()));
  for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
    assert((schema_.is_numeric(a) ? owned_numeric_[a].size()
                                  : owned_categorical_[a].size()) ==
           owned_labels_.size());
  }
  ViewOwned();
}

Dataset::Dataset(Schema schema, int64_t num_records,
                 const std::vector<const double*>& numeric,
                 const std::vector<const int32_t*>& categorical,
                 const ClassId* labels, std::shared_ptr<const void> backing)
    : schema_(std::move(schema)),
      numeric_(schema_.num_attrs()),
      categorical_(schema_.num_attrs()),
      labels_(labels, static_cast<size_t>(num_records)),
      backing_(std::move(backing)) {
  const size_t n = static_cast<size_t>(num_records);
  for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
    if (schema_.is_numeric(a)) {
      numeric_[a] = {numeric[a], n};
    } else {
      categorical_[a] = {categorical[a], n};
    }
  }
}

Dataset& Dataset::operator=(Dataset&& other) noexcept {
  // Moving a vector hands over its buffer, so views of owned columns stay
  // valid in their new home.
  schema_ = std::move(other.schema_);
  numeric_ = std::exchange(other.numeric_, {});
  categorical_ = std::exchange(other.categorical_, {});
  labels_ = std::exchange(other.labels_, {});
  owned_numeric_ = std::exchange(other.owned_numeric_, {});
  owned_categorical_ = std::exchange(other.owned_categorical_, {});
  owned_labels_ = std::exchange(other.owned_labels_, {});
  backing_ = std::exchange(other.backing_, nullptr);
  return *this;
}

void Dataset::ViewOwned() {
  numeric_.assign(schema_.num_attrs(), {});
  categorical_.assign(schema_.num_attrs(), {});
  for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
    if (schema_.is_numeric(a)) {
      numeric_[a] = owned_numeric_[a];
    } else {
      categorical_[a] = owned_categorical_[a];
    }
  }
  labels_ = owned_labels_;
}

RecordId Dataset::Append(const std::vector<double>& numeric_values,
                         const std::vector<int32_t>& cat_values,
                         ClassId label) {
  assert(backing_ == nullptr);
  size_t ni = 0;
  size_t ci = 0;
  for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
    if (schema_.is_numeric(a)) {
      assert(ni < numeric_values.size());
      owned_numeric_[a].push_back(numeric_values[ni++]);
      numeric_[a] = owned_numeric_[a];
    } else {
      assert(ci < cat_values.size());
      owned_categorical_[a].push_back(cat_values[ci++]);
      categorical_[a] = owned_categorical_[a];
    }
  }
  assert(label >= 0 && label < schema_.num_classes());
  owned_labels_.push_back(label);
  labels_ = owned_labels_;
  return static_cast<RecordId>(owned_labels_.size()) - 1;
}

void Dataset::Reserve(int64_t n) {
  assert(backing_ == nullptr);
  for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
    if (schema_.is_numeric(a)) {
      owned_numeric_[a].reserve(n);
    } else {
      owned_categorical_[a].reserve(n);
    }
  }
  owned_labels_.reserve(n);
  ViewOwned();
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
      for (RecordId r : rids) out.owned_numeric_[a].push_back(numeric_[a][r]);
    } else {
      for (RecordId r : rids) {
        out.owned_categorical_[a].push_back(categorical_[a][r]);
      }
    }
  }
  for (RecordId r : rids) out.owned_labels_.push_back(labels_[r]);
  out.ViewOwned();
  return out;
}

}  // namespace cmp
