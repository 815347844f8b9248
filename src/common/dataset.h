#ifndef CMP_COMMON_DATASET_H_
#define CMP_COMMON_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/types.h"

namespace cmp {

/// Columnar, read-only-after-construction training set.
///
/// Numeric attributes are stored as `double` columns, categorical
/// attributes as dense `int32_t` columns, and class labels as a dense
/// `ClassId` column. All tree builders in this library treat a Dataset as
/// immutable once built (CMP in particular never sorts, copies or modifies
/// the training set); scans are charged to a ScanCounter by the builders.
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(Schema schema);
  /// Adopts whole columns, indexed by AttrId like the accessors below:
  /// per attribute only the matching-kind column is filled, and every
  /// filled column holds labels.size() values. The values are not
  /// checked here; the table loader (io/table_file.h) validates labels
  /// and categorical codes before it moves its columns in.
  Dataset(Schema schema, std::vector<std::vector<double>> numeric_cols,
          std::vector<std::vector<int32_t>> cat_cols,
          std::vector<ClassId> labels);

  // Movable but not copyable: training sets can be large, and accidental
  // copies are the kind of cost this library exists to avoid.
  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;
  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;

  const Schema& schema() const { return schema_; }
  int64_t num_records() const { return static_cast<int64_t>(labels_.size()); }
  int32_t num_attrs() const { return schema_.num_attrs(); }
  int32_t num_classes() const { return schema_.num_classes(); }

  /// Value of numeric attribute `a` for record `r`. Must only be called
  /// for numeric attributes.
  double numeric(AttrId a, RecordId r) const { return numeric_cols_[a][r]; }
  /// Value of categorical attribute `a` for record `r`. Must only be
  /// called for categorical attributes.
  int32_t categorical(AttrId a, RecordId r) const { return cat_cols_[a][r]; }
  /// Class label of record `r`.
  ClassId label(RecordId r) const { return labels_[r]; }

  /// Whole-column access (for sorting-based algorithms such as SPRINT).
  const std::vector<double>& numeric_column(AttrId a) const {
    return numeric_cols_[a];
  }
  const std::vector<int32_t>& categorical_column(AttrId a) const {
    return cat_cols_[a];
  }
  const std::vector<ClassId>& labels() const { return labels_; }

  /// Appends one record. `numeric_values` must supply one value per
  /// numeric attribute in schema order; likewise `cat_values` for
  /// categorical attributes. Returns the new record's id.
  RecordId Append(const std::vector<double>& numeric_values,
                  const std::vector<int32_t>& cat_values, ClassId label);

  /// Pre-allocates column storage for `n` records.
  void Reserve(int64_t n);

  /// Per-class record counts over the whole dataset.
  std::vector<int64_t> ClassCounts() const;

  /// Creates a dataset holding the records whose ids are in `rids`, in
  /// that order (used for train/test splits in tests and examples).
  Dataset Subset(const std::vector<RecordId>& rids) const;

  /// Total payload bytes if this dataset were written to disk.
  int64_t TotalBytes() const {
    return num_records() * schema_.RecordBytes();
  }

 private:
  Schema schema_;
  // Indexed by AttrId; only the matching-kind vector is populated per
  // attribute, the other stays empty.
  std::vector<std::vector<double>> numeric_cols_;
  std::vector<std::vector<int32_t>> cat_cols_;
  std::vector<ClassId> labels_;
};

}  // namespace cmp

#endif  // CMP_COMMON_DATASET_H_
