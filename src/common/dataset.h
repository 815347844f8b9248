#ifndef CMP_COMMON_DATASET_H_
#define CMP_COMMON_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/types.h"

namespace cmp {

/// A read-only view of one whole column: a span, plus an implicit copy
/// into an owned vector for callers that want one. Library code takes
/// the span and never converts.
template <typename T>
class ColumnView : public std::span<const T> {
 public:
  using std::span<const T>::span;
  ColumnView(std::span<const T> values)  // NOLINT(runtime/explicit)
      : std::span<const T>(values) {}

  operator std::vector<T>() const {  // NOLINT(runtime/explicit)
    return std::vector<T>(this->begin(), this->end());
  }
};

/// Columnar, read-only-after-construction training set.
///
/// Numeric attributes are `double` columns, categorical attributes dense
/// `int32_t` columns, and class labels a dense `ClassId` column. A
/// Dataset either owns its columns (generators, CSV/ARFF, Subset,
/// Append) or borrows them from memory it keeps alive: the table loader
/// (io/table_file.h) hands over its file mapping, so a loaded table's
/// columns point into the page cache. All tree builders in this library
/// treat a Dataset as immutable once built (CMP in particular never
/// sorts, copies or modifies the training set); scans are charged to a
/// ScanCounter by the builders.
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(Schema schema);
  /// Adopts whole columns, indexed by AttrId like the accessors below:
  /// per attribute only the matching-kind column is filled, and every
  /// filled column holds labels.size() values. The values are not
  /// checked here.
  Dataset(Schema schema, std::vector<std::vector<double>> numeric_cols,
          std::vector<std::vector<int32_t>> cat_cols,
          std::vector<ClassId> labels);
  /// Borrows whole columns from memory `backing` keeps alive, indexed by
  /// AttrId: `numeric[a]` (numeric attributes) or `categorical[a]`
  /// (categorical ones) points at `num_records` values, and `labels` at
  /// `num_records` labels. The Dataset holds `backing` until it is
  /// destroyed and only reads through the pointers. The values are not
  /// checked here; the table loader validates them first. A borrowed
  /// Dataset is never appended to.
  Dataset(Schema schema, int64_t num_records,
          const std::vector<const double*>& numeric,
          const std::vector<const int32_t*>& categorical,
          const ClassId* labels, std::shared_ptr<const void> backing);

  // Movable but not copyable: training sets can be large, and accidental
  // copies are the kind of cost this library exists to avoid. A move
  // keeps the column memory where it is, owned or borrowed.
  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;
  Dataset(Dataset&& other) noexcept { *this = std::move(other); }
  Dataset& operator=(Dataset&& other) noexcept;

  const Schema& schema() const { return schema_; }
  int64_t num_records() const { return static_cast<int64_t>(labels_.size()); }
  int32_t num_attrs() const { return schema_.num_attrs(); }
  int32_t num_classes() const { return schema_.num_classes(); }

  /// Value of numeric attribute `a` for record `r`. Must only be called
  /// for numeric attributes.
  double numeric(AttrId a, RecordId r) const { return numeric_[a][r]; }
  /// Value of categorical attribute `a` for record `r`. Must only be
  /// called for categorical attributes.
  int32_t categorical(AttrId a, RecordId r) const {
    return categorical_[a][r];
  }
  /// Class label of record `r`.
  ClassId label(RecordId r) const { return labels_[r]; }

  /// Whole-column access (for sorting-based algorithms such as SPRINT).
  /// The wrong-kind column of an attribute is empty.
  ColumnView<double> numeric_column(AttrId a) const { return numeric_[a]; }
  ColumnView<int32_t> categorical_column(AttrId a) const {
    return categorical_[a];
  }
  ColumnView<ClassId> labels() const { return labels_; }

  /// Appends one record to an owning Dataset. `numeric_values` must
  /// supply one value per numeric attribute in schema order; likewise
  /// `cat_values` for categorical attributes. Returns the new record's
  /// id.
  RecordId Append(const std::vector<double>& numeric_values,
                  const std::vector<int32_t>& cat_values, ClassId label);

  /// Pre-allocates column storage of an owning Dataset for `n` records.
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
  // Points the views at the owned vectors, after they are filled or may
  // have reallocated.
  void ViewOwned();

  Schema schema_;
  // What the accessors read, indexed by AttrId; the wrong-kind view of
  // an attribute is empty.
  std::vector<std::span<const double>> numeric_;
  std::vector<std::span<const int32_t>> categorical_;
  std::span<const ClassId> labels_;
  // The columns of an owning Dataset; empty when borrowed.
  std::vector<std::vector<double>> owned_numeric_;
  std::vector<std::vector<int32_t>> owned_categorical_;
  std::vector<ClassId> owned_labels_;
  // Keeps borrowed columns alive; null when owning.
  std::shared_ptr<const void> backing_;
};

}  // namespace cmp

#endif  // CMP_COMMON_DATASET_H_
