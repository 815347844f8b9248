#ifndef CMP_HIST_BIN_CODES_H_
#define CMP_HIST_BIN_CODES_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "common/schema.h"
#include "common/types.h"
#include "hist/quantiles.h"

namespace cmp {

/// Read-only view of one attribute's encoded column: exactly one of the
/// three pointers is non-null, per the column's code width. The
/// histogram kernels (hist/hist_kernels.h) and the scan's hoisted route
/// steps dispatch on the width once per call through VisitCodes, so
/// their record loops never branch on it.
struct CodeView {
  const uint8_t* u8 = nullptr;
  const uint16_t* u16 = nullptr;
  const uint32_t* u32 = nullptr;

  /// The same column viewed from element `by` on.
  CodeView Shifted(int64_t by) const {
    CodeView v = *this;
    if (v.u8 != nullptr) v.u8 += by;
    if (v.u16 != nullptr) v.u16 += by;
    if (v.u32 != nullptr) v.u32 += by;
    return v;
  }
};

/// Calls `f` with the view's one non-null typed pointer, so a loop
/// written inside `f` is compiled once per code width.
template <class F>
decltype(auto) VisitCodes(const CodeView& v, F&& f) {
  if (v.u8 != nullptr) return f(v.u8);
  if (v.u16 != nullptr) return f(v.u16);
  return f(v.u32);
}

/// One attribute's codes, stored at the narrowest width that holds
/// `rows` distinct codes: 1 byte up to 256 rows, 2 up to 65536, 4
/// beyond.
class CodeColumn {
 public:
  /// Bytes per code for codes below `rows`.
  static int WidthFor(int64_t rows) {
    return rows <= 256 ? 1 : rows <= 65536 ? 2 : 4;
  }

  /// Sizes the column for `n` codes below `rows`; the contents are
  /// unspecified until written.
  void Resize(int64_t rows, int64_t n);

  /// Bytes per code (0 before Resize).
  int width() const { return width_; }
  CodeView view() const;

  int operator[](int64_t i) const {
    if (width_ == 1) return u8_[i];
    if (width_ == 2) return u16_[i];
    return static_cast<int>(u32_[i]);
  }

  /// Writes codes[offsets[i]] = grid.IntervalOf(values[offsets[i]]) for
  /// i < n: the codes of the listed elements only.
  void EncodeAt(const IntervalGrid& grid, const double* values,
                const uint16_t* offsets, int64_t n);

  /// Replaces every code c by map[c], stored at the width `rows` needs
  /// (narrower than the current one when `rows` is smaller).
  void Remap(const std::vector<int32_t>& map, int64_t rows);

  /// Calls `f` with the writable storage of the current width.
  template <class F>
  decltype(auto) VisitStorage(F&& f) {
    if (width_ == 1) return f(u8_.data());
    if (width_ == 2) return f(u16_.data());
    return f(u32_.data());
  }

  int64_t MemoryBytes() const;

 private:
  int width_ = 0;
  std::vector<uint8_t> u8_;
  std::vector<uint16_t> u16_;
  std::vector<uint32_t> u32_;
};

/// Pass-invariant bin-code cache: the quantized representation of the
/// whole training set that an in-memory build's scan passes accumulate
/// histograms from.
///
/// The equal-depth grids are computed once per build and never change,
/// so the interval index of (attribute, record) — the only thing
/// histogram accumulation needs — is a constant of the build. Instead of
/// re-paying a binary search (`IntervalOf`) per numeric value per pass,
/// each column is encoded ONCE into a columnar code matrix: numeric
/// attributes store their grid interval index, categorical attributes
/// their (already dense) value, and a caller may install the label
/// column too (SetLabels) so a kernel never touches the raw records; the
/// CMP build's in-memory store does not, since its scan reads the
/// dataset's labels. Each column takes the width its row count needs
/// (CodeColumn), so every schema can be encoded.
///
/// A streamed build keeps no such matrix: its record store encodes each
/// tile's live records as the scan reaches them (cmp/record_store.h).
///
/// Thread-safety: columns are independent, so EncodeNumericColumn /
/// EncodeCategoricalColumn may run concurrently for DISTINCT attributes
/// (the grid-construction pass fans them across the shared ThreadPool).
/// All reads are const after encoding completes.
class BinCodeCache {
 public:
  /// An empty cache, which holds no columns and reports 0 bytes.
  BinCodeCache() = default;

  /// Prepares a cache for `num_records` records of `schema`. Every
  /// grid-size cap `max_intervals` can be encoded, so it decides
  /// nothing.
  BinCodeCache(const Schema& schema, int64_t num_records,
               int max_intervals = 0);

  /// True once constructed for a schema: such a cache can be encoded
  /// into and read from.
  bool enabled() const { return enabled_; }
  int64_t num_records() const { return n_; }

  /// Encodes a numeric attribute's raw column (ascending record order,
  /// full length) as grid interval indices. `grid` must be the build's
  /// grid for `a`; by construction `code(a, r) == grid.IntervalOf(v_r)`
  /// for every record — the agreement the byte-identical-trees contract
  /// rests on (exhaustively tested in tests/test_bin_codes.cc).
  void EncodeNumericColumn(AttrId a, const IntervalGrid& grid,
                           std::span<const double> column);

  /// Attribute `a`'s column, for a writer that sizes and fills it
  /// itself: the build driver's setup (DiscretizeColumn in
  /// hist/grid_builder.h) writes the numeric codes there.
  CodeColumn* mutable_column(AttrId a) {
    assert(enabled_);
    return &cols_[a];
  }

  /// Encodes a categorical attribute's raw column (values are dense
  /// integers in [0, cardinality), validated by the loaders).
  void EncodeCategoricalColumn(AttrId a, std::span<const int32_t> column);

  /// Installs the label column (ascending record order, full length).
  void SetLabels(std::vector<ClassId> labels);

  /// Code width of attribute `a` in bytes (1, 2 or 4; 0 before
  /// encoding).
  int width(AttrId a) const { return cols_[a].width(); }

  /// The bin code of (attribute, record): the grid interval index for
  /// numeric attributes, the value for categorical ones.
  int code(AttrId a, RecordId r) const {
    assert(cols_[a].width() != 0 && r >= 0 && r < n_);
    return cols_[a][r];
  }

  /// Kernel view of one encoded column.
  CodeView view(AttrId a) const {
    assert(cols_[a].width() != 0);
    return cols_[a].view();
  }

  ClassId label(RecordId r) const { return labels_[r]; }
  const ClassId* labels() const { return labels_.data(); }

  /// Resident bytes of the code matrix + label column (reported through
  /// ScanTracker::NotePeakMemory so --stats-json memory stays honest).
  int64_t MemoryBytes() const;

 private:
  bool enabled_ = false;
  int64_t n_ = 0;
  std::vector<CodeColumn> cols_;  // indexed by AttrId
  std::vector<ClassId> labels_;
};

}  // namespace cmp

#endif  // CMP_HIST_BIN_CODES_H_
