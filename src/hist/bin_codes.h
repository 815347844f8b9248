#ifndef CMP_HIST_BIN_CODES_H_
#define CMP_HIST_BIN_CODES_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/schema.h"
#include "common/types.h"
#include "hist/quantiles.h"

namespace cmp {

/// Read-only view of one attribute's encoded column: exactly one of the
/// two pointers is non-null, per the column's code width. The histogram
/// kernels (hist/hist_kernels.h) template their inner loops over this so
/// the width branch is paid once per batch, not once per record.
struct CodeView {
  const uint8_t* u8 = nullptr;
  const uint16_t* u16 = nullptr;
};

/// Pass-invariant bin-code cache: the quantized representation of the
/// whole training set that every scan pass after grid construction
/// accumulates histograms from.
///
/// The equal-depth grids are computed once per build and never change,
/// so the interval index of (attribute, record) — the only thing
/// histogram accumulation needs — is a constant of the build. Instead of
/// re-paying a binary search (`IntervalOf`) per numeric value per pass,
/// each column is encoded ONCE into a columnar code matrix: numeric
/// attributes store their grid interval index, categorical attributes
/// their (already dense) value, and the label column rides along so a
/// kernel never touches the raw record store. Codes are 1 byte per value
/// when an attribute has at most 256 rows and 2 bytes up to 65536 rows;
/// beyond that the cache disables itself and the builder falls back to
/// the record-major `IntervalOf` path (same tree, just slower).
///
/// At 1-2 bytes/value vs 8 for a raw double, the code matrix of a table
/// that does not fit in RAM often does — the out-of-core build keeps it
/// resident as a compact sidecar of the streamed table, so histogram
/// accumulation in later passes never waits on raw column bytes (raw
/// blocks still stream for tree descent and for the exact values the
/// pending buffers need).
///
/// Thread-safety: columns are independent, so EncodeNumericColumn /
/// EncodeCategoricalColumn may run concurrently for DISTINCT attributes
/// (the grid-construction pass fans them across the shared ThreadPool).
/// All reads are const after encoding completes.
class BinCodeCache {
 public:
  /// A default-constructed cache is disabled; every consumer must check
  /// enabled() (the builder passes nullptr instead, but tests construct
  /// empty caches).
  BinCodeCache() = default;

  /// Prepares a cache for `num_records` records of `schema`.
  /// `max_intervals` is the grid-size cap of the build
  /// (CmpOptions::intervals): together with the categorical
  /// cardinalities it bounds every attribute's row count, so the
  /// 16-bit-code gate is decided here, before any column is encoded.
  BinCodeCache(const Schema& schema, int64_t num_records, int max_intervals);

  /// False when some attribute needs more than 16 bits (or the cache was
  /// default-constructed). A disabled cache holds no storage and must
  /// not be encoded into or read from.
  bool enabled() const { return enabled_; }
  int64_t num_records() const { return n_; }

  /// Encodes a numeric attribute's raw column (ascending record order,
  /// full length) as grid interval indices. `grid` must be the build's
  /// grid for `a`; by construction `code(a, r) == grid.IntervalOf(v_r)`
  /// for every record — the agreement the byte-identical-trees contract
  /// rests on (exhaustively tested in tests/test_bin_codes.cc).
  void EncodeNumericColumn(AttrId a, const IntervalGrid& grid,
                           const std::vector<double>& column);

  /// The same codes from a borrowed column of num_records() values, and
  /// from the same visit per value the column's interior marks
  /// (InteriorMarks in hist/grid_builder.h) — the build driver's setup
  /// pass.
  std::vector<char> EncodeNumericColumnWithMarks(AttrId a,
                                                 const IntervalGrid& grid,
                                                 const double* column);

  /// Encodes a categorical attribute's raw column (values are dense
  /// integers in [0, cardinality), validated by the loaders).
  void EncodeCategoricalColumn(AttrId a, const std::vector<int32_t>& column);

  /// Installs the label column (ascending record order, full length).
  void SetLabels(std::vector<ClassId> labels);

  /// Code width of attribute `a` in bytes (1 or 2; 0 before encoding).
  int width(AttrId a) const { return cols_[a].width; }

  /// The bin code of (attribute, record): the grid interval index for
  /// numeric attributes, the value for categorical ones.
  int code(AttrId a, RecordId r) const {
    const Column& c = cols_[a];
    assert(c.width != 0 && r >= 0 && r < n_);
    return c.width == 1 ? c.u8[r] : c.u16[r];
  }

  /// Kernel view of one encoded column.
  CodeView view(AttrId a) const {
    const Column& c = cols_[a];
    assert(c.width != 0);
    CodeView v;
    if (c.width == 1) {
      v.u8 = c.u8.data();
    } else {
      v.u16 = c.u16.data();
    }
    return v;
  }

  ClassId label(RecordId r) const { return labels_[r]; }
  const ClassId* labels() const { return labels_.data(); }

  /// Resident bytes of the code matrix + label column (reported through
  /// ScanTracker::NotePeakMemory so --stats-json memory stays honest).
  int64_t MemoryBytes() const;

 private:
  struct Column {
    int width = 0;  // bytes per code: 1, 2, or 0 (not yet encoded)
    std::vector<uint8_t> u8;
    std::vector<uint16_t> u16;
  };

  bool enabled_ = false;
  int64_t n_ = 0;
  std::vector<Column> cols_;  // indexed by AttrId
  std::vector<ClassId> labels_;
};

}  // namespace cmp

#endif  // CMP_HIST_BIN_CODES_H_
