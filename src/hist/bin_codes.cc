#include "hist/bin_codes.h"

#include <utility>

#include "hist/grid_builder.h"

namespace cmp {

namespace {

constexpr int kMaxRows8 = 256;
constexpr int kMaxRows16 = 65536;

}  // namespace

BinCodeCache::BinCodeCache(const Schema& schema, int64_t num_records,
                           int max_intervals)
    : n_(num_records) {
  // The gate is decided up front from static bounds (the grid-size cap
  // and the categorical cardinalities) so concurrent column encoders
  // never have to flip enabled_ mid-build.
  if (max_intervals > kMaxRows16) return;
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    if (!schema.is_numeric(a) && schema.attr(a).cardinality > kMaxRows16) {
      return;
    }
  }
  enabled_ = true;
  cols_.resize(schema.num_attrs());
}

void BinCodeCache::EncodeNumericColumn(AttrId a, const IntervalGrid& grid,
                                       const std::vector<double>& column) {
  assert(static_cast<int64_t>(column.size()) == n_);
  EncodeNumericColumnWithMarks(a, grid, column.data());
}

std::vector<char> BinCodeCache::EncodeNumericColumnWithMarks(
    AttrId a, const IntervalGrid& grid, const double* column) {
  assert(enabled_);
  Column& col = cols_[a];
  // Width follows the ACTUAL interval count (collapsed duplicate cuts
  // can shrink a 300-interval request under 256), not the requested cap.
  const int rows = grid.num_intervals();
  assert(rows <= kMaxRows16);
  if (rows <= kMaxRows8) {
    col.width = 1;
    col.u8.resize(n_);
    return InteriorMarks(grid, column, n_, col.u8.data());
  }
  col.width = 2;
  col.u16.resize(n_);
  return InteriorMarks(grid, column, n_, col.u16.data());
}

void BinCodeCache::EncodeCategoricalColumn(AttrId a,
                                           const std::vector<int32_t>& column) {
  assert(enabled_);
  assert(static_cast<int64_t>(column.size()) == n_);
  Column& col = cols_[a];
  int32_t max_value = 0;
  for (int32_t v : column) max_value = std::max(max_value, v);
  if (max_value < kMaxRows8) {
    col.width = 1;
    col.u8.resize(column.size());
    for (size_t i = 0; i < column.size(); ++i) {
      col.u8[i] = static_cast<uint8_t>(column[i]);
    }
  } else {
    col.width = 2;
    col.u16.resize(column.size());
    for (size_t i = 0; i < column.size(); ++i) {
      col.u16[i] = static_cast<uint16_t>(column[i]);
    }
  }
}

void BinCodeCache::SetLabels(std::vector<ClassId> labels) {
  assert(enabled_);
  assert(static_cast<int64_t>(labels.size()) == n_);
  labels_ = std::move(labels);
}

int64_t BinCodeCache::MemoryBytes() const {
  int64_t bytes = 0;
  for (const Column& c : cols_) {
    bytes += static_cast<int64_t>(c.u8.capacity()) * sizeof(uint8_t);
    bytes += static_cast<int64_t>(c.u16.capacity()) * sizeof(uint16_t);
  }
  bytes += static_cast<int64_t>(labels_.capacity()) * sizeof(ClassId);
  return bytes;
}

}  // namespace cmp
