#include "hist/bin_codes.h"

#include <algorithm>
#include <type_traits>
#include <utility>

namespace cmp {

void CodeColumn::Resize(int64_t rows, int64_t n) {
  width_ = WidthFor(rows);
  u8_.resize(width_ == 1 ? n : 0);
  u16_.resize(width_ == 2 ? n : 0);
  u32_.resize(width_ == 4 ? n : 0);
}

CodeView CodeColumn::view() const {
  CodeView v;
  if (width_ == 1) v.u8 = u8_.data();
  if (width_ == 2) v.u16 = u16_.data();
  if (width_ == 4) v.u32 = u32_.data();
  return v;
}

void CodeColumn::EncodeAt(const IntervalGrid& grid, const double* values,
                          const uint16_t* offsets, int64_t n) {
  VisitStorage([&](auto* codes) {
    using Code = std::remove_pointer_t<decltype(codes)>;
    for (int64_t i = 0; i < n; ++i) {
      const uint16_t o = offsets[i];
      codes[o] = static_cast<Code>(grid.IntervalOf(values[o]));
    }
  });
}

void CodeColumn::Remap(const std::vector<int32_t>& map, int64_t rows) {
  const int64_t n = static_cast<int64_t>(
      std::max({u8_.size(), u16_.size(), u32_.size()}));
  // Maps in place, or into a narrower column that then replaces this one.
  CodeColumn narrow;
  CodeColumn* const out = WidthFor(rows) == width_ ? this : &narrow;
  if (out != this) narrow.Resize(rows, n);
  VisitStorage([&](const auto* from) {
    out->VisitStorage([&](auto* to) {
      using Code = std::remove_pointer_t<decltype(to)>;
      for (int64_t i = 0; i < n; ++i) to[i] = static_cast<Code>(map[from[i]]);
    });
  });
  if (out != this) *this = std::move(narrow);
}

int64_t CodeColumn::MemoryBytes() const {
  return static_cast<int64_t>(u8_.capacity()) * sizeof(uint8_t) +
         static_cast<int64_t>(u16_.capacity()) * sizeof(uint16_t) +
         static_cast<int64_t>(u32_.capacity()) * sizeof(uint32_t);
}

BinCodeCache::BinCodeCache(const Schema& schema, int64_t num_records,
                           int /*max_intervals*/)
    : enabled_(true), n_(num_records), cols_(schema.num_attrs()) {}

void BinCodeCache::EncodeNumericColumn(AttrId a, const IntervalGrid& grid,
                                       std::span<const double> column) {
  assert(enabled_);
  assert(static_cast<int64_t>(column.size()) == n_);
  CodeColumn& col = cols_[a];
  // Width follows the ACTUAL interval count (collapsed duplicate cuts
  // can shrink a 300-interval request under 256), not the requested cap.
  col.Resize(grid.num_intervals(), n_);
  col.VisitStorage([&](auto* codes) {
    using Code = std::remove_pointer_t<decltype(codes)>;
    for (int64_t r = 0; r < n_; ++r) {
      codes[r] = static_cast<Code>(grid.IntervalOf(column[r]));
    }
  });
}

void BinCodeCache::EncodeCategoricalColumn(AttrId a,
                                           std::span<const int32_t> column) {
  assert(enabled_);
  assert(static_cast<int64_t>(column.size()) == n_);
  CodeColumn& col = cols_[a];
  int32_t max_value = 0;
  for (int32_t v : column) max_value = std::max(max_value, v);
  col.Resize(int64_t{max_value} + 1, n_);
  col.VisitStorage([&](auto* codes) {
    using Code = std::remove_pointer_t<decltype(codes)>;
    for (size_t i = 0; i < column.size(); ++i) {
      codes[i] = static_cast<Code>(column[i]);
    }
  });
}

void BinCodeCache::SetLabels(std::vector<ClassId> labels) {
  assert(enabled_);
  assert(static_cast<int64_t>(labels.size()) == n_);
  labels_ = std::move(labels);
}

int64_t BinCodeCache::MemoryBytes() const {
  int64_t bytes = 0;
  for (const CodeColumn& c : cols_) bytes += c.MemoryBytes();
  bytes += static_cast<int64_t>(labels_.capacity()) * sizeof(ClassId);
  return bytes;
}

}  // namespace cmp
