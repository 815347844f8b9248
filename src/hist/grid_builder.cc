#include "hist/grid_builder.h"

#include <algorithm>
#include <limits>
#include <type_traits>

namespace cmp {

std::vector<char> InteriorMarksFromSorted(const std::vector<double>& sorted,
                                          const IntervalGrid& grid) {
  std::vector<char> interior(grid.num_intervals(), 0);
  const std::vector<double>& cuts = grid.boundaries();
  size_t bi = 0;
  double first_in_interval = sorted.empty() ? 0.0 : sorted[0];
  size_t interval_start_bi = 0;
  for (double v : sorted) {
    while (bi < cuts.size() && v > cuts[bi]) ++bi;
    if (bi != interval_start_bi) {
      interval_start_bi = bi;
      first_in_interval = v;
    } else if (v != first_in_interval) {
      interior[bi] = 1;
    }
  }
  return interior;
}

namespace {

// The one visit per value behind every InteriorMarks overload; Code is
// void when no codes are stored.
template <class Code>
std::vector<char> MarkIntervals(const IntervalGrid& grid,
                                const double* values, int64_t n,
                                Code* codes) {
  const int m = grid.num_intervals();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> lo(m, kInf);
  std::vector<double> hi(m, -kInf);
  for (int64_t r = 0; r < n; ++r) {
    const double v = values[r];
    const int i = grid.IntervalOf(v);
    if constexpr (!std::is_void_v<Code>) codes[r] = static_cast<Code>(i);
    lo[i] = std::min(lo[i], v);
    hi[i] = std::max(hi[i], v);
  }
  std::vector<char> interior(m);
  for (int i = 0; i < m; ++i) interior[i] = lo[i] < hi[i];
  return interior;
}

}  // namespace

std::vector<char> InteriorMarks(const IntervalGrid& grid,
                                const double* values, int64_t n) {
  return MarkIntervals<void>(grid, values, n, nullptr);
}

std::vector<char> InteriorMarks(const IntervalGrid& grid,
                                const double* values, int64_t n,
                                uint8_t* codes) {
  return MarkIntervals(grid, values, n, codes);
}

std::vector<char> InteriorMarks(const IntervalGrid& grid,
                                const double* values, int64_t n,
                                uint16_t* codes) {
  return MarkIntervals(grid, values, n, codes);
}

void ExactAttrGridBuilder::Add(const double* values, int64_t n) {
  values_.insert(values_.end(), values, values + n);
}

AttrGridResult ExactAttrGridBuilder::Finish(int q,
                                            Discretization kind) const {
  AttrGridResult result;
  result.grid = kind == Discretization::kEqualDepth
                    ? IntervalGrid::EqualDepth(values_, q)
                    : IntervalGrid::EqualWidth(values_, q);
  result.interior = InteriorMarks(result.grid, values_.data(),
                                  static_cast<int64_t>(values_.size()));
  return result;
}

}  // namespace cmp
