#ifndef CMP_HIST_GRID_BUILDER_H_
#define CMP_HIST_GRID_BUILDER_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "hist/grids.h"
#include "hist/quantiles.h"

namespace cmp {

/// Per-attribute grid construction result.
struct AttrGridResult {
  IntervalGrid grid;
  /// interior[i] is nonzero iff grid interval i contains at least two
  /// distinct values — i.e. an interior split point can exist there.
  std::vector<char> interior;
};

/// Buffers one numeric attribute's values and never sorts them.
/// Finish(q, kEqualDepth) selects the cuts (IntervalGrid::EqualDepth),
/// which is byte-identical to IntervalGrid::EqualDepthFromSorted on the
/// sorted column; the interior marks come from one pass over the
/// unsorted buffer (InteriorMarks) and equal InteriorMarksFromSorted on
/// the sorted column. The CMP build driver selects its grids directly
/// over the borrowed column instead; this builder serves the benchmark's
/// setup replay and the tests.
class ExactAttrGridBuilder {
 public:
  /// Appends a chunk of values (any order; grids depend only on the
  /// multiset).
  void Add(const double* values, int64_t n);

  /// Builds the grid and interior marks for everything added.
  AttrGridResult Finish(int q, Discretization kind) const;

 private:
  std::vector<double> values_;
};

/// Interior marks for a grid from a sorted value run (the exact rule the
/// CMP driver uses: interval i is interior iff it contains two distinct
/// values). Tests use it as the oracle for the one-pass marks.
std::vector<char> InteriorMarksFromSorted(const std::vector<double>& sorted,
                                          const IntervalGrid& grid);

/// The same marks from `n` values in any order, in one pass: interval i
/// is interior iff its smallest value is below its largest. With a
/// `codes` array of `n` unsigned entries (Code not void) the same visit
/// also stores each value's interval index (grid.IntervalOf(values[r]))
/// in codes[r], so one visit per value yields both the marks and the bin
/// codes.
template <class Code>
std::vector<char> InteriorMarks(const IntervalGrid& grid,
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

inline std::vector<char> InteriorMarks(const IntervalGrid& grid,
                                       const double* values, int64_t n) {
  return InteriorMarks<void>(grid, values, n, nullptr);
}

}  // namespace cmp

#endif  // CMP_HIST_GRID_BUILDER_H_
