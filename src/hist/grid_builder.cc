#include "hist/grid_builder.h"

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
