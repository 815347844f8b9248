#include "hist/quantiles.h"

#include <cassert>
#include <cmath>
#include <utility>

#include "common/column_reader.h"
#include "hist/grid_builder.h"

namespace cmp {

IntervalGrid IntervalGrid::EqualDepth(std::span<const double> values,
                                      int q) {
  BorrowedColumn column(values.data(), static_cast<int64_t>(values.size()));
  AttrGridResult result;
  DiscretizeColumn(column, q, kSetupChunkRecords, nullptr, &result);
  return std::move(result.grid);
}

IntervalGrid IntervalGrid::EqualDepthFromSorted(
    const std::vector<double>& sorted, int q) {
  assert(q >= 1);
  assert(std::is_sorted(sorted.begin(), sorted.end()));
  if (sorted.empty()) return IntervalGrid();
  const int64_t n = static_cast<int64_t>(sorted.size());
  std::vector<double> rank_cuts;
  rank_cuts.reserve(q - 1);
  for (int i = 1; i < q; ++i) rank_cuts.push_back(sorted[CutRank(n, i, q)]);
  return FromRankCuts(rank_cuts, sorted.front(), sorted.back());
}

IntervalGrid IntervalGrid::FromRankCuts(const std::vector<double>& rank_cuts,
                                        double min_value, double max_value) {
  IntervalGrid grid;
  grid.min_value_ = min_value;
  grid.max_value_ = max_value;
  for (double cut : rank_cuts) {
    if (grid.boundaries_.empty() || cut > grid.boundaries_.back()) {
      grid.boundaries_.push_back(cut);
    }
  }
  while (!grid.boundaries_.empty() && grid.boundaries_.back() >= max_value) {
    grid.boundaries_.pop_back();
  }
  grid.BuildIndex();
  return grid;
}

IntervalGrid IntervalGrid::EqualWidth(std::span<const double> values,
                                      int q) {
  IntervalGrid grid;
  if (values.empty()) return grid;
  // The true extremes bound the grid's domain; the finite ones bound the
  // span the cuts divide.
  uint64_t lo_key = ~uint64_t{0};
  uint64_t hi_key = 0;
  uint64_t finite_lo_key = ~uint64_t{0};
  uint64_t finite_hi_key = 0;
  for (double v : values) {
    const uint64_t key = OrderKey(v);
    lo_key = std::min(lo_key, key);
    hi_key = std::max(hi_key, key);
    if (std::isfinite(v)) {
      finite_lo_key = std::min(finite_lo_key, key);
      finite_hi_key = std::max(finite_hi_key, key);
    }
  }
  grid.min_value_ = FromOrderKey(lo_key);
  grid.max_value_ = FromOrderKey(hi_key);
  const double lo = FromOrderKey(finite_lo_key);
  const double hi = FromOrderKey(finite_hi_key);
  // A constant column (or no two distinct finite values): one interval.
  if (q > 1 && finite_lo_key <= finite_hi_key && lo < hi) {
    grid.boundaries_.reserve(q - 1);
    const double span = hi - lo;
    for (int i = 1; i < q; ++i) {
      // A span that overflows has lo < 0 < hi, so the weighted sum of
      // the two scaled extremes cannot.
      const double cut = std::isfinite(span)
                             ? lo + span * i / q
                             : lo / q * (q - i) + hi / q * i;
      if (std::isfinite(cut) && cut < grid.max_value_ &&
          (grid.boundaries_.empty() || cut > grid.boundaries_.back())) {
        grid.boundaries_.push_back(cut);
      }
    }
  }
  grid.BuildIndex();
  return grid;
}

IntervalGrid IntervalGrid::FromBoundaries(std::vector<double> boundaries,
                                          double min_value,
                                          double max_value) {
  IntervalGrid grid;
  assert(std::is_sorted(boundaries.begin(), boundaries.end()));
  grid.boundaries_ = std::move(boundaries);
  if (min_value == 0.0 && max_value == 0.0 && !grid.boundaries_.empty()) {
    grid.min_value_ = grid.boundaries_.front();
    grid.max_value_ = grid.boundaries_.back();
  } else {
    grid.min_value_ = min_value;
    grid.max_value_ = max_value;
  }
  grid.BuildIndex();
  return grid;
}

void IntervalGrid::BuildIndex() {
  const size_t m = boundaries_.size();
  int nb = 1;
  while (nb < kMaxBuckets && static_cast<size_t>(nb) < 4 * m) nb *= 2;
  origin_ = 0.0;
  scale_ = 0.0;
  if (m > 1) {
    const double span = boundaries_.back() - boundaries_.front();
    const double scale = nb / span;
    if (std::isfinite(span) && std::isfinite(scale)) {
      origin_ = boundaries_.front();
      scale_ = scale;
    }
  }
  if (scale_ == 0.0) nb = 1;
  top_ = nb - 1;
  first_.assign(nb + 1, 0);
  for (double cut : boundaries_) ++first_[BucketOf(cut) + 1];
  for (int b = 0; b < nb; ++b) first_[b + 1] += first_[b];
  sentinel_cuts_ = boundaries_;
  sentinel_cuts_.push_back(std::numeric_limits<double>::infinity());
}

}  // namespace cmp
