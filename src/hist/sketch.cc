#include "hist/sketch.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cmp {

QuantileSketch::QuantileSketch(int capacity)
    : capacity_(std::max(8, capacity)) {}

void QuantileSketch::Add(double v) {
  if (count_ == 0) {
    min_value_ = v;
    max_value_ = v;
  } else {
    min_value_ = std::min(min_value_, v);
    max_value_ = std::max(max_value_, v);
  }
  ++count_;
  if (levels_.empty()) levels_.emplace_back();
  levels_[0].push_back(v);
  if (levels_[0].size() >= static_cast<size_t>(capacity_)) Compact(0);
}

void QuantileSketch::AddN(const double* values, int64_t n) {
  for (int64_t i = 0; i < n; ++i) Add(values[i]);
}

void QuantileSketch::Compact(size_t h) {
  while (h < levels_.size() &&
         levels_[h].size() >= static_cast<size_t>(capacity_)) {
    std::vector<double>& level = levels_[h];
    std::sort(level.begin(), level.end());
    // Compact the first 2m values; an odd straggler stays behind at this
    // level. Promoting the odd positions (1, 3, ...) of the sorted run
    // shifts any rank estimate by at most the level weight 2^h.
    const size_t pairs = level.size() / 2;
    if (pairs == 0) return;
    std::vector<double> promoted;
    promoted.reserve(pairs);
    for (size_t i = 0; i < pairs; ++i) promoted.push_back(level[2 * i + 1]);
    if (level.size() % 2 != 0) {
      level[0] = level.back();
      level.resize(1);
    } else {
      level.clear();
    }
    error_bound_ += int64_t{1} << h;
    if (h + 1 >= levels_.size()) levels_.emplace_back();
    // `promoted` is sorted; merge it into the (sorted) next level.
    std::vector<double>& next = levels_[h + 1];
    std::vector<double> merged;
    merged.reserve(next.size() + promoted.size());
    std::merge(next.begin(), next.end(), promoted.begin(), promoted.end(),
               std::back_inserter(merged));
    next = std::move(merged);
    ++h;
  }
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_value_ = other.min_value_;
    max_value_ = other.max_value_;
  } else {
    min_value_ = std::min(min_value_, other.min_value_);
    max_value_ = std::max(max_value_, other.max_value_);
  }
  count_ += other.count_;
  error_bound_ += other.error_bound_;
  if (levels_.size() < other.levels_.size()) {
    levels_.resize(other.levels_.size());
  }
  for (size_t h = 0; h < other.levels_.size(); ++h) {
    const std::vector<double>& src = other.levels_[h];
    if (src.empty()) continue;
    std::vector<double>& dst = levels_[h];
    if (h == 0) {
      dst.insert(dst.end(), src.begin(), src.end());
    } else {
      std::vector<double> merged;
      merged.reserve(dst.size() + src.size());
      std::merge(dst.begin(), dst.end(), src.begin(), src.end(),
                 std::back_inserter(merged));
      dst = std::move(merged);
    }
  }
  // Restore the capacity invariant bottom-up so a cascade at level h
  // lands in an already-consolidated level h+1.
  for (size_t h = 0; h < levels_.size(); ++h) Compact(h);
}

std::vector<QuantileSketch::Item> QuantileSketch::Summary() const {
  std::vector<Item> items;
  int64_t total_items = 0;
  for (const std::vector<double>& level : levels_) {
    total_items += static_cast<int64_t>(level.size());
  }
  items.reserve(total_items);
  for (size_t h = 0; h < levels_.size(); ++h) {
    const int64_t weight = int64_t{1} << h;
    for (double v : levels_[h]) items.push_back({v, weight});
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.value != b.value ? a.value < b.value : a.weight < b.weight;
  });
  return items;
}

int64_t QuantileSketch::EstimatedRankAtMost(double v) const {
  int64_t rank = 0;
  for (size_t h = 0; h < levels_.size(); ++h) {
    const std::vector<double>& level = levels_[h];
    const int64_t weight = int64_t{1} << h;
    if (h == 0) {
      for (double x : level) {
        if (x <= v) rank += weight;
      }
    } else {
      const auto it = std::upper_bound(level.begin(), level.end(), v);
      rank += weight * static_cast<int64_t>(it - level.begin());
    }
  }
  return rank;
}

IntervalGrid QuantileSketch::ToEqualDepthGrid(int q) const {
  if (count_ == 0 || q <= 1) {
    if (count_ == 0) return IntervalGrid();
    return IntervalGrid::FromBoundaries({}, min_value_, max_value_);
  }
  const std::vector<Item> items = Summary();
  // Cumulative weight at or below each summary item.
  std::vector<int64_t> cum(items.size());
  int64_t running = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    running += items[i].weight;
    cum[i] = running;
  }
  const int64_t n = count_;
  std::vector<double> rank_cuts;
  rank_cuts.reserve(q - 1);
  for (int i = 1; i < q; ++i) {
    // The cut at sorted position CutRank(n, i, q) is the first summary
    // item whose cumulative weight exceeds that position.
    const int64_t pos = IntervalGrid::CutRank(n, i, q);
    const auto it = std::upper_bound(cum.begin(), cum.end(), pos);
    const size_t idx = std::min<size_t>(
        static_cast<size_t>(it - cum.begin()), items.size() - 1);
    rank_cuts.push_back(items[idx].value);
  }
  return IntervalGrid::FromRankCuts(rank_cuts, min_value_, max_value_);
}

int64_t QuantileSketch::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(*this));
  for (const std::vector<double>& level : levels_) {
    bytes += static_cast<int64_t>(level.capacity()) * sizeof(double);
  }
  return bytes;
}

bool QuantileSketch::FromState(int capacity, int64_t count, double min_value,
                               double max_value, int64_t error_bound,
                               std::vector<std::vector<double>> levels,
                               QuantileSketch* out) {
  if (capacity < 8 || count < 0 || error_bound < 0) return false;
  if (count == 0) {
    for (const std::vector<double>& level : levels) {
      if (!level.empty()) return false;
    }
    *out = QuantileSketch(capacity);
    return true;
  }
  if (min_value > max_value) return false;
  if (std::isnan(min_value) || std::isnan(max_value)) return false;
  int64_t ladder_count = 0;
  for (size_t h = 0; h < levels.size(); ++h) {
    if (h >= 63) return false;
    if (levels[h].size() > static_cast<size_t>(capacity) * 2) return false;
    if (h > 0 && !std::is_sorted(levels[h].begin(), levels[h].end())) {
      return false;
    }
    for (double v : levels[h]) {
      if (std::isnan(v) || v < min_value || v > max_value) return false;
    }
    ladder_count += static_cast<int64_t>(levels[h].size()) << h;
  }
  if (ladder_count != count) return false;
  QuantileSketch sketch(capacity);
  sketch.count_ = count;
  sketch.min_value_ = min_value;
  sketch.max_value_ = max_value;
  sketch.error_bound_ = error_bound;
  sketch.levels_ = std::move(levels);
  *out = std::move(sketch);
  return true;
}

}  // namespace cmp
