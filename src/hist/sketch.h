#ifndef CMP_HIST_SKETCH_H_
#define CMP_HIST_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hist/quantiles.h"

namespace cmp {

/// Deterministic mergeable quantile sketch (a KLL/MRL-style compactor
/// ladder without randomization).
///
/// The sketch keeps a ladder of buffers: level h holds values that each
/// stand for 2^h input records. Values enter at level 0; when a level
/// reaches the fixed capacity k it is sorted and compacted — every
/// second value (odd positions of the sorted run) is promoted to the
/// next level with doubled weight, the rest are discarded. One
/// compaction of level h perturbs any rank estimate by at most 2^h
/// records, so the sketch tracks the exact cumulative bound as it goes
/// (`rank_error_bound()`), and the property tests assert real data never
/// exceeds it. For n inputs the ladder has O(log(n/k)) levels of at
/// most ~k values each — O(k log(n/k)) memory, sublinear in n — and the
/// worst-case rank error is O(n log(n/k) / k).
///
/// Everything is deterministic: Add is a pure left fold over the input
/// order, Merge(a, b) is a pure function of the two states, and there is
/// no RNG anywhere — so sketches built by sharded ingestion and merged
/// in shard (rank) order are byte-stable across thread counts and
/// reruns. The streaming trainer additionally feeds every sketch in
/// ascending record order, which makes its sketch state independent of
/// block size and worker layout by construction.
///
/// Exact min/max are tracked on the side (they survive compaction), so
/// grids derived from the sketch carry the same domain bounds the exact
/// sort-based grids do.
class QuantileSketch {
 public:
  /// One value of the weighted summary: stands for `weight` records.
  struct Item {
    double value = 0.0;
    int64_t weight = 0;
  };

  /// `capacity` is the per-level buffer size k (>= 8). Larger k = more
  /// memory, tighter rank error (eps ~ log(n/k)/k).
  explicit QuantileSketch(int capacity = kDefaultCapacity);

  /// Default capacity used by the streaming trainer.
  static constexpr int kDefaultCapacity = 512;

  void Add(double v);
  void AddN(const double* values, int64_t n);

  /// Folds `other` into this sketch (level-wise concatenation followed
  /// by deterministic compaction). Callers that shard ingestion must
  /// merge in a fixed shard order; the result is then reproducible.
  void Merge(const QuantileSketch& other);

  int64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Exact extremes of everything added (valid when !empty()).
  double min_value() const { return min_value_; }
  double max_value() const { return max_value_; }
  int capacity() const { return capacity_; }

  /// Conservative worst-case |estimated rank - true rank| in records.
  /// 0 while the sketch is still exact (no compaction has happened).
  int64_t rank_error_bound() const { return error_bound_; }

  /// The weighted summary, sorted ascending by value (ties in any
  /// deterministic order — equal values are interchangeable for ranks).
  std::vector<Item> Summary() const;

  /// Estimated number of records with value <= v. Monotone in v, within
  /// rank_error_bound() of the truth, and exact while no compaction has
  /// happened.
  int64_t EstimatedRankAtMost(double v) const;

  /// Equal-depth grid with (at most) `q` intervals from the summary,
  /// mirroring IntervalGrid::EqualDepthFromSorted cut for cut: the cut
  /// for quantile i is the summary value at rank position
  /// IntervalGrid::CutRank(n, i, q), and IntervalGrid::FromRankCuts
  /// collapses duplicates and drops trailing cuts at the maximum. On a
  /// sketch that never compacted the result is byte-identical to
  /// EqualDepthFromSorted on the sorted input.
  IntervalGrid ToEqualDepthGrid(int q) const;

  int64_t MemoryBytes() const;

  // -- Serialization surface (io/sketch_sidecar.cc) -------------------
  // The ladder is the whole state; levels()[h] holds level h's values
  // (level 0 in insertion order, levels >= 1 ascending).
  const std::vector<std::vector<double>>& levels() const { return levels_; }

  /// Rebuilds a sketch from serialized state. Returns false when the
  /// state is inconsistent (count does not match the ladder, bad
  /// capacity, min > max, unsorted upper level).
  static bool FromState(int capacity, int64_t count, double min_value,
                        double max_value, int64_t error_bound,
                        std::vector<std::vector<double>> levels,
                        QuantileSketch* out);

 private:
  /// Sorts and compacts level h (promoting odd positions with doubled
  /// weight), cascading while levels overflow.
  void Compact(size_t h);

  int capacity_ = kDefaultCapacity;
  int64_t count_ = 0;
  int64_t error_bound_ = 0;
  double min_value_ = 0.0;
  double max_value_ = 0.0;
  // levels_[h]: values of weight 2^h. Level 0 is the insertion buffer
  // (unsorted); higher levels stay sorted ascending.
  std::vector<std::vector<double>> levels_;
};

}  // namespace cmp

#endif  // CMP_HIST_SKETCH_H_
