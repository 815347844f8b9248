#ifndef CMP_HIST_QUANTILES_H_
#define CMP_HIST_QUANTILES_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/types.h"

namespace cmp {

/// Order-preserving map from a non-NaN double to an unsigned key: flip
/// every bit of a negative value, set the sign bit of the rest. Keys
/// order values as `<` does, except that -0.0 sorts before +0.0, which
/// makes the order total.
inline uint64_t OrderKey(double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  const uint64_t negative =
      static_cast<uint64_t>(static_cast<int64_t>(bits) >> 63);
  return bits ^ (negative | (uint64_t{1} << 63));
}

/// The double whose OrderKey is `key`.
inline double FromOrderKey(uint64_t key) {
  const uint64_t positive =
      static_cast<uint64_t>(static_cast<int64_t>(~key) >> 63);
  return std::bit_cast<double>(key ^ (positive | (uint64_t{1} << 63)));
}

/// Equal-depth (quantile) discretization of one numeric attribute.
///
/// The grid stores the `q-1` cut values b_1 < b_2 < ... < b_{q-1} that
/// divide the attribute's domain into `q` intervals of approximately equal
/// record count. Interval `i` covers (b_i, b_{i+1}] with b_0 = -inf and
/// b_q = +inf, so a candidate split `a <= b_i` separates intervals
/// [0, i) from [i, q). Duplicate cut values (heavy ties in the data)
/// are collapsed, so the actual interval count can be lower than
/// requested; callers must use num_intervals().
class IntervalGrid {
 public:
  IntervalGrid() = default;

  /// Builds an equal-depth grid with (at most) `q` intervals from the
  /// attribute values, in any order, without sorting them: the grid of
  /// DiscretizeColumn (hist/grid_builder.h), which selects the cuts from
  /// one bucket count. The observed min/max are recorded as the grid's
  /// domain bounds. Identical, bit for bit, to EqualDepthFromSorted on the
  /// values sorted by the total order that puts -0.0 before +0.0.
  /// `values` must not contain NaN.
  static IntervalGrid EqualDepth(std::span<const double> values, int q);

  /// The same grid from a column already in ascending order: cut i is
  /// the value at position CutRank(n, i, q). The reference definition of
  /// an equal-depth grid; EqualDepth must agree with it.
  static IntervalGrid EqualDepthFromSorted(const std::vector<double>& sorted,
                                           int q);

  /// Sorted position of cut i (1 <= i < q) of an n-value column.
  static int64_t CutRank(int64_t n, int i, int q) {
    return std::min<int64_t>(n - 1, (n * i) / q);
  }

  /// The equal-depth rule shared by every grid builder (exact and
  /// sketched): `rank_cuts[i-1]` is the value at CutRank(n, i, q), for
  /// i in [1, q). Repeated cuts (heavy ties) collapse, and cuts at or
  /// above `max_value` are dropped, since they would leave the last
  /// interval empty.
  static IntervalGrid FromRankCuts(const std::vector<double>& rank_cuts,
                                   double min_value, double max_value);

  /// Builds an equal-width grid: `q` intervals of identical value span
  /// across the finite values' [min, max] (the paper's other
  /// discretization option; one min/max pass, no ordering work — but
  /// skewed data piles into few intervals). Infinite values fall in the
  /// outer intervals, a span too wide for a double is divided without
  /// overflow, and only finite cuts below the largest value are kept.
  /// The grid's min/max are the true extremes, infinities included.
  static IntervalGrid EqualWidth(std::span<const double> values, int q);

  /// Builds a grid from explicit, strictly increasing cut values and
  /// domain bounds (defaulting to the first/last cut).
  static IntervalGrid FromBoundaries(std::vector<double> boundaries,
                                     double min_value = 0.0,
                                     double max_value = 0.0);

  int num_intervals() const {
    return static_cast<int>(boundaries_.size()) + 1;
  }

  /// Index of the interval containing `v`, in [0, num_intervals()):
  /// the first cut >= v (std::lower_bound), for every non-NaN double; a
  /// NaN gives 0. One multiply maps `v` to a bucket of the grid's bucket
  /// index, whose range of cuts (usually empty or one cut) is then
  /// searched without branching on the data. The range ends at a cut of
  /// a higher bucket, which is above `v`, or at the +inf sentinel, so the
  /// final compare may read one past it.
  int IntervalOf(double v) const {
    const int b = BucketOf(v);
    const double* const cuts = sentinel_cuts_.data();
    const double* base = cuts + first_[b];
    size_t len = static_cast<size_t>(first_[b + 1] - first_[b]);
    while (len > 1) {
      const size_t half = len / 2;
      base += static_cast<size_t>(base[half - 1] < v) * half;
      len -= half;
    }
    return static_cast<int>(base - cuts) + (*base < v);
  }

  /// The cut value at the *upper* edge of interval `i`; only valid for
  /// i < num_intervals()-1 (the last interval is unbounded above).
  double UpperCut(int i) const { return boundaries_[i]; }

  /// All cut values (size num_intervals()-1), ascending.
  const std::vector<double>& boundaries() const { return boundaries_; }

  /// Smallest / largest attribute value observed when the grid was built
  /// (finite stand-ins for the outer interval edges; used by the linear
  /// split search to bound grid cells in value space).
  double min_value() const { return min_value_; }
  double max_value() const { return max_value_; }

  /// Bytes used by the grid and its bucket index (for memory
  /// accounting).
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(boundaries_.size()) * sizeof(double) +
           static_cast<int64_t>(first_.size()) * sizeof(int32_t) +
           static_cast<int64_t>(sentinel_cuts_.size()) * sizeof(double);
  }

 private:
  // Bucket of `v` in the bucket index: (v - origin) * scale, clamped to
  // [0, nb - 1] before the integer conversion. Monotone in `v`, so a cut
  // in a lower bucket is below every value of a higher one. Cuts and
  // probes both get their bucket here; a NaN lands in bucket 0.
  int BucketOf(double v) const {
    const double x = std::min(std::max(0.0, (v - origin_) * scale_), top_);
    return static_cast<int>(x);
  }

  // Builds the bucket index over [cuts.front(), cuts.back()]; every
  // factory calls it once the cuts are final.
  void BuildIndex();

  std::vector<double> boundaries_;
  double min_value_ = 0.0;
  double max_value_ = 0.0;
  // The bucket index: nb buckets, nb the smallest power of two >= 4 x
  // the cut count, capped at kMaxBuckets. first_[b] is the number of cuts
  // whose bucket is below b, and first_[nb] is the cut count. A span or
  // scale that is not finite leaves one bucket: a plain binary search.
  static constexpr int kMaxBuckets = 4096;
  double origin_ = 0.0;
  double scale_ = 0.0;
  double top_ = 0.0;  // nb - 1
  std::vector<int32_t> first_ = std::vector<int32_t>(2, 0);
  // The cuts followed by +inf, which IntervalOf searches.
  std::vector<double> sentinel_cuts_ = {
      std::numeric_limits<double>::infinity()};
};

}  // namespace cmp

#endif  // CMP_HIST_QUANTILES_H_
