#include "hist/quantiles.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <utility>

namespace cmp {

namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;

// The selection's counting pass uses at most 2^12 buckets: 4096 counters
// stay cache-resident while the column streams past.
constexpr int kBucketBits = 12;

// At most this many keys are selected directly, without bucketing.
constexpr int64_t kDirectSelect = 4096;

// Order-preserving map from a non-NaN double to an unsigned key: flip
// every bit of a negative value, set the sign bit of the rest. Keys
// order values as `<` does, except that -0.0 sorts before +0.0, which
// makes the order total.
uint64_t OrderKey(double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  const uint64_t negative = static_cast<uint64_t>(
      static_cast<int64_t>(bits) >> 63);
  return bits ^ (negative | kSignBit);
}

double FromOrderKey(uint64_t key) {
  const uint64_t positive = static_cast<uint64_t>(
      static_cast<int64_t>(~key) >> 63);
  return std::bit_cast<double>(key ^ (positive | kSignBit));
}

// Smallest and largest of the keys key_of(src[i]), i in [0, n), n > 0.
template <class T, class KeyOf>
std::pair<uint64_t, uint64_t> KeyRange(const T* src, int64_t n,
                                       KeyOf key_of) {
  uint64_t lo = ~uint64_t{0};
  uint64_t hi = 0;
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t key = key_of(src[i]);
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }
  return {lo, hi};
}

uint64_t SameKey(uint64_t key) { return key; }

// Leaves the key of sorted rank ranks[k] in out[k], for ranks that
// ascend, are distinct and index [first, last) from `base`. Selecting the
// middle rank first and recursing on both sides costs O(len * log(#ranks))
// rather than the O(len * #ranks) of selecting the ranks in turn.
void SelectRanks(uint64_t* first, uint64_t* last, int64_t base,
                 const int64_t* ranks, int64_t num_ranks, uint64_t* out) {
  if (num_ranks == 0) return;
  const int64_t mid = num_ranks / 2;
  uint64_t* const nth = first + (ranks[mid] - base);
  std::nth_element(first, nth, last);
  out[mid] = *nth;
  SelectRanks(first, nth, base, ranks, mid, out);
  SelectRanks(nth + 1, last, ranks[mid] + 1, ranks + mid + 1,
              num_ranks - mid - 1, out + mid + 1);
}

// Leaves in out[k] the key of sorted rank ranks[k] among the n keys
// key_of(src[i]), which all lie in [lo, hi]; the ranks ascend, are
// distinct and index the keys from `base`. The keys are counted into at
// most 4096 equal-width buckets over [lo, hi]; only the buckets that hold
// a rank are copied out, and each is selected the same way over its own
// key range. Every level narrows the range at least 2^11-fold, so a
// spike (a run of zeros) or an outlier costs one more level, not a sort,
// and a bucket of one repeated key ends the descent.
template <class T, class KeyOf>
void SelectKeys(const T* src, int64_t n, KeyOf key_of, uint64_t lo,
                uint64_t hi, int64_t base, const int64_t* ranks,
                int64_t num_ranks, uint64_t* out) {
  if (num_ranks == 0) return;
  if (lo == hi) {
    std::fill_n(out, num_ranks, lo);
    return;
  }
  if (n <= kDirectSelect) {
    std::vector<uint64_t> keys(n);
    for (int64_t i = 0; i < n; ++i) keys[i] = key_of(src[i]);
    SelectRanks(keys.data(), keys.data() + n, base, ranks, num_ranks, out);
    return;
  }
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(hi - lo)) - kBucketBits);
  const size_t num_buckets = static_cast<size_t>((hi - lo) >> shift) + 1;
  // start[b] is the rank (from base) of the first key in bucket b.
  std::vector<int64_t> start(num_buckets + 1, 0);
  for (int64_t i = 0; i < n; ++i) {
    ++start[((key_of(src[i]) - lo) >> shift) + 1];
  }
  start[0] = base;
  for (size_t b = 0; b < num_buckets; ++b) start[b + 1] += start[b];

  // Give each bucket that holds a rank a region of the candidate buffer
  // (fill[b] stays -1 for the others), then copy the keys out.
  std::vector<int64_t> fill(num_buckets, -1);
  std::vector<int> bucket_of(num_ranks);
  int64_t num_candidates = 0;
  for (int64_t k = 0, b = 0; k < num_ranks; ++k) {
    while (start[b + 1] <= ranks[k]) ++b;
    bucket_of[k] = static_cast<int>(b);
    if (fill[b] < 0) {
      fill[b] = num_candidates;
      num_candidates += start[b + 1] - start[b];
    }
  }
  std::vector<uint64_t> candidates(num_candidates);
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t key = key_of(src[i]);
    int64_t& at = fill[(key - lo) >> shift];
    if (at >= 0) candidates[at++] = key;
  }

  // fill[b] now marks the end of bucket b's region.
  for (int64_t k = 0; k < num_ranks;) {
    const int b = bucket_of[k];
    int64_t k_end = k;
    while (k_end < num_ranks && bucket_of[k_end] == b) ++k_end;
    const int64_t size = start[b + 1] - start[b];
    const uint64_t* const region = candidates.data() + fill[b] - size;
    const auto [region_lo, region_hi] = KeyRange(region, size, SameKey);
    SelectKeys(region, size, SameKey, region_lo, region_hi, start[b],
               ranks + k, k_end - k, out + k);
    k = k_end;
  }
}

}  // namespace

IntervalGrid IntervalGrid::EqualDepth(const std::vector<double>& values,
                                      int q) {
  assert(q >= 1);
  if (values.empty()) return IntervalGrid();
  const int64_t n = static_cast<int64_t>(values.size());
  const auto [lo, hi] = KeyRange(values.data(), n, OrderKey);
  // The distinct target ranks, ascending (n < q repeats some).
  std::vector<int64_t> ranks;
  for (int i = 1; i < q; ++i) {
    const int64_t rank = CutRank(n, i, q);
    if (ranks.empty() || rank != ranks.back()) ranks.push_back(rank);
  }
  std::vector<uint64_t> keys(ranks.size());
  SelectKeys(values.data(), n, OrderKey, lo, hi, 0, ranks.data(),
             static_cast<int64_t>(ranks.size()), keys.data());
  std::vector<double> rank_cuts;
  rank_cuts.reserve(q - 1);
  for (int i = 1, k = 0; i < q; ++i) {
    while (ranks[k] != CutRank(n, i, q)) ++k;
    rank_cuts.push_back(FromOrderKey(keys[k]));
  }
  return FromRankCuts(rank_cuts, FromOrderKey(lo), FromOrderKey(hi));
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

IntervalGrid IntervalGrid::EqualWidth(const std::vector<double>& values,
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
