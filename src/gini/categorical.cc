#include "gini/categorical.h"

#include <bit>
#include <limits>

#include "gini/gini.h"

namespace cmp {

CategoricalSplit BestCategoricalSplit(const Histogram1D& hist,
                                      int exhaustive_limit) {
  CategoricalSplit out;
  const int card = hist.num_intervals();
  if (card < 2) return out;
  const std::vector<int64_t> totals = hist.ClassTotals();
  int64_t n = 0;
  for (int64_t t : totals) n += t;
  if (n == 0) return out;

  // Each subset's left counts are built incrementally and scored with
  // BoundaryGini(left, totals), which is bit-identical to SplitGini over
  // (left, totals - left): no per-subset vectors.
  const size_t nc = totals.size();
  std::vector<int64_t> left(nc, 0);
  auto empty_side = [&](const int64_t* counts) {
    int64_t left_n = 0;
    for (size_t c = 0; c < nc; ++c) left_n += counts[c];
    return left_n == 0 || left_n == n;
  };

  uint64_t best_mask = 0;
  double best_gini = std::numeric_limits<double>::infinity();

  if (card <= exhaustive_limit && card < 63) {
    // Enumerate half of the subsets (complement symmetric) in ascending
    // mask order; skip empty / full splits. Going from mask - 1 to mask
    // sets bit t = ctz(mask) and clears every bit below it, so the left
    // counts gain row t and lose below[t], the sum of rows [0, t).
    std::vector<int64_t> below(static_cast<size_t>(card) * nc, 0);
    for (int v = 1; v < card; ++v) {
      const int64_t* r = hist.row(v - 1);
      for (size_t c = 0; c < nc; ++c) {
        below[v * nc + c] = below[(v - 1) * nc + c] + r[c];
      }
    }
    const uint64_t limit = 1ull << (card - 1);
    for (uint64_t mask = 1; mask < limit; ++mask) {
      const int t = std::countr_zero(mask);
      const int64_t* r = hist.row(t);
      for (size_t c = 0; c < nc; ++c) left[c] += r[c] - below[t * nc + c];
      if (empty_side(left.data())) continue;
      const double g = BoundaryGini(left, totals);
      if (g < best_gini) {
        best_gini = g;
        best_mask = mask;
      }
    }
  } else {
    // Greedy hill-climbing: start from the single best value, then keep
    // adding the value that lowers gini most until no improvement. `left`
    // holds the counts of `mask`; `cand` those of mask + one value.
    std::vector<int64_t> cand(nc);
    uint64_t mask = 0;
    double cur = std::numeric_limits<double>::infinity();
    bool improved = true;
    while (improved) {
      improved = false;
      int next_v = -1;
      double next_gini = cur;
      for (int v = 0; v < card && v < 63; ++v) {
        if ((mask >> v) & 1u) continue;
        const int64_t* r = hist.row(v);
        for (size_t c = 0; c < nc; ++c) cand[c] = left[c] + r[c];
        if (empty_side(cand.data())) continue;
        const double g = BoundaryGini(cand, totals);
        if (g < next_gini) {
          next_gini = g;
          next_v = v;
        }
      }
      if (next_v >= 0) {
        mask |= 1ull << next_v;
        const int64_t* r = hist.row(next_v);
        for (size_t c = 0; c < nc; ++c) left[c] += r[c];
        cur = next_gini;
        improved = true;
      }
    }
    best_mask = mask;
    best_gini = cur;
  }

  if (best_mask == 0 ||
      best_gini == std::numeric_limits<double>::infinity()) {
    return out;
  }
  out.left_subset.assign(card, 0);
  for (int v = 0; v < card && v < 63; ++v) {
    out.left_subset[v] = static_cast<uint8_t>((best_mask >> v) & 1u);
  }
  out.gini = best_gini;
  out.valid = true;
  return out;
}

}  // namespace cmp
