#include "gini/categorical.h"

#include <gtest/gtest.h>

#include <bit>
#include <limits>

#include "common/random.h"
#include "gini/gini.h"

namespace cmp {
namespace {

TEST(CategoricalSplit, PerfectSeparation) {
  // Values {0,1} are class 0, values {2,3} are class 1.
  Histogram1D hist(4, 2);
  hist.Add(0, 0, 10);
  hist.Add(1, 0, 5);
  hist.Add(2, 1, 8);
  hist.Add(3, 1, 7);
  const CategoricalSplit s = BestCategoricalSplit(hist);
  ASSERT_TRUE(s.valid);
  EXPECT_DOUBLE_EQ(s.gini, 0.0);
  EXPECT_EQ(s.left_subset[0], s.left_subset[1]);
  EXPECT_EQ(s.left_subset[2], s.left_subset[3]);
  EXPECT_NE(s.left_subset[0], s.left_subset[2]);
}

TEST(CategoricalSplit, SingleValueInvalid) {
  Histogram1D hist(1, 2);
  hist.Add(0, 0, 5);
  hist.Add(0, 1, 5);
  EXPECT_FALSE(BestCategoricalSplit(hist).valid);
}

TEST(CategoricalSplit, EmptyHistogramInvalid) {
  Histogram1D hist(3, 2);
  EXPECT_FALSE(BestCategoricalSplit(hist).valid);
}

TEST(CategoricalSplit, TwoValues) {
  Histogram1D hist(2, 2);
  hist.Add(0, 0, 9);
  hist.Add(0, 1, 1);
  hist.Add(1, 0, 2);
  hist.Add(1, 1, 8);
  const CategoricalSplit s = BestCategoricalSplit(hist);
  ASSERT_TRUE(s.valid);
  // Only one bipartition exists; verify its gini.
  const std::vector<int64_t> left = {9, 1};
  const std::vector<int64_t> right = {2, 8};
  EXPECT_NEAR(s.gini, SplitGini(left, right), 1e-12);
}

// The greedy path (cardinality above the exhaustive limit) must still
// find a reasonable split; on perfectly separable data it finds the
// perfect one.
TEST(CategoricalSplit, GreedyFindsPerfectSeparation) {
  const int card = 20;
  Histogram1D hist(card, 2);
  for (int v = 0; v < card; ++v) {
    hist.Add(v, v % 2 == 0 ? 0 : 1, 5);
  }
  const CategoricalSplit s = BestCategoricalSplit(hist, /*exhaustive_limit=*/8);
  ASSERT_TRUE(s.valid);
  EXPECT_DOUBLE_EQ(s.gini, 0.0);
}

// Exhaustive and greedy agree on separable data and greedy is never
// better than exhaustive (exhaustive is optimal).
TEST(CategoricalSplit, GreedyNeverBeatsExhaustive) {
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    const int card = 8;
    Histogram1D hist(card, 2);
    for (int v = 0; v < card; ++v) {
      hist.Add(v, 0, rng.UniformInt(0, 20));
      hist.Add(v, 1, rng.UniformInt(0, 20));
    }
    const CategoricalSplit exhaustive =
        BestCategoricalSplit(hist, /*exhaustive_limit=*/12);
    const CategoricalSplit greedy =
        BestCategoricalSplit(hist, /*exhaustive_limit=*/2);
    if (exhaustive.valid && greedy.valid) {
      EXPECT_LE(exhaustive.gini, greedy.gini + 1e-12);
    }
  }
}

TEST(CategoricalSplit, SkipsEmptySideSubsets) {
  // One value holds everything: every bipartition puts all records on
  // one side, so no valid split exists.
  Histogram1D hist(3, 2);
  hist.Add(1, 0, 5);
  hist.Add(1, 1, 5);
  EXPECT_FALSE(BestCategoricalSplit(hist).valid);
}

// The subset search as it was before the incremental left counts: every
// subset's counts are summed afresh into new vectors and scored with
// SplitGini. BestCategoricalSplit must reproduce it bit for bit.
double ReferenceSubsetGini(const Histogram1D& hist, uint64_t mask,
                           const std::vector<int64_t>& totals) {
  const int nc = hist.num_classes();
  std::vector<int64_t> left(nc, 0);
  for (int v = 0; v < hist.num_intervals(); ++v) {
    if ((mask >> v) & 1u) {
      const int64_t* r = hist.row(v);
      for (int c = 0; c < nc; ++c) left[c] += r[c];
    }
  }
  std::vector<int64_t> right(nc);
  for (int c = 0; c < nc; ++c) right[c] = totals[c] - left[c];
  return SplitGini(left, right);
}

CategoricalSplit ReferenceBestCategoricalSplit(const Histogram1D& hist,
                                               int exhaustive_limit = 12) {
  CategoricalSplit out;
  const int card = hist.num_intervals();
  if (card < 2) return out;
  const std::vector<int64_t> totals = hist.ClassTotals();
  int64_t n = 0;
  for (int64_t t : totals) n += t;
  if (n == 0) return out;
  auto empty_side = [&](uint64_t mask) {
    int64_t left_n = 0;
    for (int v = 0; v < card; ++v) {
      if ((mask >> v) & 1u) left_n += hist.IntervalTotal(v);
    }
    return left_n == 0 || left_n == n;
  };
  uint64_t best_mask = 0;
  double best_gini = std::numeric_limits<double>::infinity();
  if (card <= exhaustive_limit && card < 63) {
    const uint64_t limit = 1ull << (card - 1);
    for (uint64_t mask = 1; mask < limit; ++mask) {
      if (empty_side(mask)) continue;
      const double g = ReferenceSubsetGini(hist, mask, totals);
      if (g < best_gini) {
        best_gini = g;
        best_mask = mask;
      }
    }
  } else {
    uint64_t mask = 0;
    double cur = std::numeric_limits<double>::infinity();
    bool improved = true;
    while (improved) {
      improved = false;
      uint64_t next_mask = mask;
      double next_gini = cur;
      for (int v = 0; v < card && v < 63; ++v) {
        if ((mask >> v) & 1u) continue;
        const uint64_t cand = mask | (1ull << v);
        if (empty_side(cand)) continue;
        const double g = ReferenceSubsetGini(hist, cand, totals);
        if (g < next_gini) {
          next_gini = g;
          next_mask = cand;
        }
      }
      if (next_mask != mask) {
        mask = next_mask;
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

void ExpectSameSplit(const Histogram1D& hist) {
  const CategoricalSplit want = ReferenceBestCategoricalSplit(hist);
  const CategoricalSplit got = BestCategoricalSplit(hist);
  ASSERT_EQ(got.valid, want.valid);
  if (!want.valid) return;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.gini),
            std::bit_cast<uint64_t>(want.gini));
  EXPECT_EQ(got.left_subset, want.left_subset);
}

// Cardinalities 2-12 take the exhaustive path and 13-25 the greedy one
// (default limit 12). Small counts make many subsets tie, so the
// first-lowest rule is exercised; some value rows are empty.
TEST(CategoricalSplit, MatchesReferenceEnumerationBitForBit) {
  Rng rng(43);
  for (int card = 2; card <= 25; ++card) {
    for (int nc = 2; nc <= 7; ++nc) {
      for (int trial = 0; trial < 4; ++trial) {
        SCOPED_TRACE(testing::Message() << "card " << card << " classes "
                                        << nc << " trial " << trial);
        Histogram1D hist(card, nc);
        const int64_t max_count = trial % 2 == 0 ? 3 : 40;
        for (int v = 0; v < card; ++v) {
          if (rng.Bernoulli(0.25)) continue;  // an empty value row
          for (int c = 0; c < nc; ++c) {
            hist.Add(v, c, rng.UniformInt(0, max_count));
          }
        }
        ExpectSameSplit(hist);
      }
    }
  }
}

// Every bipartition puts all records on one side: both searches find
// no valid split, whichever value holds the records.
TEST(CategoricalSplit, EverySplitOneSidedMatchesReference) {
  for (int card : {2, 7, 12, 13, 25}) {
    for (int nc : {2, 5}) {
      for (int v : {0, card / 2, card - 1}) {
        Histogram1D hist(card, nc);
        for (int c = 0; c < nc; ++c) hist.Add(v, c, 3 + c);
        ExpectSameSplit(hist);
        EXPECT_FALSE(BestCategoricalSplit(hist).valid);
      }
    }
  }
}

}  // namespace
}  // namespace cmp
