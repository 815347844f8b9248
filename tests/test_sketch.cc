#include "hist/sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "hist/grid_builder.h"
#include "hist/grids.h"
#include "hist/quantiles.h"

namespace cmp {
namespace {

// True rank (count of values <= v) from the raw data.
int64_t TrueRankAtMost(const std::vector<double>& values, double v) {
  int64_t rank = 0;
  for (double x : values) rank += x <= v ? 1 : 0;
  return rank;
}

// Asserts the sketch's core rank-accuracy contract over `values`: for
// every input value the estimated rank is within the sketch's own
// advertised error bound of the truth, and the bound itself is
// meaningfully sublinear in n.
void CheckRankErrorBound(const std::vector<double>& values, int capacity) {
  QuantileSketch sketch(capacity);
  for (double v : values) sketch.Add(v);
  ASSERT_EQ(sketch.count(), static_cast<int64_t>(values.size()));

  const int64_t bound = sketch.rank_error_bound();
  // The whole point of sketching: the bound stays well below n.
  if (values.size() >= 4096) {
    EXPECT_LT(bound, static_cast<int64_t>(values.size()) / 4);
  }
  int64_t worst = 0;
  for (size_t i = 0; i < values.size(); i += 7) {
    const double v = values[i];
    const int64_t est = sketch.EstimatedRankAtMost(v);
    const int64_t truth = TrueRankAtMost(values, v);
    worst = std::max(worst, std::abs(est - truth));
  }
  EXPECT_LE(worst, bound) << "n=" << values.size() << " k=" << capacity;

  // Min/max are tracked exactly regardless of compaction.
  EXPECT_EQ(sketch.min_value(),
            *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(sketch.max_value(),
            *std::max_element(values.begin(), values.end()));
}

TEST(QuantileSketch, RankErrorBoundSortedOrder) {
  std::vector<double> values(20000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i);
  }
  CheckRankErrorBound(values, 64);
  CheckRankErrorBound(values, 512);
}

TEST(QuantileSketch, RankErrorBoundReverseOrder) {
  std::vector<double> values(20000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(values.size() - i);
  }
  CheckRankErrorBound(values, 64);
  CheckRankErrorBound(values, 512);
}

TEST(QuantileSketch, RankErrorBoundDuplicateHeavy) {
  // 90% of the mass on 3 values, the rest uniform: compacted summaries
  // must still rank the heavy atoms correctly.
  Rng rng(11);
  std::vector<double> values;
  values.reserve(30000);
  for (int i = 0; i < 30000; ++i) {
    if (i % 10 < 9) {
      values.push_back(static_cast<double>(i % 3) * 10.0);
    } else {
      values.push_back(rng.Uniform(-100.0, 100.0));
    }
  }
  CheckRankErrorBound(values, 64);
  CheckRankErrorBound(values, 512);
}

TEST(QuantileSketch, RankErrorBoundSingleValue) {
  const std::vector<double> values(10000, 3.25);
  CheckRankErrorBound(values, 64);
  // Every estimate of the single atom must be exact: all retained items
  // equal the value.
  QuantileSketch sketch(64);
  for (double v : values) sketch.Add(v);
  EXPECT_EQ(sketch.EstimatedRankAtMost(3.25), 10000);
  EXPECT_EQ(sketch.EstimatedRankAtMost(3.24), 0);
}

TEST(QuantileSketch, RankErrorBoundRandomOrder) {
  Rng rng(7);
  std::vector<double> values(25000);
  for (auto& v : values) v = rng.Uniform(0.0, 1.0);
  CheckRankErrorBound(values, 64);
  CheckRankErrorBound(values, 256);
}

TEST(QuantileSketch, ExactWhileUncompacted) {
  // Below capacity no compaction happens: ranks are exact and the bound
  // says so.
  Rng rng(3);
  std::vector<double> values(500);
  for (auto& v : values) v = rng.Uniform(-5.0, 5.0);
  QuantileSketch sketch(512);
  for (double v : values) sketch.Add(v);
  EXPECT_EQ(sketch.rank_error_bound(), 0);
  for (double v : values) {
    EXPECT_EQ(sketch.EstimatedRankAtMost(v), TrueRankAtMost(values, v));
  }
}

TEST(QuantileSketch, EstimatedRankIsMonotone) {
  Rng rng(19);
  QuantileSketch sketch(32);
  for (int i = 0; i < 50000; ++i) sketch.Add(rng.Uniform(0.0, 1.0));
  int64_t prev = -1;
  for (double v = -0.1; v <= 1.1; v += 0.01) {
    const int64_t r = sketch.EstimatedRankAtMost(v);
    EXPECT_GE(r, prev);
    prev = r;
  }
  EXPECT_EQ(sketch.EstimatedRankAtMost(2.0), sketch.count());
  EXPECT_EQ(sketch.EstimatedRankAtMost(-1.0), 0);
}

TEST(QuantileSketch, MemorySublinear) {
  QuantileSketch sketch(512);
  for (int i = 0; i < 1000000; ++i) sketch.Add(static_cast<double>(i));
  // 1M doubles raw = 8MB; the sketch must stay orders of magnitude
  // below (k * O(log(n/k)) items).
  EXPECT_LT(sketch.MemoryBytes(), 512 * 24 * 64);
  EXPECT_EQ(sketch.count(), 1000000);
}

TEST(QuantileSketch, DeterministicAcrossReruns) {
  auto build = [] {
    Rng rng(23);
    QuantileSketch s(64);
    for (int i = 0; i < 40000; ++i) s.Add(rng.Uniform(0.0, 100.0));
    return s;
  };
  const QuantileSketch a = build();
  const QuantileSketch b = build();
  ASSERT_EQ(a.levels().size(), b.levels().size());
  for (size_t h = 0; h < a.levels().size(); ++h) {
    EXPECT_EQ(a.levels()[h], b.levels()[h]) << "level " << h;
  }
  EXPECT_EQ(a.rank_error_bound(), b.rank_error_bound());
}

TEST(QuantileSketch, MergeMatchesRankContract) {
  // Shard the stream, sketch each shard, merge in shard order: the
  // merged sketch must honor its own (larger) error bound.
  Rng rng(31);
  std::vector<double> values(30000);
  for (auto& v : values) v = rng.Uniform(0.0, 10.0);

  QuantileSketch merged(64);
  for (int shard = 0; shard < 5; ++shard) {
    QuantileSketch s(64);
    for (size_t i = shard * 6000; i < (shard + 1) * 6000u; ++i) {
      s.Add(values[i]);
    }
    merged.Merge(s);
  }
  ASSERT_EQ(merged.count(), 30000);
  const int64_t bound = merged.rank_error_bound();
  EXPECT_LT(bound, 30000 / 4);
  for (size_t i = 0; i < values.size(); i += 17) {
    const int64_t est = merged.EstimatedRankAtMost(values[i]);
    const int64_t truth = TrueRankAtMost(values, values[i]);
    EXPECT_LE(std::abs(est - truth), bound);
  }
}

TEST(QuantileSketch, MergeIsDeterministic) {
  auto shard = [](int which) {
    QuantileSketch s(32);
    Rng rng(100 + which);
    for (int i = 0; i < 5000; ++i) s.Add(rng.Uniform(0.0, 1.0));
    return s;
  };
  auto merge_all = [&] {
    QuantileSketch m(32);
    for (int w = 0; w < 4; ++w) m.Merge(shard(w));
    return m;
  };
  const QuantileSketch a = merge_all();
  const QuantileSketch b = merge_all();
  ASSERT_EQ(a.levels().size(), b.levels().size());
  for (size_t h = 0; h < a.levels().size(); ++h) {
    EXPECT_EQ(a.levels()[h], b.levels()[h]);
  }
}

// -- Grid parity with the exact equal-depth quantiler -------------------

TEST(QuantileSketch, UncompactedGridMatchesEqualDepthFromSorted) {
  // While no compaction has happened the sketch holds the exact data, so
  // its grid must be cut-for-cut identical to EqualDepthFromSorted —
  // including the duplicate-cut collapse and trailing-max-cut rules.
  const std::vector<std::vector<double>> cases = {
      {5.0, 1.0, 3.0, 3.0, 3.0, 3.0, 2.0, 5.0},   // duplicate-heavy
      {42.0, 42.0, 42.0, 42.0},                   // single value
      {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0},   // distinct ascending
      {8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0},   // distinct descending
      {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 9.0},   // mass at min
      {9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 0.0},   // mass at max
  };
  for (const auto& values : cases) {
    for (int q : {1, 2, 4, 10}) {
      QuantileSketch sketch(512);
      for (double v : values) sketch.Add(v);
      std::vector<double> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      const IntervalGrid expect = IntervalGrid::EqualDepthFromSorted(sorted, q);
      const IntervalGrid got = sketch.ToEqualDepthGrid(q);
      EXPECT_EQ(got.boundaries(), expect.boundaries())
          << "q=" << q << " n=" << values.size();
      EXPECT_EQ(got.num_intervals(), expect.num_intervals());
    }
  }
}

TEST(QuantileSketch, CompactedGridCollapsesDuplicateCuts) {
  // 95% of the mass on one atom: most quantile positions land on the
  // atom and must collapse to a single cut, exactly like the exact path.
  QuantileSketch sketch(64);
  Rng rng(5);
  for (int i = 0; i < 40000; ++i) {
    sketch.Add(i % 20 == 0 ? rng.Uniform(100.0, 200.0) : 7.5);
  }
  const IntervalGrid grid = sketch.ToEqualDepthGrid(10);
  const auto& cuts = grid.boundaries();
  EXPECT_TRUE(std::is_sorted(cuts.begin(), cuts.end()));
  for (size_t i = 1; i < cuts.size(); ++i) {
    EXPECT_LT(cuts[i - 1], cuts[i]) << "duplicate cut survived";
  }
  // No cut may sit at (or beyond) the maximum — the last interval is
  // unbounded above, same rule as the exact quantiler.
  for (double c : cuts) EXPECT_LT(c, sketch.max_value());
}

TEST(QuantileSketch, SingleValueGridIsOneInterval) {
  QuantileSketch sketch(32);
  for (int i = 0; i < 10000; ++i) sketch.Add(-3.0);
  const IntervalGrid grid = sketch.ToEqualDepthGrid(100);
  EXPECT_EQ(grid.num_intervals(), 1);
}

TEST(QuantileSketch, FromStateRoundTrip) {
  Rng rng(77);
  QuantileSketch sketch(64);
  for (int i = 0; i < 30000; ++i) sketch.Add(rng.Uniform(-1.0, 1.0));
  QuantileSketch back;
  ASSERT_TRUE(QuantileSketch::FromState(
      sketch.capacity(), sketch.count(), sketch.min_value(),
      sketch.max_value(), sketch.rank_error_bound(), sketch.levels(), &back));
  EXPECT_EQ(back.count(), sketch.count());
  EXPECT_EQ(back.rank_error_bound(), sketch.rank_error_bound());
  for (double v = -1.0; v <= 1.0; v += 0.05) {
    EXPECT_EQ(back.EstimatedRankAtMost(v), sketch.EstimatedRankAtMost(v));
  }
}

TEST(QuantileSketch, FromStateRejectsInconsistency) {
  QuantileSketch sketch(64);
  for (int i = 0; i < 100; ++i) sketch.Add(static_cast<double>(i));
  QuantileSketch out;
  // Count that does not match the ladder.
  EXPECT_FALSE(QuantileSketch::FromState(64, 5, 0.0, 99.0, 0,
                                         sketch.levels(), &out));
  // Bad capacity.
  EXPECT_FALSE(QuantileSketch::FromState(2, 100, 0.0, 99.0, 0,
                                         sketch.levels(), &out));
  // min > max.
  EXPECT_FALSE(QuantileSketch::FromState(64, 100, 99.0, 0.0, 0,
                                         sketch.levels(), &out));
}

// -- Equal-depth grids: exact builder and sketch ---------------------

TEST(ExactAttrGridBuilder, MatchesHistoricalGridAndMarks) {
  Rng rng(13);
  std::vector<double> column(5000);
  for (auto& v : column) v = rng.Uniform(0.0, 50.0);
  // Heavy ties so interior marks are non-trivial.
  for (size_t i = 0; i < column.size(); i += 3) column[i] = 25.0;

  ExactAttrGridBuilder builder;
  builder.Add(column.data(), static_cast<int64_t>(column.size()));
  const AttrGridResult result =
      builder.Finish(100, Discretization::kEqualDepth);

  std::vector<double> sorted = column;
  std::sort(sorted.begin(), sorted.end());
  const IntervalGrid expect = IntervalGrid::EqualDepthFromSorted(sorted, 100);
  EXPECT_EQ(result.grid.boundaries(), expect.boundaries());
  EXPECT_EQ(result.interior, InteriorMarksFromSorted(sorted, expect));
}

TEST(QuantileSketch, EqualDepthGridStaysNearExactCuts) {
  Rng rng(41);
  std::vector<double> column(60000);
  for (auto& v : column) v = rng.Uniform(0.0, 1.0);

  QuantileSketch sketch(512);
  sketch.AddN(column.data(), static_cast<int64_t>(column.size()));
  const IntervalGrid got = sketch.ToEqualDepthGrid(10);

  std::vector<double> sorted = column;
  std::sort(sorted.begin(), sorted.end());
  // Uniform data, q=10: exact cuts are near 0.1, 0.2, ...; sketch cuts
  // must land within the sketch's rank error (a small fraction of n).
  ASSERT_EQ(got.num_intervals(), 10);
  const auto& cuts = got.boundaries();
  for (size_t i = 0; i < cuts.size(); ++i) {
    const double exact = sorted[(sorted.size() * (i + 1)) / 10];
    EXPECT_NEAR(cuts[i], exact, 0.02) << "cut " << i;
  }
  // Bounded memory: far below the 480KB raw column.
  EXPECT_LT(sketch.MemoryBytes(), 200 * 1024);
}

}  // namespace
}  // namespace cmp
