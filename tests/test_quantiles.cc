#include "hist/quantiles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/column_reader.h"
#include "common/random.h"
#include "hist/bin_codes.h"
#include "hist/grid_builder.h"
#include "hist/sketch.h"

namespace cmp {
namespace {

TEST(IntervalGrid, EmptyValues) {
  const IntervalGrid grid = IntervalGrid::EqualDepth({}, 10);
  EXPECT_EQ(grid.num_intervals(), 1);
}

TEST(IntervalGrid, SingleIntervalRequested) {
  const IntervalGrid grid =
      IntervalGrid::EqualDepth(std::vector<double>{1, 2, 3}, 1);
  EXPECT_EQ(grid.num_intervals(), 1);
  EXPECT_EQ(grid.IntervalOf(2.0), 0);
}

TEST(IntervalGrid, UniformValuesBalancedDepth) {
  std::vector<double> values(1000);
  Rng rng(5);
  for (auto& v : values) v = rng.Uniform(0, 100);
  const int q = 10;
  const IntervalGrid grid = IntervalGrid::EqualDepth(values, q);
  ASSERT_EQ(grid.num_intervals(), q);
  std::vector<int64_t> depth(q, 0);
  for (double v : values) depth[grid.IntervalOf(v)]++;
  for (int i = 0; i < q; ++i) {
    EXPECT_GE(depth[i], 50) << "interval " << i;
    EXPECT_LE(depth[i], 200) << "interval " << i;
  }
}

TEST(IntervalGrid, IntervalOfRespectsHalfOpenConvention) {
  // Interval i covers (b_i-1, b_i]: a value equal to a cut belongs to the
  // interval below it.
  const IntervalGrid grid = IntervalGrid::FromBoundaries({10.0, 20.0});
  EXPECT_EQ(grid.num_intervals(), 3);
  EXPECT_EQ(grid.IntervalOf(5.0), 0);
  EXPECT_EQ(grid.IntervalOf(10.0), 0);
  EXPECT_EQ(grid.IntervalOf(10.5), 1);
  EXPECT_EQ(grid.IntervalOf(20.0), 1);
  EXPECT_EQ(grid.IntervalOf(25.0), 2);
}

TEST(IntervalGrid, HeavyTiesCollapseCuts) {
  // 90% of the mass at one value: most quantile cuts coincide and must
  // be deduplicated, not repeated.
  std::vector<double> values(100, 42.0);
  for (int i = 0; i < 10; ++i) values.push_back(100.0 + i);
  const IntervalGrid grid = IntervalGrid::EqualDepth(values, 10);
  EXPECT_LT(grid.num_intervals(), 10);
  const auto& cuts = grid.boundaries();
  EXPECT_TRUE(std::is_sorted(cuts.begin(), cuts.end()));
  for (size_t i = 1; i < cuts.size(); ++i) {
    EXPECT_LT(cuts[i - 1], cuts[i]);
  }
}

TEST(IntervalGrid, AllValuesIdentical) {
  const std::vector<double> values(50, 7.0);
  const IntervalGrid grid = IntervalGrid::EqualDepth(values, 8);
  EXPECT_EQ(grid.num_intervals(), 1);
  EXPECT_EQ(grid.IntervalOf(7.0), 0);
}

TEST(IntervalGrid, MinMaxRecorded) {
  const IntervalGrid grid =
      IntervalGrid::EqualDepth(std::vector<double>{3, 1, 4, 1, 5}, 3);
  EXPECT_DOUBLE_EQ(grid.min_value(), 1.0);
  EXPECT_DOUBLE_EQ(grid.max_value(), 5.0);
}

TEST(IntervalGrid, LastIntervalNonEmpty) {
  // The maximum value must not sit on a cut (which would empty the last
  // interval).
  std::vector<double> values;
  Rng rng(9);
  for (int i = 0; i < 500; ++i) values.push_back(rng.Uniform(0, 1));
  const IntervalGrid grid = IntervalGrid::EqualDepth(values, 20);
  std::vector<int64_t> depth(grid.num_intervals(), 0);
  for (double v : values) depth[grid.IntervalOf(v)]++;
  EXPECT_GT(depth.back(), 0);
}

class GridDepthPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GridDepthPropertyTest, EveryIntervalNonEmptyOnContinuousData) {
  Rng rng(GetParam());
  std::vector<double> values(2000);
  for (auto& v : values) v = rng.Gaussian(0, 10);
  const IntervalGrid grid = IntervalGrid::EqualDepth(values, 50);
  std::vector<int64_t> depth(grid.num_intervals(), 0);
  for (double v : values) depth[grid.IntervalOf(v)]++;
  for (int i = 0; i < grid.num_intervals(); ++i) {
    EXPECT_GT(depth[i], 0) << "interval " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridDepthPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// -- Selection against the sorted reference ------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

// Ascending, with -0.0 before +0.0: the total order the selection uses,
// so the reference grid is well defined when both zeros occur.
std::vector<double> TotalOrderSorted(std::vector<double> values) {
  std::sort(values.begin(), values.end(), [](double a, double b) {
    return a < b || (a == b && std::signbit(a) && !std::signbit(b));
  });
  return values;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameGrid(const IntervalGrid& got, const IntervalGrid& want,
                    const std::string& what) {
  ASSERT_EQ(got.boundaries().size(), want.boundaries().size()) << what;
  for (size_t i = 0; i < got.boundaries().size(); ++i) {
    EXPECT_EQ(Bits(got.boundaries()[i]), Bits(want.boundaries()[i]))
        << what << " cut " << i;
  }
  EXPECT_EQ(Bits(got.min_value()), Bits(want.min_value())) << what;
  EXPECT_EQ(Bits(got.max_value()), Bits(want.max_value())) << what;
}

// Columns that stress the selection: bucket spikes, ties, tiny and huge
// magnitudes, infinities and signed zeros.
std::vector<std::pair<std::string, std::vector<double>>> SelectionColumns() {
  Rng rng(2024);
  std::vector<std::pair<std::string, std::vector<double>>> cols;
  auto add = [&](const std::string& name,
                 const std::function<double(int)>& value, int size = 20000) {
    std::vector<double> col(size);
    for (int i = 0; i < size; ++i) col[i] = value(i);
    cols.emplace_back(name, std::move(col));
  };
  add("uniform", [&](int) { return rng.Uniform(20000, 150000); });
  add("zero spike", [&](int i) {
    return i % 3 == 0 ? 0.0 : rng.Uniform(10000, 75000);
  });
  add("integer ties",
      [&](int) { return static_cast<double>(rng.UniformInt(20, 80)); });
  add("all equal", [](int) { return 7.5; });
  add("one value", [](int) { return 42.0; }, 1);
  add("fewer values than cuts", [&](int) { return rng.Uniform(-1, 1); }, 57);
  add("negatives", [&](int) { return rng.Uniform(-1e6, -1e-3); });
  add("gaussian", [&](int) { return rng.Gaussian(0, 1e3); });
  add("infinities", [&](int i) {
    return i % 11 == 0 ? kInf : i % 13 == 0 ? -kInf : rng.Uniform(-5, 5);
  });
  add("denormals", [&](int i) {
    const double tiny = std::numeric_limits<double>::denorm_min() *
                        static_cast<double>(rng.UniformInt(0, 1000));
    return i % 2 == 0 ? tiny : -tiny;
  });
  add("1e300 outlier", [&](int i) {
    return i == 7 ? 1e300 : rng.Uniform(20000, 150000);
  });
  add("1e308 extremes", [&](int i) {
    return i == 3 ? -1e308 : i == 5 ? 1e308 : rng.Uniform(-50, 50);
  });
  add("signed zeros", [&](int i) {
    return i % 4 == 0 ? -0.0 : i % 4 == 2 ? 0.0 : rng.Uniform(-3, 3);
  });
  add("only signed zeros", [](int i) { return i % 2 == 0 ? 0.0 : -0.0; });
  add("signed zeros with +inf", [](int i) {
    return i % 3 == 0 ? -0.0 : i % 3 == 1 ? 0.0 : kInf;
  });
  add("two adjacent doubles", [](int i) {
    return i % 2 == 0 ? 1.0 : std::nextafter(1.0, 2.0);
  });
  // At small q the last interval holds only the tail's bucket, which no
  // cut falls in: one bucket decides the interval's mark.
  add("zero spike, two-value tail", [](int i) {
    return i < 18000 ? 0.0 : i % 2 == 0 ? 50.0 : 50.001;
  });
  return cols;
}

TEST(EqualDepthSelection, MatchesSortedReferenceBitForBit) {
  for (const auto& [name, values] : SelectionColumns()) {
    const std::vector<double> sorted = TotalOrderSorted(values);
    const int n = static_cast<int>(values.size());
    for (const int q : {1, 2, 100, 300, n + 5}) {
      ExpectSameGrid(IntervalGrid::EqualDepth(values, q),
                     IntervalGrid::EqualDepthFromSorted(sorted, q),
                     name + " q=" + std::to_string(q));
    }
  }
}

TEST(EqualDepthSelection, SignedZerosAreOrderedNotInputDependent) {
  // -0.0 sorts below +0.0, so the grid depends only on the multiset,
  // not on where the zeros sit in the column.
  std::vector<double> values = {1.0, 0.0, -0.0, 2.0, -0.0, 0.0, 3.0};
  const IntervalGrid a = IntervalGrid::EqualDepth(values, 7);
  std::reverse(values.begin(), values.end());
  ExpectSameGrid(IntervalGrid::EqualDepth(values, 7), a, "reversed");
  const IntervalGrid zeros =
      IntervalGrid::EqualDepth(std::vector<double>{0.0, -0.0}, 4);
  EXPECT_TRUE(std::signbit(zeros.min_value()));
  EXPECT_FALSE(std::signbit(zeros.max_value()));
  EXPECT_EQ(zeros.num_intervals(), 1);
}

TEST(EqualDepthSelection, EqualWidthUsesTheSameExtremes) {
  for (const auto& [name, values] : SelectionColumns()) {
    const std::vector<double> sorted = TotalOrderSorted(values);
    const IntervalGrid grid = IntervalGrid::EqualWidth(values, 16);
    EXPECT_EQ(Bits(grid.min_value()), Bits(sorted.front())) << name;
    EXPECT_EQ(Bits(grid.max_value()), Bits(sorted.back())) << name;
  }
}

TEST(EqualDepthSelection, ExactBuilderMarksMatchSortedScan) {
  for (const auto& [name, values] : SelectionColumns()) {
    const std::vector<double> sorted = TotalOrderSorted(values);
    for (const Discretization kind :
         {Discretization::kEqualDepth, Discretization::kEqualWidth}) {
      for (const int q : {2, 100, 300}) {
        const std::string what =
            name + (kind == Discretization::kEqualDepth ? " depth" : " width") +
            " q=" + std::to_string(q);
        ExactAttrGridBuilder builder;
        builder.Add(values.data(), static_cast<int64_t>(values.size()));
        const AttrGridResult got = builder.Finish(q, kind);
        const IntervalGrid want =
            kind == Discretization::kEqualDepth
                ? IntervalGrid::EqualDepthFromSorted(sorted, q)
                : IntervalGrid::EqualWidth(values, q);
        ExpectSameGrid(got.grid, want, what);
        EXPECT_EQ(got.interior, InteriorMarksFromSorted(sorted, want))
            << what;
      }
    }
  }
}

// -- The chunked setup routine against the sorted reference --------------

// DiscretizeColumn's grid, marks and codes must equal the sorted
// reference for every column, interval count and chunk size, with and
// without codes, and its codes must take the width the grid needs.
TEST(DiscretizeColumn, MatchesSortedReferenceAtEveryChunkSize) {
  bool remapped = false;
  bool recoded = false;
  bool lone_bucket = false;
  for (const auto& [name, values] : SelectionColumns()) {
    const std::vector<double> sorted = TotalOrderSorted(values);
    const int64_t n = static_cast<int64_t>(values.size());
    for (const int q : {1, 2, 3, 100, 255, 256, 300, static_cast<int>(n) + 5}) {
      const IntervalGrid want = IntervalGrid::EqualDepthFromSorted(sorted, q);
      const std::vector<char> want_marks =
          InteriorMarksFromSorted(sorted, want);
      for (const int64_t chunk :
           {int64_t{1}, int64_t{7}, std::max<int64_t>(1, n - 1), n}) {
        int passes_without_codes = 0;
        for (const bool with_codes : {false, true}) {
          const std::string what = name + " q=" + std::to_string(q) +
                                   " chunk=" + std::to_string(chunk) +
                                   (with_codes ? " codes" : "");
          BorrowedColumn column(values.data(), n);
          CodeColumn codes;
          AttrGridResult got;
          ColumnSetupStats stats;
          ASSERT_TRUE(DiscretizeColumn(column, q, chunk,
                                       with_codes ? &codes : nullptr, &got,
                                       &stats))
              << what;
          ExpectSameGrid(got.grid, want, what);
          EXPECT_EQ(got.interior, want_marks) << what;
          EXPECT_GE(stats.passes, 3) << what;
          remapped |= stats.remapped;
          // Without codes only an interval that one bucket decides needs
          // the 4th pass; with codes, so does a heavy bucket's recode.
          if (!with_codes) {
            passes_without_codes = stats.passes;
            lone_bucket |= stats.passes == 4;
            continue;
          }
          recoded |= stats.passes == 4 && passes_without_codes == 3;
          ASSERT_EQ(codes.width(), CodeColumn::WidthFor(want.num_intervals()))
              << what;
          for (int64_t r = 0; r < n; ++r) {
            ASSERT_EQ(codes[r], want.IntervalOf(values[r]))
                << what << " record " << r;
          }
        }
      }
    }
  }
  // The remap of provisional codes and the rare 4th pass both ran.
  EXPECT_TRUE(remapped);
  EXPECT_TRUE(recoded);
  EXPECT_TRUE(lone_bucket);
}

TEST(DiscretizeColumn, SpikeIsCountedNotCopied) {
  // 58% zeros, the rest uniform: Agrawal's commission. A streamed setup
  // (no codes) keeps few candidates, since the zero bucket counts its
  // repeats.
  Rng rng(58);
  std::vector<double> values(200000);
  for (double& v : values) {
    v = rng.Uniform(0, 1) < 0.58 ? 0.0 : rng.Uniform(10000, 75000);
  }
  const int64_t n = static_cast<int64_t>(values.size());
  const std::vector<double> sorted = TotalOrderSorted(values);
  for (const int q : {100, 256}) {
    BorrowedColumn column(values.data(), n);
    AttrGridResult got;
    ColumnSetupStats stats;
    ASSERT_TRUE(DiscretizeColumn(column, q, kSetupChunkRecords, nullptr, &got,
                                 &stats));
    const IntervalGrid want = IntervalGrid::EqualDepthFromSorted(sorted, q);
    ExpectSameGrid(got.grid, want, "spike");
    EXPECT_EQ(got.interior, InteriorMarksFromSorted(sorted, want));
    EXPECT_LE(stats.candidates, n / 20) << "q=" << q;
    EXPECT_EQ(stats.passes, 3);
  }
}

// A reader that fails on one chunk, as a table reader does on a NaN.
class FailingColumn final : public ColumnReader {
 public:
  FailingColumn(const std::vector<double>& values, int64_t bad)
      : values_(values), bad_(bad) {}
  int64_t size() const override {
    return static_cast<int64_t>(values_.size());
  }
  bool Read(int64_t begin, int64_t count, const double** values) override {
    *values = values_.data() + begin;
    return bad_ < begin || bad_ >= begin + count;
  }

 private:
  const std::vector<double>& values_;
  int64_t bad_;
};

TEST(DiscretizeColumn, ReadFailureFailsTheSetup) {
  std::vector<double> values(1000);
  for (size_t i = 0; i < values.size(); ++i) values[i] = static_cast<double>(i);
  for (const int64_t bad : {int64_t{0}, int64_t{999}}) {
    FailingColumn column(values, bad);
    AttrGridResult got;
    CodeColumn codes;
    EXPECT_FALSE(DiscretizeColumn(column, 10, 64, &codes, &got)) << bad;
  }
}

// -- Equal-width grids over infinite and huge extremes --------------------

// Every finite value of the column must not pile into interval 0: the
// cuts divide the finite values' span, are finite, ascend strictly and
// stay below the largest value.
void ExpectFiniteCutsSpreadValues(const std::vector<double>& values, int q,
                                  const std::string& what) {
  const IntervalGrid grid = IntervalGrid::EqualWidth(values, q);
  const std::vector<double>& cuts = grid.boundaries();
  ASSERT_FALSE(cuts.empty()) << what;
  for (size_t i = 0; i < cuts.size(); ++i) {
    EXPECT_TRUE(std::isfinite(cuts[i])) << what << " cut " << i;
    EXPECT_LT(cuts[i], grid.max_value()) << what << " cut " << i;
    if (i > 0) {
      EXPECT_LT(cuts[i - 1], cuts[i]) << what << " cut " << i;
    }
  }
  int last_finite = 0;
  for (double v : values) {
    if (std::isfinite(v)) {
      last_finite = std::max(last_finite, grid.IntervalOf(v));
    }
  }
  EXPECT_GT(last_finite, 0) << what;
}

TEST(EqualWidthExtremes, InfiniteAndHugeExtremesKeepFiniteCuts) {
  ExpectFiniteCutsSpreadValues({-kInf, 1, 2, 3, kInf}, 4, "-inf..inf");
  ExpectFiniteCutsSpreadValues({1, 2, 3, kInf}, 4, "..inf");
  ExpectFiniteCutsSpreadValues({-kInf, 1, 2, 3}, 4, "-inf..");
  ExpectFiniteCutsSpreadValues({-1e308, 0, 1e308}, 4, "+-1e308");
  ExpectFiniteCutsSpreadValues({-1.7e308, 1.7e308}, 300, "+-1.7e308");
  // The divided span runs over the finite values only.
  const IntervalGrid grid =
      IntervalGrid::EqualWidth(std::vector<double>{-kInf, 1, 2, 3, kInf}, 4);
  EXPECT_EQ(grid.boundaries(), (std::vector<double>{1.5, 2.0, 2.5}));
  EXPECT_EQ(grid.min_value(), -kInf);
  EXPECT_EQ(grid.max_value(), kInf);
  const IntervalGrid huge =
      IntervalGrid::EqualWidth(std::vector<double>{-1e308, 1e308}, 4);
  ASSERT_EQ(huge.boundaries().size(), 3u);
  EXPECT_NEAR(huge.boundaries()[0] / 5e307, -1.0, 1e-12);
  EXPECT_EQ(huge.boundaries()[1], 0.0);
  EXPECT_NEAR(huge.boundaries()[2] / 5e307, 1.0, 1e-12);
  // No two distinct finite values: nothing to divide.
  EXPECT_EQ(IntervalGrid::EqualWidth(std::vector<double>{-kInf, 5, kInf}, 4)
                .num_intervals(),
            1);
  EXPECT_EQ(IntervalGrid::EqualWidth(std::vector<double>{-kInf, kInf}, 4)
                .num_intervals(),
            1);
}

// -- The bucketed lookup against std::lower_bound -------------------------

int LowerBound(const std::vector<double>& cuts, double v) {
  return static_cast<int>(std::lower_bound(cuts.begin(), cuts.end(), v) -
                          cuts.begin());
}

// Probes `grid` with every value, every cut and both of its neighbours,
// and the special values; each must land where std::lower_bound puts it,
// and NaN in interval 0.
void ExpectLowerBoundEverywhere(const IntervalGrid& grid,
                                const std::vector<double>& values,
                                const std::string& what) {
  const std::vector<double>& cuts = grid.boundaries();
  std::vector<double> probes = values;
  for (double cut : cuts) {
    probes.push_back(cut);
    probes.push_back(std::nextafter(cut, -kInf));
    probes.push_back(std::nextafter(cut, kInf));
  }
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (double v : {0.0, -0.0, kInf, -kInf, 1e308, -1e308, tiny, -tiny}) {
    probes.push_back(v);
  }
  for (double v : probes) {
    ASSERT_EQ(grid.IntervalOf(v), LowerBound(cuts, v))
        << what << " v=" << v << " cuts=" << cuts.size();
  }
  EXPECT_EQ(grid.IntervalOf(std::numeric_limits<double>::quiet_NaN()), 0)
      << what;
}

TEST(IntervalOf, EqualsLowerBoundOnEveryGridKind) {
  for (const auto& [name, values] : SelectionColumns()) {
    const int n = static_cast<int>(values.size());
    for (const int q : {1, 2, 100, 300, n + 5}) {
      const std::string what = name + " q=" + std::to_string(q);
      ExpectLowerBoundEverywhere(IntervalGrid::EqualDepth(values, q), values,
                                 what + " depth");
      ExpectLowerBoundEverywhere(IntervalGrid::EqualWidth(values, q), values,
                                 what + " width");
      QuantileSketch sketch(64);
      sketch.AddN(values.data(), n);
      ExpectLowerBoundEverywhere(sketch.ToEqualDepthGrid(q), values,
                                 what + " sketch");
    }
  }
}

TEST(IntervalOf, EqualsLowerBoundOnClusteredCuts) {
  // 50 cuts one ulp apart, then a jump of 1e6: the cluster shares one
  // bucket, which the lookup must search in full.
  std::vector<double> cuts = {1.0};
  for (int i = 1; i < 50; ++i) {
    cuts.push_back(std::nextafter(cuts.back(), kInf));
  }
  for (int i = 0; i < 10; ++i) cuts.push_back(cuts.back() + 1e6);
  std::vector<double> values;
  Rng rng(78);
  for (int i = 0; i < 200; ++i) values.push_back(rng.Uniform(-1e6, 2e7));
  ExpectLowerBoundEverywhere(IntervalGrid::FromBoundaries(cuts), values,
                             "clustered");
  // The same cluster with infinite and huge outer cuts: a span that is
  // not finite falls back to one bucket.
  std::vector<double> wide = cuts;
  wide.insert(wide.begin(), -kInf);
  wide.push_back(kInf);
  ExpectLowerBoundEverywhere(IntervalGrid::FromBoundaries(wide), values,
                             "clustered, infinite ends");
  std::vector<double> huge = cuts;
  huge.insert(huge.begin(), -1e308);
  huge.push_back(1e308);
  ExpectLowerBoundEverywhere(IntervalGrid::FromBoundaries(huge), values,
                             "clustered, +-1e308 ends");
  ExpectLowerBoundEverywhere(IntervalGrid(), values, "default grid");
}

// -- The lookup against std::lower_bound for every cut count ---------------

TEST(IntervalOf, EqualsLowerBoundForEveryCutCount) {
  Rng rng(77);
  for (int m = 0; m <= 300; ++m) {
    std::vector<double> cuts;
    double c = rng.Uniform(-100, 100);
    for (int i = 0; i < m; ++i) {
      cuts.push_back(c);
      c += rng.Uniform(1e-9, 5);
    }
    const IntervalGrid grid = IntervalGrid::FromBoundaries(cuts);
    std::vector<double> probes = {kInf, -kInf, 0.0, -0.0};
    for (double cut : cuts) {
      probes.push_back(cut);
      probes.push_back(std::nextafter(cut, -kInf));
      probes.push_back(std::nextafter(cut, kInf));
    }
    for (int i = 0; i < 64; ++i) probes.push_back(rng.Uniform(-200, 2000));
    for (double v : probes) {
      const int want = static_cast<int>(
          std::lower_bound(cuts.begin(), cuts.end(), v) - cuts.begin());
      ASSERT_EQ(grid.IntervalOf(v), want) << "m=" << m << " v=" << v;
    }
  }
}

}  // namespace
}  // namespace cmp
