// The bin-code cache's one invariant: code(a, r) == grid.IntervalOf(v)
// for every record, for every grid shape the discretizer can produce —
// random data, values sitting exactly on cut boundaries, heavy ties that
// collapse duplicate cuts, single-interval grids, and grids wide enough
// to force the uint16_t and uint32_t code widths. The byte-identical-trees
// contract of the scan rests entirely on this agreement.
#include "hist/bin_codes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "common/schema.h"
#include "hist/grid_builder.h"
#include "hist/quantiles.h"

namespace cmp {
namespace {

Schema OneNumericSchema() {
  return Schema({{"x", AttrKind::kNumeric, 0}}, {"neg", "pos"});
}

// Encodes `column` against `grid` and checks every code against
// IntervalOf, plus the expected code width.
void CheckAgreement(const IntervalGrid& grid,
                    const std::vector<double>& column, int want_width) {
  const Schema schema = OneNumericSchema();
  BinCodeCache codes(schema, static_cast<int64_t>(column.size()),
                     /*max_intervals=*/100000);
  ASSERT_TRUE(codes.enabled());
  codes.EncodeNumericColumn(0, grid, column);
  EXPECT_EQ(codes.width(0), want_width);
  for (size_t r = 0; r < column.size(); ++r) {
    ASSERT_EQ(codes.code(0, static_cast<RecordId>(r)),
              grid.IntervalOf(column[r]))
        << "record " << r << " value " << column[r];
  }
}

TEST(BinCodes, AgreesWithIntervalOfOnRandomData) {
  Rng rng(71);
  std::vector<double> column(5000);
  for (double& v : column) v = rng.Uniform(-100.0, 100.0);
  std::vector<double> sorted = column;
  std::sort(sorted.begin(), sorted.end());
  const IntervalGrid grid = IntervalGrid::EqualDepthFromSorted(sorted, 100);
  CheckAgreement(grid, column, /*want_width=*/1);
}

TEST(BinCodes, AgreesOnGridBoundaryValues) {
  // Interval i covers (b_i, b_{i+1}]: a value exactly equal to a cut
  // belongs to the interval BELOW it, and the binary search and the
  // encoder must agree on that closed edge. Encode the cut values
  // themselves, plus nearby off-cut values.
  const IntervalGrid grid =
      IntervalGrid::FromBoundaries({-3.0, 0.0, 1.5, 8.0}, -10.0, 10.0);
  std::vector<double> column;
  for (double cut : grid.boundaries()) {
    column.push_back(cut);
    column.push_back(cut - 1e-9);
    column.push_back(cut + 1e-9);
  }
  column.push_back(-1e9);  // below every cut
  column.push_back(1e9);   // above every cut
  CheckAgreement(grid, column, /*want_width=*/1);
}

TEST(BinCodes, AgreesWhenDuplicateCutsCollapse) {
  // Heavy ties (the commission == 0 spike in the Agrawal data is the
  // canonical case): most quantile cuts land on the same value and
  // collapse, so the actual interval count is far below the requested
  // one. The encoder must follow the ACTUAL grid.
  Rng rng(72);
  std::vector<double> column(4000);
  for (size_t i = 0; i < column.size(); ++i) {
    column[i] = i % 4 == 0 ? rng.Uniform(0.0, 50.0) : 0.0;
  }
  std::vector<double> sorted = column;
  std::sort(sorted.begin(), sorted.end());
  const IntervalGrid grid = IntervalGrid::EqualDepthFromSorted(sorted, 100);
  ASSERT_LT(grid.num_intervals(), 100);
  CheckAgreement(grid, column, /*want_width=*/1);
}

TEST(BinCodes, SingleIntervalGrid) {
  // A constant column collapses to one interval (no cuts at all); every
  // code must be 0.
  std::vector<double> column(100, 42.0);
  const IntervalGrid grid = IntervalGrid::EqualDepthFromSorted(
      std::vector<double>(100, 42.0), 10);
  ASSERT_EQ(grid.num_intervals(), 1);
  CheckAgreement(grid, column, /*want_width=*/1);
}

TEST(BinCodes, WideGridFallsBackToSixteenBitCodes) {
  // More than 256 intervals cannot fit a uint8_t; the column must
  // switch to uint16_t codes and still agree everywhere.
  std::vector<double> cuts;
  for (int i = 0; i < 300; ++i) cuts.push_back(static_cast<double>(i));
  const IntervalGrid grid =
      IntervalGrid::FromBoundaries(std::move(cuts), 0.0, 300.0);
  ASSERT_GT(grid.num_intervals(), 256);
  Rng rng(73);
  std::vector<double> column(3000);
  for (double& v : column) v = rng.Uniform(-5.0, 305.0);
  for (int i = 0; i < 300; ++i) column.push_back(static_cast<double>(i));
  CheckAgreement(grid, column, /*want_width=*/2);
}

// A grid of more than 65536 intervals past every 16-bit code, on
// random values, on every cut and outside the outer cuts.
IntervalGrid ThirtyTwoBitGrid() {
  std::vector<double> cuts;
  for (int i = 0; i < 70000; ++i) cuts.push_back(static_cast<double>(i));
  return IntervalGrid::FromBoundaries(std::move(cuts), 0.0, 70000.0);
}

TEST(BinCodes, WiderGridTakesThirtyTwoBitCodes) {
  const IntervalGrid grid = ThirtyTwoBitGrid();
  ASSERT_GT(grid.num_intervals(), 65536);
  Rng rng(75);
  std::vector<double> column(3000);
  for (double& v : column) v = rng.Uniform(-5.0, 70005.0);
  for (int i = 0; i < 70000; i += 7) column.push_back(static_cast<double>(i));
  column.push_back(-1e9);
  column.push_back(1e9);
  CheckAgreement(grid, column, /*want_width=*/4);
}

// Only encoded elements are written; the others keep their contents.
TEST(BinCodes, EncodeAtWritesTheListedOffsetsAtEveryWidth) {
  Rng rng(76);
  std::vector<double> values(4000);
  for (double& v : values) v = rng.Uniform(-10.0, 70010.0);
  const std::vector<uint16_t> offsets = {0, 3, 17, 999, 3999};
  for (const int q : {100, 1000, 70000}) {
    std::vector<double> cuts;
    for (int i = 1; i < q; ++i) cuts.push_back(70000.0 * i / q);
    const IntervalGrid grid =
        IntervalGrid::FromBoundaries(std::move(cuts), 0.0, 70000.0);
    CodeColumn col;
    col.Resize(grid.num_intervals(), static_cast<int64_t>(values.size()));
    EXPECT_EQ(col.width(), q <= 256 ? 1 : q <= 65536 ? 2 : 4);
    col.EncodeAt(grid, values.data(), offsets.data(),
                 static_cast<int64_t>(offsets.size()));
    for (const uint16_t o : offsets) {
      EXPECT_EQ(col[o], grid.IntervalOf(values[o])) << "q=" << q << " " << o;
    }
  }
}

TEST(BinCodes, CategoricalWidthsFollowObservedValues) {
  const Schema schema = Schema(
      {{"small", AttrKind::kCategorical, 7},
       {"wide", AttrKind::kCategorical, 1000}},
      {"a", "b"});
  BinCodeCache codes(schema, 4, /*max_intervals=*/100);
  ASSERT_TRUE(codes.enabled());
  codes.EncodeCategoricalColumn(0, std::vector<int32_t>{0, 6, 3, 0});
  codes.EncodeCategoricalColumn(1, std::vector<int32_t>{0, 999, 255, 256});
  EXPECT_EQ(codes.width(0), 1);
  EXPECT_EQ(codes.width(1), 2);
  EXPECT_EQ(codes.code(0, 1), 6);
  EXPECT_EQ(codes.code(1, 1), 999);
  EXPECT_EQ(codes.code(1, 2), 255);
  EXPECT_EQ(codes.code(1, 3), 256);
}

TEST(BinCodes, EverySchemaIsEncodedPastSixteenBits) {
  // A grid cap or a categorical cardinality beyond 65536 rows takes
  // four-byte codes; no schema leaves the cache unusable.
  const IntervalGrid grid = ThirtyTwoBitGrid();
  const std::vector<double> values = {-1.0, 0.5, 65536.5, 69999.5, 1e9};
  BinCodeCache wide(OneNumericSchema(), 5, /*max_intervals=*/65537);
  ASSERT_TRUE(wide.enabled());
  wide.EncodeNumericColumn(0, grid, values);
  EXPECT_EQ(wide.width(0), 4);
  for (RecordId r = 0; r < 5; ++r) {
    EXPECT_EQ(wide.code(0, r), grid.IntervalOf(values[r])) << r;
  }

  const Schema huge_cat = Schema(
      {{"c", AttrKind::kCategorical, 70000}}, {"a", "b"});
  BinCodeCache cat(huge_cat, 4, /*max_intervals=*/100);
  ASSERT_TRUE(cat.enabled());
  cat.EncodeCategoricalColumn(0, std::vector<int32_t>{0, 65535, 65536, 69999});
  EXPECT_EQ(cat.width(0), 4);
  EXPECT_EQ(cat.code(0, 1), 65535);
  EXPECT_EQ(cat.code(0, 2), 65536);
  EXPECT_EQ(cat.code(0, 3), 69999);
  EXPECT_EQ(cat.view(0).u32[3], 69999u);
  EXPECT_FALSE(BinCodeCache().enabled());
}

// The build driver's setup (DiscretizeColumn): the codes it writes must
// equal IntervalOf on its grid, at the width the grid needs, and the
// marks it returns InteriorMarksFromSorted.
TEST(BinCodes, FusedPassMatchesIntervalOfAndSortedMarks) {
  Rng rng(74);
  std::vector<double> column(6000);
  for (size_t i = 0; i < column.size(); ++i) {
    // Ties (a spike at 0 and integer runs) leave some intervals with a
    // single distinct value, so the marks are not all set.
    column[i] = i % 5 == 0   ? 0.0
                : i % 5 == 1 ? static_cast<double>(rng.UniformInt(1, 40))
                             : rng.Uniform(-100.0, 100.0);
  }
  std::vector<double> sorted = column;
  std::sort(sorted.begin(), sorted.end());
  const int64_t n = static_cast<int64_t>(column.size());
  for (const int q : {2, 100, 256, 300, 1000}) {
    BinCodeCache codes(OneNumericSchema(), n);
    BorrowedColumn reader(column.data(), n);
    AttrGridResult result;
    ASSERT_TRUE(DiscretizeColumn(reader, q, kSetupChunkRecords,
                                 codes.mutable_column(0), &result));
    const IntervalGrid& grid = result.grid;
    EXPECT_EQ(codes.width(0), grid.num_intervals() <= 256 ? 1 : 2) << q;
    for (int64_t r = 0; r < n; ++r) {
      ASSERT_EQ(codes.code(0, r), grid.IntervalOf(column[r]))
          << "q " << q << " record " << r << " value " << column[r];
    }
    EXPECT_EQ(result.interior, InteriorMarksFromSorted(sorted, grid)) << q;
  }
}

TEST(BinCodes, LabelsAndMemoryAccounting) {
  const Schema schema = OneNumericSchema();
  BinCodeCache codes(schema, 3, /*max_intervals=*/10);
  ASSERT_TRUE(codes.enabled());
  codes.EncodeNumericColumn(0, IntervalGrid::FromBoundaries({1.0}, 0.0, 2.0),
                            std::vector<double>{0.5, 1.0, 1.5});
  codes.SetLabels({1, 0, 1});
  EXPECT_EQ(codes.label(0), 1);
  EXPECT_EQ(codes.label(1), 0);
  EXPECT_EQ(codes.label(2), 1);
  // 3 one-byte codes + 3 labels: the cache must report at least that.
  EXPECT_GE(codes.MemoryBytes(),
            3 + 3 * static_cast<int64_t>(sizeof(ClassId)));
}

}  // namespace
}  // namespace cmp
