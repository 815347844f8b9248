// The per-attribute kernels must reproduce the record-major counts
// EXACTLY — same integer cells, any tile base and offset list — because
// the scan fills every histogram through them under the
// bit-identical-trees contract. Tested bottom-up: raw kernels vs direct
// counting (every code width, random tables, every offset shape the scan
// produces), then HistBundle::AccumulateCodedAttr vs Add, then whole
// builds at 1 and 4 threads.
//
// The 511-record cases end at the last record of a column, so under ASan
// (CMP_SANITIZE=address) any kernel read past the end of the unpadded
// code column is a hard failure.
#include "hist/hist_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "cmp/bundle.h"
#include "cmp/cmp.h"
#include "common/random.h"
#include "datagen/agrawal.h"
#include "hist/grids.h"
#include "tree/serialize.h"

namespace cmp {
namespace {

// A random single-column table encoded the way the builder encodes it.
struct RandomColumn {
  IntervalGrid grid;
  BinCodeCache codes;
  std::vector<ClassId> labels;
};

std::vector<std::string> ClassNames(int num_classes) {
  std::vector<std::string> names;
  for (int c = 0; c < num_classes; ++c) {
    std::string name = "c";
    name += std::to_string(c);
    names.push_back(std::move(name));
  }
  return names;
}

// u8 codes: values drawn from a SMALL discrete pool so the equal-depth
// grid sees heavy duplicate cut points (the degenerate-boundary case),
// plus out-of-range strays that land in the clamp intervals.
RandomColumn MakeRandomColumn(int64_t n, int num_intervals, int num_classes,
                              uint64_t seed) {
  Rng rng(seed);
  std::vector<double> column(n);
  RandomColumn out;
  out.labels.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    column[i] = static_cast<double>(rng.UniformInt(0, 11)) * 3.5;
    if (rng.UniformDouble() < 0.05) column[i] = rng.Uniform(-100.0, 500.0);
    out.labels[i] = static_cast<ClassId>(rng.UniformInt(0, num_classes - 1));
  }
  std::vector<double> sorted = column;
  std::sort(sorted.begin(), sorted.end());
  out.grid = IntervalGrid::EqualDepthFromSorted(sorted, num_intervals);
  Schema schema({{"x", AttrKind::kNumeric, 0}}, ClassNames(num_classes));
  out.codes = BinCodeCache(schema, n, std::max(num_intervals, 4));
  EXPECT_TRUE(out.codes.enabled());
  out.codes.EncodeNumericColumn(0, out.grid, column);
  out.codes.SetLabels(out.labels);
  return out;
}

// u16 codes: >255 intervals force the 2-byte kernels.
RandomColumn MakeWideColumn(int64_t n, int num_classes, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> cuts;
  for (int i = 0; i < 300; ++i) cuts.push_back(static_cast<double>(i));
  RandomColumn out;
  out.grid = IntervalGrid::FromBoundaries(std::move(cuts), 0.0, 300.0);
  std::vector<double> column(n);
  out.labels.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    column[i] = rng.Uniform(-5.0, 305.0);
    out.labels[i] = static_cast<ClassId>(rng.UniformInt(0, num_classes - 1));
  }
  Schema schema({{"x", AttrKind::kNumeric, 0}}, ClassNames(num_classes));
  out.codes = BinCodeCache(schema, n, /*max_intervals=*/1024);
  EXPECT_TRUE(out.codes.enabled());
  out.codes.EncodeNumericColumn(0, out.grid, column);
  out.codes.SetLabels(out.labels);
  return out;
}

// Record sets the scan actually produces: a contiguous run, an
// ascending subset with gaps, a shuffled set (the kernels don't require
// ascending order), and the full range ending at the last record.
std::vector<std::vector<RecordId>> BatchShapes(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<RecordId>> batches;
  std::vector<RecordId> contiguous;
  for (RecordId r = n / 4; r < n - n / 4; ++r) contiguous.push_back(r);
  batches.push_back(std::move(contiguous));
  std::vector<RecordId> gaps;
  for (RecordId r = 0; r < n; ++r) {
    if (rng.UniformDouble() < 0.55) gaps.push_back(r);
  }
  batches.push_back(gaps);
  std::vector<RecordId> shuffled = batches.back();
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1],
              shuffled[static_cast<size_t>(rng.UniformInt(0, i - 1))]);
  }
  batches.push_back(std::move(shuffled));
  std::vector<RecordId> all(n);
  for (RecordId r = 0; r < n; ++r) all[r] = r;
  batches.push_back(std::move(all));
  return batches;
}

// The scan names records by offsets from a tile base; the tests use the
// smallest record of the set as the base, so offsets start at 0.
struct Offsets {
  RecordId base = 0;
  std::vector<uint32_t> offsets;
};

Offsets ToOffsets(const std::vector<RecordId>& rids) {
  Offsets out;
  if (rids.empty()) return out;
  out.base = *std::min_element(rids.begin(), rids.end());
  for (const RecordId r : rids) {
    out.offsets.push_back(static_cast<uint32_t>(r - out.base));
  }
  return out;
}

std::vector<int64_t> Kernel1D(const RandomColumn& t,
                              const std::vector<RecordId>& rids, int nc) {
  const Offsets o = ToOffsets(rids);
  std::vector<int64_t> cells(static_cast<size_t>(t.grid.num_intervals()) * nc);
  AccumulateHist1D(t.codes.view(0), t.codes.labels(), o.base,
                   o.offsets.data(), o.offsets.size(), nc, cells.data());
  return cells;
}

// The table's own column serves as both the X and Y axis of a bivariate
// cell grid; x_lo strips the leading quarter of the rows, like a child
// bundle covering a sub-range.
std::vector<int64_t> Kernel2D(const RandomColumn& t,
                              const std::vector<RecordId>& rids, int nc) {
  const int q = t.grid.num_intervals();
  const int x_lo = q / 4;
  std::vector<RecordId> inside;
  for (const RecordId r : rids) {
    if (t.codes.code(0, r) >= x_lo) inside.push_back(r);
  }
  const Offsets o = ToOffsets(inside);
  std::vector<int64_t> cells(static_cast<size_t>(q - x_lo) * q * nc);
  AccumulateHist2D(t.codes.view(0), x_lo, t.codes.view(0), t.codes.labels(),
                   o.base, o.offsets.data(), o.offsets.size(), q, nc,
                   cells.data());
  return cells;
}

// Naive references built straight from codes + labels, no kernels.
std::vector<int64_t> Direct1D(const RandomColumn& t,
                              const std::vector<RecordId>& rids, int nc) {
  std::vector<int64_t> cells(static_cast<size_t>(t.grid.num_intervals()) * nc);
  for (const RecordId r : rids) {
    cells[static_cast<size_t>(t.codes.code(0, r)) * nc + t.labels[r]]++;
  }
  return cells;
}

std::vector<int64_t> Direct2D(const RandomColumn& t,
                              const std::vector<RecordId>& rids, int nc) {
  const int q = t.grid.num_intervals();
  const int x_lo = q / 4;
  std::vector<int64_t> cells(static_cast<size_t>(q - x_lo) * q * nc);
  for (const RecordId r : rids) {
    const int code = t.codes.code(0, r);
    if (code < x_lo) continue;
    const size_t cell = static_cast<size_t>(code - x_lo) * q + code;
    cells[cell * nc + t.labels[r]]++;
  }
  return cells;
}

TEST(HistKernelsRandom, Accumulate1DMatchesDirectCountsOnRandomTables) {
  for (const uint64_t seed : {11u, 12u, 13u, 14u}) {
    for (const int64_t n : {int64_t{511}, int64_t{2048}, int64_t{37}}) {
      for (const int nc : {2, 5}) {
        const RandomColumn t = MakeRandomColumn(n, 40, nc, seed);
        for (const auto& rids : BatchShapes(n, seed * 3 + nc)) {
          ASSERT_EQ(Kernel1D(t, rids, nc), Direct1D(t, rids, nc))
              << "seed=" << seed << " n=" << n << " nc=" << nc
              << " batch=" << rids.size();
        }
      }
    }
  }
}

TEST(HistKernelsRandom, SixteenBitCodesMatchDirectCounts) {
  for (const uint64_t seed : {21u, 22u}) {
    for (const int64_t n : {int64_t{511}, int64_t{1500}}) {
      const RandomColumn t = MakeWideColumn(n, 2, seed);
      ASSERT_EQ(t.codes.width(0), 2) << ">255 intervals must code as u16";
      for (const auto& rids : BatchShapes(n, seed)) {
        ASSERT_EQ(Kernel1D(t, rids, 2), Direct1D(t, rids, 2))
            << "1d seed=" << seed << " n=" << n;
        ASSERT_EQ(Kernel2D(t, rids, 2), Direct2D(t, rids, 2))
            << "2d seed=" << seed << " n=" << n;
      }
    }
  }
}

// Grids past 65536 intervals code as u32. Each kernel is checked with a
// u32 column on the X axis, on the Y axis and alone, against IntervalOf.
TEST(HistKernelsRandom, ThirtyTwoBitCodesMatchDirectCounts) {
  std::vector<double> wide_cuts;
  for (int i = 0; i < 66000; ++i) wide_cuts.push_back(static_cast<double>(i));
  const IntervalGrid wide =
      IntervalGrid::FromBoundaries(std::move(wide_cuts), 0.0, 66000.0);
  const IntervalGrid small = IntervalGrid::FromBoundaries(
      {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0}, 0.0, 10.0);
  Rng rng(41);
  const int64_t n = 3000;
  std::vector<double> w(n);
  std::vector<double> x(n);
  std::vector<ClassId> labels(n);
  for (int64_t i = 0; i < n; ++i) {
    // Half the values crowd rows [1000, 2000) so the X sub-range below
    // holds plenty of records.
    w[i] = i % 2 == 0 ? rng.Uniform(-5.0, 66005.0) : rng.Uniform(999.5, 1999.5);
    x[i] = rng.Uniform(-1.0, 11.0);
    labels[i] = static_cast<ClassId>(rng.UniformInt(0, 2));
  }
  Schema schema({{"w", AttrKind::kNumeric, 0}, {"x", AttrKind::kNumeric, 0}},
                ClassNames(3));
  BinCodeCache codes(schema, n, /*max_intervals=*/100000);
  codes.EncodeNumericColumn(0, wide, w);
  codes.EncodeNumericColumn(1, small, x);
  codes.SetLabels(labels);
  ASSERT_EQ(codes.width(0), 4);
  ASSERT_EQ(codes.width(1), 1);
  const int nc = 3;
  const int qw = wide.num_intervals();
  const int qx = small.num_intervals();

  for (const auto& rids : BatchShapes(n, 43)) {
    const Offsets o = ToOffsets(rids);
    // u32 alone.
    std::vector<int64_t> got(static_cast<size_t>(qw) * nc);
    AccumulateHist1D(codes.view(0), codes.labels(), o.base, o.offsets.data(),
                     o.offsets.size(), nc, got.data());
    std::vector<int64_t> want(got.size());
    for (const RecordId r : rids) {
      want[static_cast<size_t>(wide.IntervalOf(w[r])) * nc + labels[r]]++;
    }
    ASSERT_EQ(got, want) << "1d batch=" << rids.size();

    // u8 X, u32 Y.
    got.assign(static_cast<size_t>(qx) * qw * nc, 0);
    AccumulateHist2D(codes.view(1), 0, codes.view(0), codes.labels(), o.base,
                     o.offsets.data(), o.offsets.size(), qw, nc, got.data());
    want.assign(got.size(), 0);
    for (const RecordId r : rids) {
      const size_t cell =
          static_cast<size_t>(small.IntervalOf(x[r])) * qw + wide.IntervalOf(w[r]);
      want[cell * nc + labels[r]]++;
    }
    ASSERT_EQ(got, want) << "2d u32 y batch=" << rids.size();

    // u32 X over the sub-range [x_lo, x_hi), u8 Y.
    const int x_lo = 1000;
    const int x_hi = 2000;
    std::vector<RecordId> inside;
    for (const RecordId r : rids) {
      const int gx = wide.IntervalOf(w[r]);
      if (gx >= x_lo && gx < x_hi) inside.push_back(r);
    }
    ASSERT_FALSE(inside.empty());
    const Offsets oi = ToOffsets(inside);
    got.assign(static_cast<size_t>(x_hi - x_lo) * qx * nc, 0);
    AccumulateHist2D(codes.view(0), x_lo, codes.view(1), codes.labels(),
                     oi.base, oi.offsets.data(), oi.offsets.size(), qx, nc,
                     got.data());
    want.assign(got.size(), 0);
    for (const RecordId r : inside) {
      const size_t cell =
          static_cast<size_t>(wide.IntervalOf(w[r]) - x_lo) * qx +
          small.IntervalOf(x[r]);
      want[cell * nc + labels[r]]++;
    }
    ASSERT_EQ(got, want) << "2d u32 x batch=" << rids.size();
  }
}

TEST(HistKernelsRandom, BivariateMatchesDirectCountsOnRandomTables) {
  for (const uint64_t seed : {31u, 32u, 33u}) {
    const int64_t n = 511;
    const RandomColumn t = MakeRandomColumn(n, 30, 3, seed);
    for (const auto& rids : BatchShapes(n, seed + 7)) {
      ASSERT_EQ(Kernel2D(t, rids, 3), Direct2D(t, rids, 3))
          << "seed=" << seed << " batch=" << rids.size();
    }
  }
}

// Encodes a full dataset the way the builder does after grid
// construction: numeric columns as interval indices, categorical
// columns as values, labels riding along.
BinCodeCache EncodeDataset(const Dataset& ds,
                           const std::vector<IntervalGrid>& grids,
                           int max_intervals) {
  BinCodeCache codes(ds.schema(), ds.num_records(), max_intervals);
  EXPECT_TRUE(codes.enabled());
  for (AttrId a = 0; a < ds.num_attrs(); ++a) {
    if (ds.schema().is_numeric(a)) {
      codes.EncodeNumericColumn(a, grids[a], ds.numeric_column(a));
    } else {
      codes.EncodeCategoricalColumn(a, ds.categorical_column(a));
    }
  }
  codes.SetLabels(ds.labels());
  return codes;
}

class HistKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AgrawalOptions gen;
    gen.function = AgrawalFunction::kF3;  // numeric + categorical splits
    gen.num_records = 3000;
    gen.seed = 149;
    ds_ = GenerateAgrawal(gen);
    grids_ = ComputeEqualDepthGrids(ds_, 20, nullptr);
    codes_ = EncodeDataset(ds_, grids_, 20);
    // An uneven subset of the records, in the ascending order a scan
    // delivers them.
    Rng rng(151);
    for (RecordId r = 0; r < ds_.num_records(); ++r) {
      if (rng.UniformDouble() < 0.6) rids_.push_back(r);
    }
  }

  void ExpectSameCells(const HistBundle& got, const HistBundle& want) {
    ASSERT_EQ(got.bivariate(), want.bivariate());
    for (AttrId a = 0; a < ds_.num_attrs(); ++a) {
      if (got.bivariate() && a != got.x_attr()) {
        const HistogramMatrix& mg = got.matrix(a);
        const HistogramMatrix& mw = want.matrix(a);
        const size_t cells = static_cast<size_t>(mg.x_intervals()) *
                             mg.y_intervals() * mg.num_classes();
        ASSERT_TRUE(std::equal(mg.data(), mg.data() + cells, mw.data()))
            << "matrix of attr " << a;
      }
      const Histogram1D hg = got.HistFor(a);
      const Histogram1D hw = want.HistFor(a);
      ASSERT_EQ(hg.num_intervals(), hw.num_intervals()) << "attr " << a;
      for (int i = 0; i < hg.num_intervals(); ++i) {
        for (ClassId c = 0; c < hg.num_classes(); ++c) {
          ASSERT_EQ(hg.count(i, c), hw.count(i, c))
              << "attr " << a << " row " << i << " class " << c;
        }
      }
    }
  }

  // Fills every histogram of `bundle` attribute by attribute, the way
  // the scan's accumulate tasks do, in two uneven tiles — cell counts
  // must not care where the tile boundary falls.
  void FillPerAttribute(HistBundle* bundle, const std::vector<RecordId>& rids) {
    const size_t cut = rids.size() / 3;
    for (const auto& [lo, hi] : {std::pair<size_t, size_t>{0, cut},
                                 std::pair<size_t, size_t>{cut, rids.size()}}) {
      if (lo == hi) continue;
      const RecordId base = rids[lo];
      std::vector<uint32_t> offsets;
      for (size_t i = lo; i < hi; ++i) {
        offsets.push_back(static_cast<uint32_t>(rids[i] - base));
      }
      for (AttrId a = 0; a < ds_.num_attrs(); ++a) {
        if (!bundle->HasHistogram(a)) continue;
        bundle->AccumulateCodedAttr(codes_, a, base, offsets.data(),
                                    offsets.size());
      }
    }
  }

  Dataset ds_;
  std::vector<IntervalGrid> grids_;
  BinCodeCache codes_;
  std::vector<RecordId> rids_;
};

TEST_F(HistKernelsTest, Accumulate1DMatchesDirectCounts) {
  const AttrId salary = ds_.schema().FindAttr("salary");
  const Offsets o = ToOffsets(rids_);
  Histogram1D hist(grids_[salary].num_intervals(), 2);
  AccumulateHist1D(codes_.view(salary), codes_.labels(), o.base,
                   o.offsets.data(), o.offsets.size(), 2, hist.data());

  Histogram1D direct(grids_[salary].num_intervals(), 2);
  for (const RecordId r : rids_) {
    direct.Add(grids_[salary].IntervalOf(ds_.numeric(salary, r)),
               ds_.label(r));
  }
  for (int i = 0; i < hist.num_intervals(); ++i) {
    for (ClassId c = 0; c < 2; ++c) {
      EXPECT_EQ(hist.count(i, c), direct.count(i, c)) << "row " << i;
    }
  }
}

TEST_F(HistKernelsTest, Accumulate1DSixteenBitCodes) {
  // Force the uint16_t kernel instantiation with a >256-interval grid.
  std::vector<double> cuts;
  for (int i = 0; i < 300; ++i) cuts.push_back(static_cast<double>(i));
  const IntervalGrid grid =
      IntervalGrid::FromBoundaries(std::move(cuts), 0.0, 300.0);
  Rng rng(157);
  const int64_t n = 2000;
  std::vector<double> column(n);
  std::vector<ClassId> labels(n);
  for (int64_t i = 0; i < n; ++i) {
    column[i] = rng.Uniform(-2.0, 302.0);
    labels[i] = rng.UniformInt(0, 1);
  }
  Schema schema({{"x", AttrKind::kNumeric, 0}}, {"neg", "pos"});
  BinCodeCache codes(schema, n, /*max_intervals=*/1024);
  ASSERT_TRUE(codes.enabled());
  codes.EncodeNumericColumn(0, grid, column);
  codes.SetLabels(labels);
  ASSERT_EQ(codes.width(0), 2);

  // A tile base past record 0, as for the scan's second tile.
  const RecordId base = 700;
  std::vector<uint32_t> offsets(n - base);
  for (int64_t i = 0; i < n - base; ++i) offsets[i] = i;
  Histogram1D hist(grid.num_intervals(), 2);
  AccumulateHist1D(codes.view(0), codes.labels(), base, offsets.data(),
                   offsets.size(), 2, hist.data());
  Histogram1D direct(grid.num_intervals(), 2);
  for (int64_t i = base; i < n; ++i) {
    direct.Add(grid.IntervalOf(column[i]), labels[i]);
  }
  for (int i = 0; i < hist.num_intervals(); ++i) {
    for (ClassId c = 0; c < 2; ++c) {
      EXPECT_EQ(hist.count(i, c), direct.count(i, c)) << "row " << i;
    }
  }
}

TEST_F(HistKernelsTest, PerAttributeMatchesRecordMajorUnivariate) {
  HistBundle serial = HistBundle::MakeUnivariate(ds_.schema(), grids_);
  for (const RecordId r : rids_) serial.Add(ds_, grids_, r);
  HistBundle filled = HistBundle::MakeUnivariate(ds_.schema(), grids_);
  FillPerAttribute(&filled, rids_);
  ExpectSameCells(filled, serial);
}

TEST_F(HistKernelsTest, PerAttributeMatchesRecordMajorBivariate) {
  const AttrId x = ds_.schema().FindAttr("age");
  const int qx = grids_[x].num_intervals();
  HistBundle serial =
      HistBundle::MakeBivariate(ds_.schema(), grids_, x, 0, qx);
  for (const RecordId r : rids_) serial.Add(ds_, grids_, r);
  EXPECT_FALSE(serial.HasHistogram(x));
  HistBundle filled = HistBundle::MakeBivariate(ds_.schema(), grids_, x, 0, qx);
  FillPerAttribute(&filled, rids_);
  ExpectSameCells(filled, serial);
}

TEST_F(HistKernelsTest, PerAttributeMatchesRecordMajorBivariateSubRange) {
  // A child bundle covering only X-intervals [x_lo, x_hi): the kernels
  // must rebase the X codes by x_lo exactly like Add does.
  const AttrId x = ds_.schema().FindAttr("age");
  const int qx = grids_[x].num_intervals();
  const int x_lo = qx / 4;
  const int x_hi = qx - qx / 4;
  std::vector<RecordId> inside;
  for (const RecordId r : rids_) {
    const int gx = grids_[x].IntervalOf(ds_.numeric(x, r));
    if (gx >= x_lo && gx < x_hi) inside.push_back(r);
  }
  ASSERT_FALSE(inside.empty());
  HistBundle serial =
      HistBundle::MakeBivariate(ds_.schema(), grids_, x, x_lo, x_hi);
  for (const RecordId r : inside) serial.Add(ds_, grids_, r);
  HistBundle filled =
      HistBundle::MakeBivariate(ds_.schema(), grids_, x, x_lo, x_hi);
  FillPerAttribute(&filled, inside);
  ExpectSameCells(filled, serial);
}

// Build-level identity: the tree bytes must not depend on how the scan
// was split up. Every thread and shard count must reproduce the
// single-thread tree, for every CMP variant.
TEST(HistKernelsBuild, TreeBytesInvariantAcrossScanPaths) {
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF6;  // pendings + linear splits
  gen.num_records = 6000;
  gen.seed = 163;
  const Dataset train = GenerateAgrawal(gen);

  for (CmpOptions base :
       {CmpSOptions(), CmpBOptions(), CmpFullOptions()}) {
    base.base.in_memory_threshold = 256;  // keep the collect path in play
    CmpOptions serial = base;
    serial.base.num_threads = 1;
    const std::string reference =
        SerializeTree(CmpBuilder(serial).Build(train).tree);
    ASSERT_FALSE(reference.empty());
    for (const int threads : {2, 4}) {
      CmpOptions o = base;
      o.base.num_threads = threads;
      o.scan_shards = threads;
      EXPECT_EQ(SerializeTree(CmpBuilder(o).Build(train).tree), reference)
          << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace cmp
