// Microbenchmarks of the library's hot kernels (google-benchmark):
// gini evaluation, histogram updates, interval lookup, boundary scans,
// gradient estimation. These are not paper figures; they guard the
// constants behind every figure.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/random.h"
#include "gini/estimator.h"
#include "gini/gini.h"
#include "hist/histogram1d.h"
#include "hist/histogram2d.h"
#include "hist/quantiles.h"

#include "cmp/bundle.h"
#include "cmp/linear.h"
#include "datagen/agrawal.h"
#include "hist/grids.h"

namespace {

void BM_Gini(benchmark::State& state) {
  const int nc = static_cast<int>(state.range(0));
  std::vector<int64_t> counts(nc);
  cmp::Rng rng(1);
  for (auto& c : counts) c = rng.UniformInt(0, 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cmp::Gini(counts));
  }
}
BENCHMARK(BM_Gini)->Arg(2)->Arg(7)->Arg(26);

void BM_BoundaryScan(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  cmp::Histogram1D hist(q, 2);
  cmp::Rng rng(2);
  for (int i = 0; i < q; ++i) {
    hist.Add(i, 0, rng.UniformInt(0, 100));
    hist.Add(i, 1, rng.UniformInt(0, 100));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cmp::AnalyzeAttribute(hist));
  }
}
BENCHMARK(BM_BoundaryScan)->Arg(10)->Arg(100)->Arg(120);

void BM_IntervalOf(benchmark::State& state) {
  std::vector<double> values(10000);
  cmp::Rng rng(3);
  for (auto& v : values) v = rng.Uniform(0, 1e6);
  const cmp::IntervalGrid grid =
      cmp::IntervalGrid::EqualDepth(values, static_cast<int>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.IntervalOf(values[i]));
    i = (i + 1) % values.size();
  }
}
BENCHMARK(BM_IntervalOf)->Arg(100)->Arg(120);

void BM_MatrixUpdate(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  cmp::HistogramMatrix m(q, q, 2);
  cmp::Rng rng(4);
  for (auto _ : state) {
    const int x = static_cast<int>(rng.UniformInt(0, q - 1));
    const int y = static_cast<int>(rng.UniformInt(0, q - 1));
    m.Add(x, y, static_cast<cmp::ClassId>(rng.UniformInt(0, 1)));
  }
}
BENCHMARK(BM_MatrixUpdate)->Arg(100)->Arg(120);

void BM_MatrixMarginalY(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  cmp::HistogramMatrix m(q, q, 2);
  cmp::Rng rng(5);
  for (int i = 0; i < q * q; ++i) {
    m.Add(static_cast<int>(rng.UniformInt(0, q - 1)),
          static_cast<int>(rng.UniformInt(0, q - 1)),
          static_cast<cmp::ClassId>(rng.UniformInt(0, 1)),
          rng.UniformInt(1, 50));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.MarginalY());
  }
}
BENCHMARK(BM_MatrixMarginalY)->Arg(100)->Arg(120);

void BM_EstimateIntervalGini(benchmark::State& state) {
  const int nc = static_cast<int>(state.range(0));
  std::vector<int64_t> below(nc);
  std::vector<int64_t> interval(nc);
  std::vector<int64_t> totals(nc);
  cmp::Rng rng(6);
  for (int c = 0; c < nc; ++c) {
    below[c] = rng.UniformInt(0, 1000);
    interval[c] = rng.UniformInt(0, 100);
    totals[c] = below[c] + interval[c] + rng.UniformInt(0, 1000);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cmp::EstimateIntervalGini(below, interval, totals));
  }
}
BENCHMARK(BM_EstimateIntervalGini)->Arg(2)->Arg(7)->Arg(26);

void BM_LinearWalk(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  std::vector<double> cuts;
  for (int i = 1; i < q; ++i) cuts.push_back(100.0 * i / q);
  const cmp::IntervalGrid grid =
      cmp::IntervalGrid::FromBoundaries(cuts, 0.0, 100.0);
  cmp::HistogramMatrix m(q, q, 2);
  cmp::Rng rng(7);
  for (int x = 0; x < q; ++x) {
    for (int y = 0; y < q; ++y) {
      m.Add(x, y, (x + y < q) ? 0 : 1, 5);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cmp::FindBestLine(m, grid, 0, grid, q));
  }
}
BENCHMARK(BM_LinearWalk)->Arg(16)->Arg(32)->Arg(64);

void BM_BundleDerive(benchmark::State& state) {
  cmp::AgrawalOptions gen;
  gen.num_records = 20000;
  gen.seed = 8;
  const cmp::Dataset ds = cmp::GenerateAgrawal(gen);
  const auto grids = cmp::ComputeEqualDepthGrids(ds, 100, nullptr);
  const cmp::AttrId x = ds.schema().FindAttr("salary");
  cmp::HistBundle bundle = cmp::HistBundle::MakeBivariate(
      ds.schema(), grids, x, 0, grids[x].num_intervals());
  for (cmp::RecordId r = 0; r < ds.num_records(); ++r) {
    bundle.Add(ds, grids, r);
  }
  const int half = grids[x].num_intervals() / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bundle.DeriveXRange(0, half, 0, half));
  }
}
BENCHMARK(BM_BundleDerive);

}  // namespace

BENCHMARK_MAIN();
