#include "hist/grids.h"

#include "common/thread_pool.h"

namespace cmp {

std::vector<IntervalGrid> ComputeGrids(const Dataset& ds, int intervals,
                                       Discretization kind,
                                       ScanTracker* tracker,
                                       ThreadPool* pool) {
  if (tracker != nullptr) tracker->ChargeScan(ds);
  std::vector<IntervalGrid> grids(ds.num_attrs());
  // Each attribute's grid depends only on that attribute's column, so the
  // per-attribute builds fan out. The paper's cost model charges an
  // n log n sort per equal-depth grid (the selection does less work);
  // the charge is made serially afterwards to keep the counters
  // race-free and thread-count independent.
  auto build_attr = [&](AttrId a) {
    if (!ds.schema().is_numeric(a)) return;
    if (kind == Discretization::kEqualDepth) {
      grids[a] = IntervalGrid::EqualDepth(ds.numeric_column(a), intervals);
    } else {
      grids[a] = IntervalGrid::EqualWidth(ds.numeric_column(a), intervals);
    }
  };
  if (pool != nullptr && pool->parallelism() > 1) {
    pool->ParallelFor(ds.num_attrs(), 1, [&](int64_t lo, int64_t hi) {
      for (int64_t a = lo; a < hi; ++a) build_attr(static_cast<AttrId>(a));
    });
  } else {
    for (AttrId a = 0; a < ds.num_attrs(); ++a) build_attr(a);
  }
  if (tracker != nullptr && kind == Discretization::kEqualDepth) {
    for (AttrId a = 0; a < ds.num_attrs(); ++a) {
      if (ds.schema().is_numeric(a)) tracker->ChargeSort(ds.num_records());
    }
  }
  return grids;
}

std::vector<IntervalGrid> ComputeEqualDepthGrids(const Dataset& ds,
                                                 int intervals,
                                                 ScanTracker* tracker) {
  return ComputeGrids(ds, intervals, Discretization::kEqualDepth, tracker);
}

int64_t GridsMemoryBytes(const std::vector<IntervalGrid>& grids) {
  int64_t bytes = 0;
  for (const IntervalGrid& g : grids) bytes += g.MemoryBytes();
  return bytes;
}

std::vector<Histogram1D> MakeAttrHistograms(
    const Schema& schema, const std::vector<IntervalGrid>& grids,
    int num_classes) {
  std::vector<Histogram1D> hists(schema.num_attrs());
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    const int rows = schema.is_numeric(a) ? grids[a].num_intervals()
                                          : schema.attr(a).cardinality;
    hists[a] = Histogram1D(rows, num_classes);
  }
  return hists;
}

}  // namespace cmp
