#ifndef CMP_HIST_GRIDS_H_
#define CMP_HIST_GRIDS_H_

#include <vector>

#include "common/dataset.h"
#include "hist/histogram1d.h"
#include "hist/quantiles.h"
#include "io/scan.h"

namespace cmp {

/// Which discretization the per-attribute grids use.
enum class Discretization {
  kEqualDepth,  // quantiling (the paper's default)
  kEqualWidth,  // fixed-width ranges (cheaper, skew-sensitive)
};

class ThreadPool;

/// Builds the per-attribute interval grids used by CLOUDS and the CMP
/// family: `intervals` intervals for each numeric attribute (categorical
/// attributes get an empty grid). The construction is charged to
/// `tracker` as one dataset scan, plus the paper's cost of one sort per
/// numeric attribute for equal-depth grids (the cuts are selected, not
/// sorted, but the cost model is the paper's). A `pool` fans the
/// per-attribute builds across worker threads (the grids are identical
/// for any thread count).
std::vector<IntervalGrid> ComputeGrids(const Dataset& ds, int intervals,
                                       Discretization kind,
                                       ScanTracker* tracker,
                                       ThreadPool* pool = nullptr);

/// Equal-depth convenience wrapper (the common case).
std::vector<IntervalGrid> ComputeEqualDepthGrids(const Dataset& ds,
                                                 int intervals,
                                                 ScanTracker* tracker);

/// Total bytes of the grids (for memory accounting).
int64_t GridsMemoryBytes(const std::vector<IntervalGrid>& grids);

/// One empty per-node class histogram per attribute: interval rows for
/// numeric attributes (per `grids`), one row per value for categorical
/// ones. The standard node-state scaffolding of the histogram builders.
std::vector<Histogram1D> MakeAttrHistograms(
    const Schema& schema, const std::vector<IntervalGrid>& grids,
    int num_classes);

}  // namespace cmp

#endif  // CMP_HIST_GRIDS_H_
