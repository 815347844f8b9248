#ifndef CMP_CMP_LINEAR_H_
#define CMP_CMP_LINEAR_H_

#include <cstdint>
#include <limits>

#include "hist/histogram2d.h"
#include "hist/quantiles.h"
#include "tree/split.h"

namespace cmp {

/// Result of a linear-combination split search over one histogram matrix.
struct LinearSplitResult {
  bool valid = false;
  /// Coefficients of a*x + b*y <= c (x = matrix X attribute, y = Y
  /// attribute, value space).
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  /// Three-way gini of the partition (under / above / crossed cells).
  double gini = 1.0;
  /// Candidate lines scored by the search (both walks), valid or not.
  int64_t lines_evaluated = 0;
  /// The search was skipped because no line could beat `must_beat`
  /// (then `valid` is false and no line was scored).
  bool skipped = false;
};

/// Searches for the best splitting line over the matrix `m`, whose X
/// columns cover global intervals [x_lo, x_lo + m.x_intervals()) of
/// `gx` and whose Y rows cover all of `gy` (both attributes numeric).
///
/// Implements the intercept-walking greedy of the paper (Figure 12):
/// starting from the smallest intercepts, the x- or y-intercept is
/// repeatedly advanced to whichever boundary cut lowers
/// gini^D(S, line) = Nu/N gini(Su) + Na/N gini(Sa) + No/N gini(So)
/// more, where Su/Sa/So are the cells under, above and crossed by the
/// line. Both negative-slope (x/X0 + y/Y0 = 1) and positive-slope lines
/// (searched on the Y-mirrored matrix) are tried; the best is returned.
///
/// `max_grid`: the matrix is first coarsened so that neither axis exceeds
/// this many intervals (adjacent-interval merging), bounding the cost of
/// each line evaluation: about O(cx * classes + cy) over per-column
/// prefix counts for a cx x cy coarse grid, since each column's row
/// boundaries are searched from the previous column's.
///
/// `must_beat`: every line's gini^D is at least the coarse matrix's
/// within-cell impurity W = sum over cells of n_cell * gini(cell) / N
/// (gini is concave). When W * (1 - 1e-9) >= must_beat, no line can
/// score below `must_beat`, and the search returns `skipped` without
/// scoring any. The default never skips.
LinearSplitResult FindBestLine(
    const HistogramMatrix& m, const IntervalGrid& gx, int x_lo,
    const IntervalGrid& gy, int max_grid,
    double must_beat = std::numeric_limits<double>::infinity());

}  // namespace cmp

#endif  // CMP_CMP_LINEAR_H_
