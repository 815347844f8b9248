#include "cmp/linear.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "gini/gini.h"

namespace cmp {

namespace {

// One axis of the (possibly coarsened) cell grid in value space:
// `edges[k]..edges[k+1]` bounds cell k.
struct Axis {
  std::vector<double> edges;  // size = cells + 1
  int cells() const { return static_cast<int>(edges.size()) - 1; }
};

// Builds the value-space edges of matrix columns/rows covering global
// intervals [lo, lo + n) of `grid`, merged into at most `max_cells`
// coarse cells. `coarse_of[k]` receives the coarse cell of fine cell k.
Axis CoarsenAxis(const IntervalGrid& grid, int lo, int n, int max_cells,
                 std::vector<int>* coarse_of) {
  // Fine edges: value bounds of each of the n fine cells.
  std::vector<double> fine_edges(n + 1);
  for (int k = 0; k <= n; ++k) {
    const int g = lo + k;  // global edge index: cut below interval g
    if (g == 0) {
      fine_edges[k] = grid.min_value();
    } else if (g - 1 < static_cast<int>(grid.boundaries().size())) {
      fine_edges[k] = grid.UpperCut(g - 1);
    } else {
      fine_edges[k] = grid.max_value();
    }
  }
  Axis axis;
  coarse_of->resize(n);
  const int groups = std::min(n, max_cells);
  axis.edges.reserve(groups + 1);
  for (int g = 0; g < groups; ++g) {
    const int begin = static_cast<int>(
        static_cast<int64_t>(n) * g / groups);
    const int end = static_cast<int>(
        static_cast<int64_t>(n) * (g + 1) / groups);
    std::fill(coarse_of->begin() + begin, coarse_of->begin() + end, g);
    axis.edges.push_back(fine_edges[begin]);
  }
  axis.edges.push_back(fine_edges[n]);
  return axis;
}

// A coarsened matrix prepared for line evaluation: `pre` holds, for each
// column x and each row count y in [0, cy], the class counts of rows
// [0, y) of column x, laid out [x][y][class].
struct PrefixGrid {
  Axis ax;
  Axis ay;
  int nc = 0;
  std::vector<int64_t> pre;
  std::vector<int64_t> totals;  // per-class counts of the whole matrix
  // First row whose lower edge is +inf (cy when there is none).
  int inf_row = 0;

  const int64_t* column(int x) const {
    return pre.data() + static_cast<size_t>(x) * (ay.cells() + 1) * nc;
  }
};

// Coarsens `m` onto the axes (through the fine->coarse tables) and
// prefix-sums each column. `mirror` lays the rows out top-down over
// the Y-mirrored axis (y -> -y), for the positive-slope walk.
PrefixGrid MakePrefixGrid(const HistogramMatrix& m, const Axis& ax,
                          const std::vector<int>& xg, const Axis& ay,
                          const std::vector<int>& yg, bool mirror) {
  PrefixGrid g;
  g.ax = ax;
  g.nc = m.num_classes();
  const int nc = g.nc;
  const int cx = ax.cells();
  const int cy = ay.cells();
  if (mirror) {
    g.ay.edges.resize(ay.edges.size());
    for (size_t k = 0; k < ay.edges.size(); ++k) {
      g.ay.edges[k] = -ay.edges[ay.edges.size() - 1 - k];
    }
  } else {
    g.ay = ay;
  }
  const size_t col_stride = static_cast<size_t>(cy + 1) * nc;
  g.pre.assign(static_cast<size_t>(cx) * col_stride, 0);
  // Coarse cell (x, y) accumulates into slot y + 1 of column x; the
  // running sum below turns the slots into prefix counts.
  for (int x = 0; x < m.x_intervals(); ++x) {
    int64_t* col = g.pre.data() + static_cast<size_t>(xg[x]) * col_stride;
    for (int y = 0; y < m.y_intervals(); ++y) {
      const int row = mirror ? cy - 1 - yg[y] : yg[y];
      const int64_t* cell = m.cell(x, y);
      int64_t* dst = col + static_cast<size_t>(row + 1) * nc;
      for (int c = 0; c < nc; ++c) dst[c] += cell[c];
    }
  }
  g.totals.assign(nc, 0);
  for (int x = 0; x < cx; ++x) {
    int64_t* col = g.pre.data() + static_cast<size_t>(x) * col_stride;
    for (int y = 1; y <= cy; ++y) {
      for (int c = 0; c < nc; ++c) col[y * nc + c] += col[(y - 1) * nc + c];
    }
    for (int c = 0; c < nc; ++c) g.totals[c] += col[cy * nc + c];
  }
  g.inf_row = cy;
  for (int y = 0; y < cy; ++y) {
    if (g.ay.edges[y] == std::numeric_limits<double>::infinity()) {
      g.inf_row = y;
      break;
    }
  }
  return g;
}

// The coarse matrix's within-cell impurity, sum over cells of
// n_cell * gini(cell), divided by the matrix's record count. Every line
// partitions whole cells into three groups and gini is concave, so no
// line's gini^D lies below it.
double WithinCellImpurity(const PrefixGrid& g) {
  const int nc = g.nc;
  int64_t n = 0;
  for (int k = 0; k < nc; ++k) n += g.totals[k];
  if (n == 0) return 0.0;
  double impurity = 0.0;
  for (int x = 0; x < g.ax.cells(); ++x) {
    const int64_t* col = g.column(x);
    for (int y = 0; y < g.ay.cells(); ++y) {
      const int64_t* lo = col + static_cast<size_t>(y) * nc;
      const int64_t* hi = lo + nc;
      int64_t cell_n = 0;
      double sum_sq = 0.0;
      for (int k = 0; k < nc; ++k) {
        const double count = static_cast<double>(hi[k] - lo[k]);
        cell_n += hi[k] - lo[k];
        sum_sq += count * count;
      }
      if (cell_n > 0) {
        impurity += static_cast<double>(cell_n) -
                    sum_sq / static_cast<double>(cell_n);
      }
    }
  }
  return impurity / static_cast<double>(n);
}

// Per-FindBestLine scratch, reused by every line evaluation.
struct LineScratch {
  std::vector<int64_t> under;
  std::vector<int64_t> above;
  std::vector<int64_t> on;
  std::vector<double> by;  // b * ay.edges[k]
};

struct WalkResult {
  bool valid = false;
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  double gini = 1.0;
};

// First index in [0, n] at which `below` turns false, for a predicate
// that holds on a prefix of [0, n) and fails on the rest. The search
// starts at `hint` (the answer of the previous column), gallops away
// from it until it brackets the boundary, then bisects the bracket: for
// a boundary d rows from the hint this costs O(log d) probes, and O(1)
// when it has not moved. On such a predicate it returns the same index
// as a plain binary search over [0, n).
template <typename Below>
int GallopBoundary(int n, int hint, Below below) {
  int lo = 0;
  int hi = n;
  int step = 1;
  if (hint < n && below(hint)) {
    lo = hint + 1;
    while (lo < n) {
      const int probe = std::min(lo + step - 1, n - 1);
      if (!below(probe)) {
        hi = probe;
        break;
      }
      lo = probe + 1;
      step *= 2;
    }
  } else {
    hi = hint;
    while (hi > 0) {
      const int probe = std::max(hi - step, 0);
      if (below(probe)) {
        lo = probe + 1;
        break;
      }
      hi = probe;
      step *= 2;
    }
  }
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (below(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// gini^D of the three-way partition induced by a*X + b*Y <= c over the
// coarse grid, where a cell is "under" when its max corner satisfies
// f_max = a*x1 + b*y1 - c <= 0, else "above" when its min corner
// satisfies f_min = a*x0 + b*y0 - c >= 0, else "crossed".
//
// Within one column both corner values are non-decreasing in y (the walk
// only builds lines with a, b >= 0), so "under" is a prefix of rows
// [0, u) and "above" a suffix [max(u, m), cy), where u is the first row
// failing the under test and m the first row passing the above test.
// Two boundary searches find u and m, each started at the previous
// column's answer: a line crosses neighbouring columns at nearby rows,
// so a line costs about O(cx + cy) probes plus O(cx * classes) for the
// prefix-count differences, instead of O(cx * cy * classes) for the
// cell-by-cell classification. Those differences are the very integer
// counts the cell loop sums, so SplitGini3 sees identical inputs. Each
// corner value is computed as the same expression `(a*x + b*y) - c` the
// per-cell test uses (a*x hoisted per column, b*y per row), so every
// comparison is bit-for-bit the same.
//
// Infinite edges (±inf attribute values are legal) can turn a corner
// value into NaN, which fails both tests and files the cell as crossed.
// In this expression NaN comes from 0*inf, inf - inf or -inf + inf.
// Apart from b == 0, a NaN run in a column has only -inf values below it
// and only +inf values above it (either side may be empty): b = inf
// times a zero edge (rows below read -inf, rows above +inf), or an
// infinite a*x or c meeting an infinite b*y at one end of the column.
// Rows before such a run can never be >= 0 and rows after it can never
// be <= 0, so the prefix and suffix shapes survive. A NaN a*x (0*inf or
// inf*0 at an x edge) makes the whole column crossed, which the searches
// also return (u = 0, m = rows). The one exception is b == 0 (an
// infinite y edge span): b*y is then 0 on finite edges but NaN on
// infinite ones, next to finite values. The walk's c is then NaN
// whenever the first y edge is -inf (c contains y0/dy = -inf/inf), which
// crosses every cell; otherwise only rows whose lower edge is +inf (the
// top rows [inf_row, cy)) read NaN, and they are excluded from the
// above suffix explicitly.
double LineGini(const PrefixGrid& g, double a, double b, double c,
                LineScratch* s, int64_t* n_under, int64_t* n_above) {
  const int nc = g.nc;
  const int cy = g.ay.cells();
  const std::vector<double>& ex = g.ax.edges;
  for (int k = 0; k <= cy; ++k) s->by[k] = b * g.ay.edges[k];
  const double* by = s->by.data();
  const int rows = b == 0.0 ? g.inf_row : cy;
  std::fill(s->under.begin(), s->under.end(), 0);
  std::fill(s->above.begin(), s->above.end(), 0);
  int u = 0;
  int m = 0;
  for (int x = 0; x < g.ax.cells(); ++x) {
    const double a1 = a * ex[x + 1];
    const double a0 = a * ex[x];
    // u: first row whose max corner is not under the line.
    u = GallopBoundary(cy, u,
                       [&](int r) { return a1 + by[r + 1] - c <= 0.0; });
    // m: first row whose min corner is on or above the line.
    m = GallopBoundary(rows, m,
                       [&](int r) { return !(a0 + by[r] - c >= 0.0); });
    const int first_above = std::max(u, m);
    const int64_t* col = g.column(x);
    for (int k = 0; k < nc; ++k) s->under[k] += col[u * nc + k];
    if (first_above < rows) {
      for (int k = 0; k < nc; ++k) {
        s->above[k] += col[rows * nc + k] - col[first_above * nc + k];
      }
    }
  }
  *n_under = 0;
  *n_above = 0;
  for (int k = 0; k < nc; ++k) {
    s->on[k] = g.totals[k] - s->under[k] - s->above[k];
    *n_under += s->under[k];
    *n_above += s->above[k];
  }
  return SplitGini3(s->under, s->above, s->on);
}

// The paper's giniNegativeSlope walk: the line enters the grid at
// x-edge i on the bottom and y-edge j on the left; i and j advance
// greedily toward the top-right corner. Positive-slope lines are the
// same walk over the Y-mirrored grid.
WalkResult NegativeSlopeWalk(const PrefixGrid& g, LineScratch* scratch,
                             int64_t* lines) {
  WalkResult best;
  const Axis& ax = g.ax;
  const Axis& ay = g.ay;
  const int max_i = ax.cells();
  const int max_j = ay.cells();
  if (max_i < 2 || max_j < 2) return best;
  const double x0 = ax.edges.front();
  const double y0 = ay.edges.front();

  auto line_for = [&](int i, int j, double* a, double* b, double* c) {
    // Line through (ax.edges[i], y0) and (x0, ay.edges[j]).
    const double dx = ax.edges[i] - x0;
    const double dy = ay.edges[j] - y0;
    *a = 1.0 / dx;
    *b = 1.0 / dy;
    *c = 1.0 + x0 / dx + y0 / dy;
  };

  auto eval = [&](int i, int j, WalkResult* out) {
    double a;
    double b;
    double c;
    line_for(i, j, &a, &b, &c);
    int64_t n_under = 0;
    int64_t n_above = 0;
    const double gini = LineGini(g, a, b, c, scratch, &n_under, &n_above);
    ++*lines;
    out->a = a;
    out->b = b;
    out->c = c;
    out->gini = gini;
    out->valid = n_under > 0 && n_above > 0;
    return gini;
  };

  int i = 1;
  int j = 1;
  WalkResult cur;
  eval(i, j, &cur);
  if (cur.valid && cur.gini < best.gini) best = cur;
  while (i < max_i || j < max_j) {
    WalkResult cand_x;
    WalkResult cand_y;
    double gx = std::numeric_limits<double>::infinity();
    double gy = std::numeric_limits<double>::infinity();
    if (i < max_i) gx = eval(i + 1, j, &cand_x);
    if (j < max_j) gy = eval(i, j + 1, &cand_y);
    if (gx <= gy) {
      ++i;
      cur = cand_x;
    } else {
      ++j;
      cur = cand_y;
    }
    if (cur.valid && (!best.valid || cur.gini < best.gini)) best = cur;
  }
  return best;
}

}  // namespace

LinearSplitResult FindBestLine(const HistogramMatrix& m,
                               const IntervalGrid& gx, int x_lo,
                               const IntervalGrid& gy, int max_grid,
                               double must_beat) {
  LinearSplitResult out;
  const int nc = m.num_classes();
  if (m.x_intervals() < 2 || m.y_intervals() < 2) return out;

  std::vector<int> xg;
  std::vector<int> yg;
  const Axis ax = CoarsenAxis(gx, x_lo, m.x_intervals(), max_grid, &xg);
  const Axis ay = CoarsenAxis(gy, 0, m.y_intervals(), max_grid, &yg);
  const PrefixGrid grid = MakePrefixGrid(m, ax, xg, ay, yg, /*mirror=*/false);
  // The margin absorbs the rounding of both impurity sums; mirroring
  // only reorders rows, so one bound covers both walks.
  if (WithinCellImpurity(grid) * (1.0 - 1e-9) >= must_beat) {
    out.skipped = true;
    return out;
  }
  LineScratch scratch;
  scratch.under.resize(nc);
  scratch.above.resize(nc);
  scratch.on.resize(nc);
  scratch.by.resize(ay.edges.size());

  const WalkResult neg =
      NegativeSlopeWalk(grid, &scratch, &out.lines_evaluated);
  // Mirroring maps y -> -y; the coefficients map back by negating b.
  WalkResult pos = NegativeSlopeWalk(
      MakePrefixGrid(m, ax, xg, ay, yg, /*mirror=*/true), &scratch,
      &out.lines_evaluated);
  pos.b = -pos.b;
  const WalkResult& best =
      (!pos.valid || (neg.valid && neg.gini <= pos.gini)) ? neg : pos;
  if (!best.valid) return out;
  out.valid = true;
  out.a = best.a;
  out.b = best.b;
  out.c = best.c;
  out.gini = best.gini;
  return out;
}

}  // namespace cmp
