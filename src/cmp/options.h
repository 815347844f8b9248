#ifndef CMP_CMP_OPTIONS_H_
#define CMP_CMP_OPTIONS_H_

#include "tree/builder.h"

namespace cmp {

/// Which member of the CMP family to run (Section 2 of the paper).
enum class CmpVariant {
  /// Single-variable histograms + deferred exact splits.
  kS,
  /// kS + bivariate histogram matrices + split prediction (multiple
  /// levels per scan).
  kB,
  /// kB + linear-combination splits a*x + b*y <= c.
  kFull,
};

/// Options of the CMP family builders.
struct CmpOptions {
  BuilderOptions base;
  CmpVariant variant = CmpVariant::kFull;
  /// Intervals per numeric attribute ("our experiments divide an
  /// attribute domain into 100 to 120 intervals").
  int intervals = 100;
  /// Maximum number of alive intervals kept per split (N in the paper;
  /// "in most cases, limiting N ... to at most 2, is enough").
  int max_alive = 2;
  /// Linear splits are only searched when the best univariate gini is
  /// above this threshold (the paper's "already lower than a certain
  /// threshold" heuristic).
  double linear_skip_gini = 0.1;
  /// A linear split is adopted when its gini is at least this fraction
  /// smaller than the best univariate gini ("say 20% smaller").
  double linear_gain = 0.2;
  /// The intercept walk runs on a matrix coarsened to at most this many
  /// intervals per axis (implementation knob; the full grid would make
  /// each line evaluation quadratically more expensive without changing
  /// which relationships are detected).
  int linear_grid = 32;
  /// Shard count of a scan pass's route phase. 0 = auto: four shards per
  /// worker, counting the pool's parallelism capped at the hardware
  /// thread count (one shard on an inline pool). The tree is
  /// byte-identical for every value.
  int scan_shards = 0;
};

}  // namespace cmp

#endif  // CMP_CMP_OPTIONS_H_
