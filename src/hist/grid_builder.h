#ifndef CMP_HIST_GRID_BUILDER_H_
#define CMP_HIST_GRID_BUILDER_H_

#include <cstdint>
#include <vector>

#include "common/column_reader.h"
#include "hist/bin_codes.h"
#include "hist/grids.h"
#include "hist/quantiles.h"

namespace cmp {

/// Per-attribute grid construction result.
struct AttrGridResult {
  IntervalGrid grid;
  /// interior[i] is nonzero iff grid interval i contains at least two
  /// distinct values — i.e. an interior split point can exist there.
  std::vector<char> interior;
};

/// Records per chunk of a setup pass: the chunk's bucket ids (2 bytes
/// each) and candidate offsets (4 bytes each) stay in L1.
inline constexpr int64_t kSetupChunkRecords = 4096;

/// What one DiscretizeColumn call did.
struct ColumnSetupStats {
  /// Reads of the whole column: 3, or 4 when a fix-up pass ran.
  int passes = 0;
  /// Values copied out for the cut selection.
  int64_t candidates = 0;
  /// True when provisional codes were mapped to final ones (cuts
  /// collapsed, or the final codes are narrower).
  bool remapped = false;
  /// Bytes of the buffers the routine held, the reader's excluded.
  int64_t buffer_bytes = 0;
};

/// Equal-depth setup of one numeric column in three chunked passes, each
/// of which holds one chunk of the column at a time:
///  1. the key range (OrderKey in hist/quantiles.h);
///  2. a count of 4096 buckets over that range, value-linear over
///     [min, max], or linear in the keys when a bound is infinite or the
///     span overflows; equal doubles (-0.0 and +0.0 too) share a bucket;
///  3. a pass that gives each value its bucket's provisional code (the
///     number of target ranks below the bucket) and copies the values of
///     the buckets that hold a target rank (the candidates). A heavy
///     bucket keeps its first value as a representative and counts its
///     repeats instead of copying them, so a spike (a run of zeros) is
///     never copied.
/// The cuts are then selected among the candidates and collapsed by
/// IntervalGrid::FromRankCuts, provisional codes are mapped to final
/// ones (the identity unless cuts collapsed) and candidates are coded
/// with IntervalOf. Every bucket without a rank lies inside one interval, so
/// the interior marks follow from which buckets fall in each interval
/// plus the candidates. A rare 4th pass settles the intervals that one
/// bucket decides and recodes the repeats of a heavy bucket whose
/// representative's interval differs from the bucket's provisional one.
///
/// Writes the grid and marks to `out` and, with `codes`, each value's
/// interval (grid.IntervalOf) at the width the grid needs. For any
/// `chunk` >= 1 the grid is bit-identical to EqualDepthFromSorted on the
/// sorted column, the marks equal InteriorMarksFromSorted and the codes
/// per-value IntervalOf. Returns false when a read fails (a file-backed
/// reader rejects NaN); `out` and `codes` are then unspecified.
bool DiscretizeColumn(ColumnReader& column, int q, int64_t chunk,
                      CodeColumn* codes, AttrGridResult* out,
                      ColumnSetupStats* stats = nullptr);

/// Buffers one numeric attribute's values and never sorts them.
/// Finish(q, kEqualDepth) takes the grid and interior marks from
/// DiscretizeColumn, the routine the CMP build driver runs over the
/// borrowed or streamed column; this builder serves the benchmark's
/// setup replay and the tests.
class ExactAttrGridBuilder {
 public:
  /// Appends a chunk of values (any order; grids depend only on the
  /// multiset).
  void Add(const double* values, int64_t n);

  /// Builds the grid and interior marks for everything added.
  AttrGridResult Finish(int q, Discretization kind) const;

 private:
  std::vector<double> values_;
};

/// Interior marks for a grid from a sorted value run (the exact rule the
/// CMP driver uses: interval i is interior iff it contains two distinct
/// values). Tests use it as the oracle for DiscretizeColumn's marks.
std::vector<char> InteriorMarksFromSorted(const std::vector<double>& sorted,
                                          const IntervalGrid& grid);

}  // namespace cmp

#endif  // CMP_HIST_GRID_BUILDER_H_
