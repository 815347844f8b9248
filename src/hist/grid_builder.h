#ifndef CMP_HIST_GRID_BUILDER_H_
#define CMP_HIST_GRID_BUILDER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "hist/grids.h"
#include "hist/quantiles.h"
#include "hist/sketch.h"

namespace cmp {

/// How a discretization grid is computed from a numeric column.
enum class GridMethod {
  /// Buffer the whole column and select its exact cuts — the paper's
  /// equal-depth quantiling, computed by bucket selection instead of a
  /// sort (IntervalGrid::EqualDepth). O(n) memory per attribute; grids
  /// depend only on the value multiset. This is the default for every
  /// batch algorithm and preserves their byte-identical-tree contract.
  kExact,
  /// Feed a deterministic mergeable quantile sketch (hist/sketch.h) —
  /// O(k log(n/k)) memory, one pass, no sort barrier. Cuts land within
  /// the sketch's rank-error bound of the exact ones. Used by the
  /// streaming trainer.
  kSketch,
};

/// Per-attribute grid construction result.
struct AttrGridResult {
  IntervalGrid grid;
  /// interior[i] is nonzero iff grid interval i is known to contain at
  /// least two distinct values — i.e. an interior split point can exist
  /// there. Exact for kExact; for kSketch it is derived from the
  /// sketch summary (a value the sketch retained is real data, so a
  /// marked interval really is splittable, but sparse intervals can be
  /// missed — callers that need certainty must use the exact method).
  std::vector<char> interior;
};

/// Accumulates one numeric attribute's values and produces its interval
/// grid. One instance per attribute; implementations are not
/// thread-safe, but independent instances can be filled concurrently
/// and merged in a fixed (shard) order.
class AttrGridBuilder {
 public:
  virtual ~AttrGridBuilder() = default;

  /// Appends a chunk of values (any order; grids depend only on the
  /// multiset for the exact method, and on the ingestion order only
  /// through the sketch's deterministic fold for the sketch method).
  virtual void Add(const double* values, int64_t n) = 0;

  /// Folds another builder of the same concrete type into this one.
  /// Shard ingestion must merge in ascending shard order to stay
  /// deterministic.
  virtual void MergeFrom(AttrGridBuilder& other) = 0;

  /// Builds the grid (and interior marks) for everything added. May be
  /// called once.
  virtual AttrGridResult Finish(int q, Discretization kind) = 0;

  /// Bytes of accumulated state (for peak-memory accounting).
  virtual int64_t MemoryBytes() const = 0;
};

/// Exact path: buffers the column and never sorts it. Finish(q,
/// kEqualDepth) selects the cuts (IntervalGrid::EqualDepth), which is
/// byte-identical to IntervalGrid::EqualDepthFromSorted on the sorted
/// column; the interior marks come from one pass over the unsorted
/// buffer (InteriorMarks) and equal InteriorMarksFromSorted on the
/// sorted column. The CMP build driver selects its grids directly over
/// the borrowed column instead; this builder serves the benchmark's
/// setup replay and the tests.
class ExactAttrGridBuilder : public AttrGridBuilder {
 public:
  void Add(const double* values, int64_t n) override;
  void MergeFrom(AttrGridBuilder& other) override;
  AttrGridResult Finish(int q, Discretization kind) override;
  int64_t MemoryBytes() const override;

 private:
  std::vector<double> values_;
};

/// Sketch path: bounded-memory deterministic quantile summary.
/// Equal-width grids still only need min/max, which the sketch tracks
/// exactly, so both discretizations work.
class SketchAttrGridBuilder : public AttrGridBuilder {
 public:
  explicit SketchAttrGridBuilder(
      int sketch_capacity = QuantileSketch::kDefaultCapacity)
      : sketch_(sketch_capacity) {}

  void Add(const double* values, int64_t n) override;
  void MergeFrom(AttrGridBuilder& other) override;
  AttrGridResult Finish(int q, Discretization kind) override;
  int64_t MemoryBytes() const override;

  const QuantileSketch& sketch() const { return sketch_; }

 private:
  QuantileSketch sketch_;
};

/// Interior marks for a grid from a sorted value run (the exact rule the
/// CMP driver uses: interval i is interior iff it contains two distinct
/// values). The sketch builder uses it on its sorted summary; tests use
/// it as the oracle for the exact builder's one-pass marks.
std::vector<char> InteriorMarksFromSorted(const std::vector<double>& sorted,
                                          const IntervalGrid& grid);

/// The same marks from `n` values in any order, in one pass: interval i
/// is interior iff its smallest value is below its largest. The
/// overloads with `codes` also store each value's interval index
/// (grid.IntervalOf(values[r])) in codes[r], so one visit per value
/// yields both the marks and the bin codes; `codes` holds `n` entries.
std::vector<char> InteriorMarks(const IntervalGrid& grid,
                                const double* values, int64_t n);
std::vector<char> InteriorMarks(const IntervalGrid& grid,
                                const double* values, int64_t n,
                                uint8_t* codes);
std::vector<char> InteriorMarks(const IntervalGrid& grid,
                                const double* values, int64_t n,
                                uint16_t* codes);

std::unique_ptr<AttrGridBuilder> MakeAttrGridBuilder(
    GridMethod method,
    int sketch_capacity = QuantileSketch::kDefaultCapacity);

}  // namespace cmp

#endif  // CMP_HIST_GRID_BUILDER_H_
