#ifndef CMP_HIST_HISTOGRAM1D_H_
#define CMP_HIST_HISTOGRAM1D_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace cmp {

/// Class histogram over the intervals of one discretized attribute:
/// counts[i][c] = number of records in interval i with class c.
class Histogram1D {
 public:
  Histogram1D() = default;
  Histogram1D(int num_intervals, int num_classes)
      : num_intervals_(num_intervals),
        num_classes_(num_classes),
        counts_(static_cast<size_t>(num_intervals) * num_classes, 0) {}

  /// A histogram of this shape that holds no cells yet. Its storage
  /// comes in two steps, so one thread can allocate it and another
  /// write the pages: ReserveStorage allocates the cells, ZeroStorage
  /// zero-fills them without reallocating.
  static Histogram1D Shape(int num_intervals, int num_classes) {
    Histogram1D h;
    h.num_intervals_ = num_intervals;
    h.num_classes_ = num_classes;
    return h;
  }
  void ReserveStorage() { counts_.reserve(cells()); }
  void ZeroStorage() { counts_.assign(cells(), 0); }

  int num_intervals() const { return num_intervals_; }
  int num_classes() const { return num_classes_; }

  void Add(int interval, ClassId c, int64_t delta = 1) {
    counts_[static_cast<size_t>(interval) * num_classes_ + c] += delta;
  }

  int64_t count(int interval, ClassId c) const {
    return counts_[static_cast<size_t>(interval) * num_classes_ + c];
  }

  /// Pointer to the class-count row of one interval.
  const int64_t* row(int interval) const {
    return counts_.data() + static_cast<size_t>(interval) * num_classes_;
  }

  /// Mutable row-major cell array (num_intervals × num_classes) for the
  /// per-attribute kernels in hist/hist_kernels.h, which add
  /// straight into it.
  int64_t* data() { return counts_.data(); }
  const int64_t* data() const { return counts_.data(); }

  /// Total records in interval `i`.
  int64_t IntervalTotal(int i) const;

  /// Per-class totals over all intervals.
  std::vector<int64_t> ClassTotals() const;

  /// Total record count.
  int64_t Total() const;

  /// Adds every cell of `other` into this histogram. Shapes must match.
  void Merge(const Histogram1D& other);

  /// Per-class counts in intervals [0, i) (records strictly left of
  /// interval i). Convenience for split scans and tests.
  std::vector<int64_t> PrefixBefore(int i) const;

  /// Bytes of the cells, counted from the shape (a Shape() histogram
  /// counts the storage it will hold).
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(cells()) * sizeof(int64_t);
  }

 private:
  size_t cells() const {
    return static_cast<size_t>(num_intervals_) * num_classes_;
  }

  int num_intervals_ = 0;
  int num_classes_ = 0;
  std::vector<int64_t> counts_;
};

}  // namespace cmp

#endif  // CMP_HIST_HISTOGRAM1D_H_
