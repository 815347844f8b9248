#ifndef CMP_CMP_BUNDLE_H_
#define CMP_CMP_BUNDLE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/dataset.h"
#include "hist/grids.h"
#include "hist/hist_kernels.h"
#include "hist/histogram1d.h"
#include "hist/histogram2d.h"

namespace cmp {

/// The class-histogram state one CMP node accumulates during a scan.
///
/// CMP-S keeps one 1-D histogram per attribute (interval rows for numeric
/// attributes, value rows for categorical ones).
///
/// CMP-B/CMP keep one bivariate HistogramMatrix per attribute other than
/// the designated X-axis attribute `x_attr` (all matrices of a node share
/// the same X axis, chosen by predictSplit). The X rows of a bundle may
/// cover only a sub-range [x_lo, x_hi) of the global grid: bundles of
/// children created by an X split are sub-matrices of the parent's
/// matrices, which is what lets CMP-B grow several levels per scan.
///
/// A fresh bundle (MakeUnivariate / MakeBivariate) carries only its
/// shape. Its storage comes in two steps: ReserveStorage allocates, and
/// ZeroStorage zero-fills what was reserved. The scan that fills a
/// bundle reserves on its own thread and zero-fills on the pool, so
/// bundles planned on pool threads never allocate there (a worker's
/// malloc arena keeps what it allocates). Every write and every copy
/// gives a shape-only bundle its storage first, so a direct user can
/// ignore the two steps.
class HistBundle {
 public:
  HistBundle() = default;
  HistBundle(const HistBundle& other);
  HistBundle& operator=(const HistBundle& other);
  HistBundle(HistBundle&&) = default;
  HistBundle& operator=(HistBundle&&) = default;

  /// Creates an empty univariate (CMP-S) bundle over the global grids.
  static HistBundle MakeUnivariate(const Schema& schema,
                                   const std::vector<IntervalGrid>& grids);

  /// Creates an empty bivariate bundle with the given X-axis attribute
  /// (must be numeric) covering X-intervals [x_lo, x_hi) of the global
  /// grid.
  static HistBundle MakeBivariate(const Schema& schema,
                                  const std::vector<IntervalGrid>& grids,
                                  AttrId x_attr, int x_lo, int x_hi);

  /// False until a shape-only bundle's storage is zero-filled.
  bool has_storage() const { return !shape_only_; }
  /// Allocates every histogram's cells without touching them.
  void ReserveStorage();
  /// Zero-fills the reserved cells; the bundle then has storage.
  void ZeroStorage();

  /// Derives a child bundle after a split on the X axis: the child covers
  /// global X-intervals [x_lo, x_hi); columns in [full_lo, full_hi) are
  /// copied from this bundle, the rest start at zero (partial alive
  /// columns are filled later by buffer flushes). Only valid for
  /// bivariate bundles.
  HistBundle DeriveXRange(int x_lo, int x_hi, int full_lo, int full_hi) const;

  bool bivariate() const { return bivariate_; }
  AttrId x_attr() const { return x_attr_; }
  int x_lo() const { return x_lo_; }
  int x_hi() const { return x_hi_; }

  /// Adds record `r` of `ds` to every histogram of the bundle. The
  /// record's X interval must lie inside [x_lo, x_hi) for bivariate
  /// bundles. `DS` is any record store exposing `numeric(a, r)`,
  /// `categorical(a, r)` and `label(r)` — the in-memory Dataset, or
  /// the block/stash stores of the out-of-core training path.
  template <class DS>
  void Add(const DS& ds, const std::vector<IntervalGrid>& grids, RecordId r) {
    if (shape_only_) EnsureStorage();
    const Schema& schema = *schema_;
    const ClassId label = ds.label(r);
    if (!bivariate_) {
      for (AttrId a = 0; a < schema.num_attrs(); ++a) {
        const int row = schema.is_numeric(a)
                            ? grids[a].IntervalOf(ds.numeric(a, r))
                            : ds.categorical(a, r);
        hists_[a].Add(row, label);
      }
      return;
    }
    const int gx = grids[x_attr_].IntervalOf(ds.numeric(x_attr_, r));
    assert(gx >= x_lo_ && gx < x_hi_);
    const int x = gx - x_lo_;
    for (AttrId a = 0; a < schema.num_attrs(); ++a) {
      if (a == x_attr_) continue;
      const int y = schema.is_numeric(a)
                        ? grids[a].IntervalOf(ds.numeric(a, r))
                        : ds.categorical(a, r);
      matrices_[a].Add(x, y, label);
    }
  }

  /// Record-major add from bin codes: same effect as Add but the
  /// interval index is a code load instead of a binary search. `Codes`
  /// is anything exposing `code(a, r)` and `label(r)`: a BinCodeCache or
  /// a record store (cmp/record_store.h). Used where records arrive one
  /// at a time with interleaved routing (pending-buffer flushes at
  /// resolve time).
  template <class Codes>
  void AddCoded(const Codes& codes, RecordId r) {
    if (shape_only_) EnsureStorage();
    const Schema& schema = *schema_;
    const ClassId label = codes.label(r);
    if (!bivariate_) {
      for (AttrId a = 0; a < schema.num_attrs(); ++a) {
        hists_[a].Add(codes.code(a, r), label);
      }
      return;
    }
    const int gx = codes.code(x_attr_, r);
    assert(gx >= x_lo_ && gx < x_hi_);
    const int x = gx - x_lo_;
    for (AttrId a = 0; a < schema.num_attrs(); ++a) {
      if (a == x_attr_) continue;
      matrices_[a].Add(x, codes.code(a, r), label);
    }
  }

  /// Whether attribute `a` has a histogram of its own in this bundle:
  /// every attribute of a univariate bundle, every one but the X axis of
  /// a bivariate bundle. The scan fills each such histogram as one task.
  bool HasHistogram(AttrId a) const { return !bivariate_ || a != x_attr_; }

  /// Per-attribute accumulation from code columns: adds records `base +
  /// offsets[i]` of `codes` (anything exposing `view(a)` and `labels()`
  /// over the same records: a BinCodeCache, or a record store's current
  /// tile) to attribute `a`'s histogram only (which must exist:
  /// HasHistogram(a)), with the hist/hist_kernels.h kernels. Distinct
  /// attributes touch distinct histograms, so one bundle's attributes may
  /// be filled concurrently. Byte-for-byte the counts of calling Add
  /// record by record. Concurrent calls need a bundle that has storage:
  /// only a single caller may give it its storage.
  template <class Codes>
  void AccumulateCodedAttr(const Codes& codes, AttrId a, RecordId base,
                           const uint32_t* offsets, size_t n) {
    assert(HasHistogram(a));
    if (shape_only_) EnsureStorage();
    const int nc = schema_->num_classes();
    if (!bivariate_) {
      AccumulateHist1D(codes.view(a), codes.labels(), base, offsets, n, nc,
                       hists_[a].data());
      return;
    }
    HistogramMatrix& m = matrices_[a];
    AccumulateHist2D(codes.view(x_attr_), x_lo_, codes.view(a),
                     codes.labels(), base, offsets, n, m.y_intervals(), nc,
                     m.data());
  }

  /// The 1-D class histogram of attribute `a`:
  ///  - univariate: the stored histogram (numeric rows are global
  ///    intervals);
  ///  - bivariate, a == x_attr: the X marginal (rows are the LOCAL
  ///    intervals x_lo..x_hi-1);
  ///  - bivariate, a != x_attr: the Y marginal of matrix `a` (rows are
  ///    global intervals / categorical values).
  Histogram1D HistFor(AttrId a) const;

  /// Bivariate only: the matrix pairing X with attribute `a` (a !=
  /// x_attr).
  const HistogramMatrix& matrix(AttrId a) const {
    assert(!shape_only_);
    return matrices_[a];
  }

  /// Adds every histogram of `other` into this bundle. Both bundles must
  /// have identical shape (same variant, X attribute and X range).
  void MergeSameShape(const HistBundle& other);

  /// Per-class record counts of the whole bundle.
  std::vector<int64_t> ClassTotals() const;

  /// Bytes of every histogram, storage or not yet.
  int64_t MemoryBytes() const;

 private:
  void EnsureStorage();

  bool bivariate_ = false;
  bool shape_only_ = false;
  AttrId x_attr_ = kInvalidAttr;
  int x_lo_ = 0;
  int x_hi_ = 0;
  const Schema* schema_ = nullptr;
  std::vector<Histogram1D> hists_;         // univariate
  std::vector<HistogramMatrix> matrices_;  // bivariate, indexed by attr
};

}  // namespace cmp

#endif  // CMP_CMP_BUNDLE_H_
