#include "cmp/bundle.h"

#include <cassert>

namespace cmp {

namespace {

int YRows(const Schema& schema, const std::vector<IntervalGrid>& grids,
          AttrId a) {
  return schema.is_numeric(a) ? grids[a].num_intervals()
                              : schema.attr(a).cardinality;
}

}  // namespace

HistBundle::HistBundle(const HistBundle& other)
    : bivariate_(other.bivariate_),
      shape_only_(other.shape_only_),
      x_attr_(other.x_attr_),
      x_lo_(other.x_lo_),
      x_hi_(other.x_hi_),
      schema_(other.schema_),
      hists_(other.hists_),
      matrices_(other.matrices_) {
  if (shape_only_) EnsureStorage();
}

HistBundle& HistBundle::operator=(const HistBundle& other) {
  if (this != &other) *this = HistBundle(other);
  return *this;
}

HistBundle HistBundle::MakeUnivariate(const Schema& schema,
                                      const std::vector<IntervalGrid>& grids) {
  HistBundle b;
  b.bivariate_ = false;
  b.shape_only_ = true;
  b.schema_ = &schema;
  b.hists_.resize(schema.num_attrs());
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    b.hists_[a] =
        Histogram1D::Shape(YRows(schema, grids, a), schema.num_classes());
  }
  return b;
}

HistBundle HistBundle::MakeBivariate(const Schema& schema,
                                     const std::vector<IntervalGrid>& grids,
                                     AttrId x_attr, int x_lo, int x_hi) {
  assert(schema.is_numeric(x_attr));
  HistBundle b;
  b.bivariate_ = true;
  b.shape_only_ = true;
  b.schema_ = &schema;
  b.x_attr_ = x_attr;
  b.x_lo_ = x_lo;
  b.x_hi_ = x_hi;
  b.matrices_.resize(schema.num_attrs());
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    if (a == x_attr) continue;
    b.matrices_[a] = HistogramMatrix::Shape(
        x_hi - x_lo, YRows(schema, grids, a), schema.num_classes());
  }
  return b;
}

void HistBundle::ReserveStorage() {
  for (Histogram1D& h : hists_) h.ReserveStorage();
  for (HistogramMatrix& m : matrices_) m.ReserveStorage();
}

void HistBundle::ZeroStorage() {
  for (Histogram1D& h : hists_) h.ZeroStorage();
  for (HistogramMatrix& m : matrices_) m.ZeroStorage();
  shape_only_ = false;
}

void HistBundle::EnsureStorage() {
  ReserveStorage();
  ZeroStorage();
}

HistBundle HistBundle::DeriveXRange(int x_lo, int x_hi, int full_lo,
                                    int full_hi) const {
  assert(bivariate_ && !shape_only_);
  assert(x_lo_ <= x_lo && x_hi <= x_hi_);
  assert(x_lo <= full_lo && full_hi <= x_hi);
  HistBundle b;
  b.bivariate_ = true;
  b.schema_ = schema_;
  b.x_attr_ = x_attr_;
  b.x_lo_ = x_lo;
  b.x_hi_ = x_hi;
  b.matrices_.resize(matrices_.size());
  const int nc = schema_->num_classes();
  for (AttrId a = 0; a < static_cast<AttrId>(matrices_.size()); ++a) {
    if (a == x_attr_) continue;
    const HistogramMatrix& src = matrices_[a];
    HistogramMatrix dst(x_hi - x_lo, src.y_intervals(), nc);
    for (int gx = full_lo; gx < full_hi; ++gx) {
      const int sx = gx - x_lo_;  // column in the parent matrix
      const int dx = gx - x_lo;   // column in the child matrix
      for (int y = 0; y < src.y_intervals(); ++y) {
        const int64_t* cell = src.cell(sx, y);
        for (int c = 0; c < nc; ++c) {
          if (cell[c] != 0) dst.Add(dx, y, c, cell[c]);
        }
      }
    }
    b.matrices_[a] = std::move(dst);
  }
  return b;
}

void HistBundle::MergeSameShape(const HistBundle& other) {
  assert(bivariate_ == other.bivariate_ && x_attr_ == other.x_attr_ &&
         x_lo_ == other.x_lo_ && x_hi_ == other.x_hi_);
  if (other.shape_only_) return;  // all zeros
  if (shape_only_) EnsureStorage();
  for (size_t i = 0; i < hists_.size(); ++i) hists_[i].Merge(other.hists_[i]);
  for (size_t i = 0; i < matrices_.size(); ++i) {
    if (static_cast<AttrId>(i) == x_attr_) continue;
    matrices_[i].Merge(other.matrices_[i]);
  }
}

Histogram1D HistBundle::HistFor(AttrId a) const {
  assert(!shape_only_);
  if (!bivariate_) return hists_[a];
  if (a == x_attr_) {
    // Any matrix's X marginal works; pick the first existing one.
    for (AttrId other = 0; other < static_cast<AttrId>(matrices_.size());
         ++other) {
      if (other != x_attr_) return matrices_[other].MarginalX();
    }
    return Histogram1D(x_hi_ - x_lo_, schema_->num_classes());
  }
  return matrices_[a].MarginalY();
}

std::vector<int64_t> HistBundle::ClassTotals() const {
  assert(!shape_only_);
  if (!bivariate_) {
    if (hists_.empty()) return {};
    return hists_[0].ClassTotals();
  }
  for (AttrId a = 0; a < static_cast<AttrId>(matrices_.size()); ++a) {
    if (a != x_attr_) return matrices_[a].ClassTotals();
  }
  return {};
}

int64_t HistBundle::MemoryBytes() const {
  int64_t bytes = 0;
  for (const Histogram1D& h : hists_) bytes += h.MemoryBytes();
  for (const HistogramMatrix& m : matrices_) bytes += m.MemoryBytes();
  return bytes;
}

}  // namespace cmp
