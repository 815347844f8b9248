#include "hist/hist_kernels.h"

namespace cmp {

namespace {

// The width templates move the width branches out of the inner loops;
// the nc == 2 specialization strength-reduces the row multiply to a
// shift (binary classification is the common case in the paper's
// workloads). Column pointers arrive pre-offset by the tile base.
template <typename Code>
void Accum1D(const Code* codes, const ClassId* labels,
             const uint32_t* offsets, size_t n, int nc, int64_t* counts) {
  if (nc == 2) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t o = offsets[i];
      counts[(static_cast<size_t>(codes[o]) << 1) + labels[o]]++;
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const uint32_t o = offsets[i];
    counts[static_cast<size_t>(codes[o]) * nc + labels[o]]++;
  }
}

template <typename XCode, typename YCode>
void Accum2D(const XCode* xcodes, int x_lo, const YCode* ycodes,
             const ClassId* labels, const uint32_t* offsets, size_t n, int ny,
             int nc, int64_t* counts) {
  if (nc == 2) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t o = offsets[i];
      const size_t cell =
          static_cast<size_t>(xcodes[o] - x_lo) * ny + ycodes[o];
      counts[(cell << 1) + labels[o]]++;
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const uint32_t o = offsets[i];
    const size_t cell = static_cast<size_t>(xcodes[o] - x_lo) * ny + ycodes[o];
    counts[cell * nc + labels[o]]++;
  }
}

}  // namespace

void AccumulateHist1D(const CodeView& codes, const ClassId* labels,
                      RecordId base, const uint32_t* offsets, size_t n,
                      int nc, int64_t* counts) {
  VisitCodes(codes, [&](const auto* c) {
    Accum1D(c + base, labels + base, offsets, n, nc, counts);
  });
}

void AccumulateHist2D(const CodeView& xcodes, int x_lo, const CodeView& ycodes,
                      const ClassId* labels, RecordId base,
                      const uint32_t* offsets, size_t n, int ny, int nc,
                      int64_t* counts) {
  VisitCodes(xcodes, [&](const auto* x) {
    VisitCodes(ycodes, [&](const auto* y) {
      Accum2D(x + base, x_lo, y + base, labels + base, offsets, n, ny, nc,
              counts);
    });
  });
}

}  // namespace cmp
