#include "hist/hist_kernels.h"

namespace cmp {

namespace {

// The width templates move the u8/u16 branches out of the inner loops;
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

template <typename XCode>
void Accum2DY(const XCode* xcodes, int x_lo, const CodeView& ycodes,
              const ClassId* labels, RecordId base, const uint32_t* offsets,
              size_t n, int ny, int nc, int64_t* counts) {
  if (ycodes.u8 != nullptr) {
    Accum2D(xcodes, x_lo, ycodes.u8 + base, labels, offsets, n, ny, nc,
            counts);
  } else {
    Accum2D(xcodes, x_lo, ycodes.u16 + base, labels, offsets, n, ny, nc,
            counts);
  }
}

}  // namespace

void AccumulateHist1D(const CodeView& codes, const ClassId* labels,
                      RecordId base, const uint32_t* offsets, size_t n,
                      int nc, int64_t* counts) {
  if (codes.u8 != nullptr) {
    Accum1D(codes.u8 + base, labels + base, offsets, n, nc, counts);
  } else {
    Accum1D(codes.u16 + base, labels + base, offsets, n, nc, counts);
  }
}

void AccumulateHist2D(const CodeView& xcodes, int x_lo, const CodeView& ycodes,
                      const ClassId* labels, RecordId base,
                      const uint32_t* offsets, size_t n, int ny, int nc,
                      int64_t* counts) {
  if (xcodes.u8 != nullptr) {
    Accum2DY(xcodes.u8 + base, x_lo, ycodes, labels + base, base, offsets, n,
             ny, nc, counts);
  } else {
    Accum2DY(xcodes.u16 + base, x_lo, ycodes, labels + base, base, offsets, n,
             ny, nc, counts);
  }
}

}  // namespace cmp
