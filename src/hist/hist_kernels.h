#ifndef CMP_HIST_HIST_KERNELS_H_
#define CMP_HIST_HIST_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "common/types.h"
#include "hist/bin_codes.h"

namespace cmp {

/// Per-attribute accumulation kernels over bin codes.
///
/// The record-major `HistBundle::Add` strides across every attribute's
/// histogram once PER RECORD — each step pays a binary search on the
/// grid plus a cold cache line in a different histogram. These kernels
/// invert the loop nest: the scan first routes a tile of records to
/// their sinks, then fills each histogram in one tight loop over the
/// sink's records, so each inner loop is a sequence of byte-code loads
/// and integer adds against ONE histogram (which stays hot) and the code
/// columns (read near-sequentially, since a sink's offsets ascend).
///
/// Records are named by 32-bit offsets from a tile base: record
/// `base + offsets[i]`. Codes and labels are read straight from the code
/// columns by record — there is no per-batch gather. Each call picks its
/// code widths (1, 2 or 4 bytes) once; the record loops are compiled per
/// width.
///
/// All kernels are plain integer-count adds, so the accumulation order
/// is immaterial: the kernels produce byte-for-byte the histograms of
/// the record-major adds, which is what lets them live under the
/// bit-identical-trees contract (tests/test_hist_kernels.cc).
///
/// The kernels are plain scalar loops: the scattered `counts[cell]++`
/// does not vectorize without conflict detection, and measured SSE2/AVX2
/// versions never beat these loops (DESIGN.md §4h).

/// counts[codes[r] * nc + labels[r]] += 1 for every r = base +
/// offsets[i]. `counts` is a Histogram1D's row-major cell array.
void AccumulateHist1D(const CodeView& codes, const ClassId* labels,
                      RecordId base, const uint32_t* offsets, size_t n,
                      int nc, int64_t* counts);

/// counts[((xcodes[r] - x_lo) * ny + ycodes[r]) * nc + labels[r]] += 1
/// for every r = base + offsets[i]: one Y attribute of a bivariate
/// bundle covering global X-intervals [x_lo, x_lo + rows).
void AccumulateHist2D(const CodeView& xcodes, int x_lo, const CodeView& ycodes,
                      const ClassId* labels, RecordId base,
                      const uint32_t* offsets, size_t n, int ny, int nc,
                      int64_t* counts);

}  // namespace cmp

#endif  // CMP_HIST_HIST_KERNELS_H_
