#ifndef CMP_GINI_GINI_H_
#define CMP_GINI_GINI_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace cmp {

/// gini(S) = 1 - sum_j p_j^2 over the class counts of S (Equation 1).
/// Returns 0 for an empty set.
double Gini(std::span<const int64_t> class_counts);

/// gini^D(S, cond) = n1/n * gini(S1) + n2/n * gini(S2) (Equation 2) for a
/// binary partition described by per-class counts of both sides.
double SplitGini(std::span<const int64_t> left_counts,
                 std::span<const int64_t> right_counts);

/// Weighted gini of a three-way partition (used for linear splits, where
/// the cells crossed by the line form a third "on the line" bucket).
double SplitGini3(std::span<const int64_t> a, std::span<const int64_t> b,
                  std::span<const int64_t> c);

/// gini^D(S, a <= v) when `below` holds the per-class counts of records
/// with value <= v and `totals` the node's per-class counts (Equation 3).
double BoundaryGini(std::span<const int64_t> below,
                    std::span<const int64_t> totals);

/// The gini boundary scan: out[b] = BoundaryGini(row b of `prefix`,
/// totals) for b in [0, num_boundaries), where `prefix` is a row-major
/// num_boundaries x nc matrix of prefix-summed class counts (row b =
/// per-class counts at or below cut b).
///
/// Where the compiler targets SSE2 (every x86-64 build) the scan runs
/// two boundaries per iteration; elsewhere it calls BoundaryGini per
/// row. The SSE2 loop is BIT-IDENTICAL to BoundaryGini: lanes map to
/// boundaries, the class loop stays sequential inside each lane, every
/// IEEE op (convert, div, mul, add, sub) is elementwise in the scalar op
/// order, and SSE2 has no FMA to contract into — so golden trees are
/// byte-identical on every architecture (tests/test_gini.cc). The scan
/// allocates nothing, so callers may score boundaries in small chunks.
void ScanBoundaryGinis(const int64_t* prefix, int num_boundaries, int nc,
                       const int64_t* totals, double* out);

}  // namespace cmp

#endif  // CMP_GINI_GINI_H_
