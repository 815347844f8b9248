#include "gini/gini.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace cmp {

namespace {

// 1 - sum_j (count(j) / n)^2 over classes j in [0, nc), or 0 when n is 0:
// Gini's arithmetic over counts that may be computed on the fly.
template <class Count>
double GiniOf(size_t nc, int64_t n, Count count) {
  if (n == 0) return 0.0;
  double sum_sq = 0.0;
  for (size_t j = 0; j < nc; ++j) {
    const double p =
        static_cast<double>(count(j)) / static_cast<double>(n);
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

}  // namespace

double Gini(std::span<const int64_t> class_counts) {
  int64_t n = 0;
  for (int64_t c : class_counts) n += c;
  return GiniOf(class_counts.size(), n,
                [&](size_t j) { return class_counts[j]; });
}

double SplitGini(std::span<const int64_t> left_counts,
                 std::span<const int64_t> right_counts) {
  int64_t nl = 0;
  int64_t nr = 0;
  for (int64_t c : left_counts) nl += c;
  for (int64_t c : right_counts) nr += c;
  const int64_t n = nl + nr;
  if (n == 0) return 0.0;
  return (static_cast<double>(nl) / n) * Gini(left_counts) +
         (static_cast<double>(nr) / n) * Gini(right_counts);
}

double SplitGini3(std::span<const int64_t> a, std::span<const int64_t> b,
                  std::span<const int64_t> c) {
  int64_t na = 0;
  int64_t nb = 0;
  int64_t nc = 0;
  for (int64_t v : a) na += v;
  for (int64_t v : b) nb += v;
  for (int64_t v : c) nc += v;
  const int64_t n = na + nb + nc;
  if (n == 0) return 0.0;
  return (static_cast<double>(na) / n) * Gini(a) +
         (static_cast<double>(nb) / n) * Gini(b) +
         (static_cast<double>(nc) / n) * Gini(c);
}

double BoundaryGini(std::span<const int64_t> below,
                    std::span<const int64_t> totals) {
  // SplitGini(below, totals - below) without materializing the above
  // side: the same integer sums and the same double operations in the
  // same order, so the result is bit-identical.
  const size_t nc = totals.size();
  int64_t nl = 0;
  int64_t nr = 0;
  for (size_t j = 0; j < nc; ++j) {
    nl += below[j];
    nr += totals[j] - below[j];
  }
  const int64_t n = nl + nr;
  if (n == 0) return 0.0;
  const double gl = GiniOf(nc, nl, [&](size_t j) { return below[j]; });
  const double gr =
      GiniOf(nc, nr, [&](size_t j) { return totals[j] - below[j]; });
  return (static_cast<double>(nl) / n) * gl +
         (static_cast<double>(nr) / n) * gr;
}

namespace {

// BoundaryGini per row for boundaries [b, num_boundaries): the scan's
// reference semantics, and the whole scan off x86.
void ScanRows(const int64_t* prefix, int b, int num_boundaries, int nc,
              const int64_t* totals, double* out) {
  const std::span<const int64_t> t(totals, static_cast<size_t>(nc));
  for (; b < num_boundaries; ++b) {
    out[b] = BoundaryGini(
        std::span<const int64_t>(prefix + static_cast<size_t>(b) * nc,
                                 static_cast<size_t>(nc)),
        t);
  }
}

#if defined(__SSE2__)

// Lane k <- row (b + k), class c of the prefix matrix. Every count is
// far below 2^53, so the conversions — and any sums of converted counts —
// are exact: the arithmetic sees the very values the scalar path's
// int64 -> double casts produce.
inline __m128d Lanes2(const int64_t* p0, int c, int nc) {
  return _mm_set_pd(static_cast<double>(p0[nc + c]),
                    static_cast<double>(p0[c]));
}

#endif

}  // namespace

void ScanBoundaryGinis(const int64_t* prefix, int num_boundaries, int nc,
                       const int64_t* totals, double* out) {
  if (num_boundaries <= 0) return;
#if defined(__SSE2__)
  int64_t n = 0;
  for (int c = 0; c < nc; ++c) n += totals[c];
  if (n == 0) {  // SplitGini of an empty node is 0.
    for (int b = 0; b < num_boundaries; ++b) out[b] = 0.0;
    return;
  }
  const __m128d vn = _mm_set1_pd(static_cast<double>(n));
  const __m128d vone = _mm_set1_pd(1.0);
  const __m128d vzero = _mm_setzero_pd();
  int b = 0;
  for (; b + 2 <= num_boundaries; b += 2) {
    const int64_t* p0 = prefix + static_cast<size_t>(b) * nc;
    __m128d vnl = vzero;
    for (int c = 0; c < nc; ++c) {
      vnl = _mm_add_pd(vnl, Lanes2(p0, c, nc));
    }
    const __m128d vnr = _mm_sub_pd(vn, vnl);
    __m128d sl = vzero;
    __m128d sr = vzero;
    for (int c = 0; c < nc; ++c) {
      const __m128d x = Lanes2(p0, c, nc);
      const __m128d r =
          _mm_sub_pd(_mm_set1_pd(static_cast<double>(totals[c])), x);
      const __m128d pl = _mm_div_pd(x, vnl);
      const __m128d pr = _mm_div_pd(r, vnr);
      sl = _mm_add_pd(sl, _mm_mul_pd(pl, pl));
      sr = _mm_add_pd(sr, _mm_mul_pd(pr, pr));
    }
    // A one-sided boundary divides 0/0 = NaN; mask it to the scalar's
    // 0.0 (Gini of an empty set) before the weighting.
    __m128d gl = _mm_sub_pd(vone, sl);
    __m128d gr = _mm_sub_pd(vone, sr);
    gl = _mm_andnot_pd(_mm_cmpeq_pd(vnl, vzero), gl);
    gr = _mm_andnot_pd(_mm_cmpeq_pd(vnr, vzero), gr);
    const __m128d g = _mm_add_pd(_mm_mul_pd(_mm_div_pd(vnl, vn), gl),
                                 _mm_mul_pd(_mm_div_pd(vnr, vn), gr));
    _mm_storeu_pd(out + b, g);
  }
  ScanRows(prefix, b, num_boundaries, nc, totals, out);
#else
  ScanRows(prefix, 0, num_boundaries, nc, totals, out);
#endif
}

}  // namespace cmp
