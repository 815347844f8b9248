#include "hist/grid_builder.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>

namespace cmp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Setup counts at most 2^12 buckets: their counters stay cache-resident
// while the column streams past.
constexpr int kBucketBits = 12;
constexpr int kMaxBuckets = 1 << kBucketBits;

// A candidate bucket holding more than 1/kHeavyShare of the column (4x
// the mean of 4096 buckets) is heavy: it keeps its first value as a
// representative and does not copy the repeats of it.
constexpr int64_t kHeavyShare = 1024;

// No value has this key: it is a NaN's.
constexpr uint64_t kNoKey = ~uint64_t{0};

// Value-linear buckets over [origin, origin + 4096 / scale]: monotone in
// `v`, and -0.0 and +0.0 give the same difference, hence the same bucket.
struct ValueBuckets {
  double origin;
  double scale;
  uint16_t operator()(double v) const {
    return static_cast<uint16_t>(std::min(
        std::max(0.0, (v - origin) * scale), double{kMaxBuckets - 1}));
  }
};

// Buckets linear in the order keys, for a range with an infinite bound or
// a span that overflows. Adding +0.0 turns -0.0 into +0.0, so the two
// zeros share a bucket.
struct KeyBuckets {
  uint64_t lo;
  int shift;
  uint16_t operator()(double v) const {
    return static_cast<uint16_t>((OrderKey(v + 0.0) - lo) >> shift);
  }
};

// Calls f(values, begin, count) on each chunk of the column, in order.
// Returns false when a read fails.
template <class F>
bool ForEachChunk(ColumnReader& column, int64_t chunk, F&& f) {
  const int64_t n = column.size();
  for (int64_t begin = 0; begin < n; begin += chunk) {
    const int64_t count = std::min(chunk, n - begin);
    const double* values = nullptr;
    if (!column.Read(begin, count, &values)) return false;
    f(values, begin, count);
  }
  return true;
}

// Leaves the key of sorted rank ranks[k] in out[k], for ranks that
// ascend, are distinct and index [first, last) from `base`. Selecting the
// middle rank first and recursing on both sides costs O(len * log(#ranks))
// rather than the O(len * #ranks) of selecting the ranks in turn.
void SelectRanks(uint64_t* first, uint64_t* last, int64_t base,
                 const int64_t* ranks, int64_t num_ranks, uint64_t* out) {
  if (num_ranks == 0) return;
  const int64_t mid = num_ranks / 2;
  uint64_t* const nth = first + (ranks[mid] - base);
  std::nth_element(first, nth, last);
  out[mid] = *nth;
  SelectRanks(first, nth, base, ranks, mid, out);
  SelectRanks(nth + 1, last, ranks[mid] + 1, ranks + mid + 1,
              num_ranks - mid - 1, out + mid + 1);
}

// The copied values of one bucket that holds a target rank.
struct Candidates {
  int bucket = 0;
  // Its target ranks: ranks[first_rank, end_rank).
  int64_t first_rank = 0;
  int64_t end_rank = 0;
  std::vector<uint64_t> keys;
  std::vector<RecordId> records;  // parallel to keys, with codes only
};

// Passes 2 and 3 and what follows them, over buckets `bucket` (nb of
// them) of the key range [lo, hi].
template <class Bucket>
bool Discretize(ColumnReader& column, int q, int64_t chunk,
                CodeColumn* codes, Bucket bucket, int nb, uint64_t lo,
                uint64_t hi, AttrGridResult* out, ColumnSetupStats* stats) {
  const int64_t n = column.size();
  std::vector<uint16_t> ids(chunk);

  // Pass 2: count the bucket ids, into four interleaved counters per
  // bucket so that consecutive increments of one bucket do not wait on
  // each other.
  std::vector<uint32_t> counters(4 * static_cast<size_t>(nb), 0);
  auto count_chunk = [&](const double* v, int64_t begin, int64_t len) {
    for (int64_t i = 0; i < len; ++i) ids[i] = bucket(v[i]);
    uint32_t* const c = counters.data();
    int64_t i = 0;
    if ((begin & 3) == 0) {
      for (; i + 4 <= len; i += 4) {
        ++c[4 * ids[i]];
        ++c[4 * ids[i + 1] + 1];
        ++c[4 * ids[i + 2] + 2];
        ++c[4 * ids[i + 3] + 3];
      }
    }
    for (; i < len; ++i) ++c[4 * ids[i] + ((begin + i) & 3)];
  };
  if (!ForEachChunk(column, chunk, count_chunk)) return false;
  // start[b] is the sorted rank of bucket b's first value.
  std::vector<int64_t> start(nb + 1, 0);
  for (int b = 0; b < nb; ++b) {
    const uint32_t* const c = counters.data() + 4 * b;
    start[b + 1] = start[b] + c[0] + c[1] + c[2] + c[3];
  }
  const int64_t counter_bytes =
      static_cast<int64_t>(counters.size() * sizeof(uint32_t));
  counters = {};
  auto count = [&](int b) { return start[b + 1] - start[b]; };

  // The distinct target ranks, ascending (n < q repeats some), and the
  // buckets that hold them.
  std::vector<int64_t> ranks;
  for (int i = 1; i < q; ++i) {
    const int64_t rank = IntervalGrid::CutRank(n, i, q);
    if (ranks.empty() || rank != ranks.back()) ranks.push_back(rank);
  }
  std::vector<int32_t> slot(nb, -1);
  std::vector<uint8_t> is_candidate(nb, 0);
  std::vector<Candidates> cands;
  // rep_pending[s]: candidate bucket s is heavy and has not met its
  // first value, which becomes its representative.
  std::vector<uint8_t> rep_pending;
  for (int64_t k = 0, b = 0; k < static_cast<int64_t>(ranks.size()); ++k) {
    while (start[b + 1] <= ranks[k]) ++b;
    if (slot[b] < 0) {
      slot[b] = static_cast<int32_t>(cands.size());
      is_candidate[b] = 1;
      Candidates& c = cands.emplace_back();
      c.bucket = static_cast<int>(b);
      c.first_rank = k;
      const bool heavy = count(b) * kHeavyShare > n;
      rep_pending.push_back(heavy);
      if (!heavy) {
        c.keys.reserve(count(b));
        if (codes != nullptr) c.records.reserve(count(b));
      }
    }
    cands[slot[b]].end_rank = k + 1;
  }
  // A value's provisional code: the number of cuts (counted with
  // repeats) whose rank lies below its bucket. Every cut of a lower
  // bucket is below the value and every cut of a higher one above it.
  std::vector<int32_t> pcode(nb);
  for (int b = 0, i = 1; b < nb; ++b) {
    while (i < q && IntervalGrid::CutRank(n, i, q) < start[b]) ++i;
    pcode[b] = i - 1;
  }

  // Pass 3: provisional codes for every value, copies of the candidates.
  // Provisional codes run up to q - 1.
  if (codes != nullptr) codes->Resize(q, n);
  std::vector<uint32_t> sel(chunk);
  // Each candidate bucket's representative key: kNoKey until a heavy
  // bucket meets its first value, and for good in a light one.
  std::vector<uint64_t> rep(cands.size(), kNoKey);
  auto write_pass = [&](auto* dst) {
    using Code = std::remove_pointer_t<decltype(dst)>;
    std::vector<Code> table(pcode.begin(), pcode.end());
    return ForEachChunk(column, chunk, [&](const double* v, int64_t begin,
                                           int64_t len) {
      for (int64_t i = 0; i < len; ++i) ids[i] = bucket(v[i]);
      // Provisional codes, and a branch-free compaction of the chunk's
      // candidate offsets.
      int64_t num_sel = 0;
      if (dst != nullptr) {
        Code* const to = dst + begin;
        for (int64_t i = 0; i < len; ++i) {
          const uint16_t id = ids[i];
          to[i] = table[id];
          sel[num_sel] = static_cast<uint32_t>(i);
          num_sel += is_candidate[id];
        }
      } else {
        for (int64_t i = 0; i < len; ++i) {
          sel[num_sel] = static_cast<uint32_t>(i);
          num_sel += is_candidate[ids[i]];
        }
      }
      for (int64_t j = 0; j < num_sel; ++j) {
        const uint32_t i = sel[j];
        const int32_t s = slot[ids[i]];
        const uint64_t key = OrderKey(v[i]);
        if (key == rep[s]) continue;
        if (rep_pending[s]) {
          rep[s] = key;
          rep_pending[s] = 0;
          continue;
        }
        cands[s].keys.push_back(key);
        if (dst != nullptr) cands[s].records.push_back(begin + i);
      }
    });
  };
  const bool written = codes != nullptr
                           ? codes->VisitStorage(write_pass)
                           : write_pass(static_cast<uint8_t*>(nullptr));
  if (!written) return false;

  // Select each rank's key among its bucket's candidates. A heavy
  // bucket's copies split around its representative, whose repeats fill
  // the ranks between the two sides; a light bucket's representative is
  // kNoKey, above every copy, and has no repeats.
  std::vector<uint64_t> rank_keys(ranks.size());
  std::vector<uint64_t> scratch;
  int64_t num_candidates = 0;
  int64_t candidate_bytes = 0;
  for (size_t s = 0; s < cands.size(); ++s) {
    Candidates& c = cands[s];
    num_candidates += static_cast<int64_t>(c.keys.size());
    candidate_bytes += static_cast<int64_t>(
        c.keys.capacity() * sizeof(uint64_t) +
        c.records.capacity() * sizeof(RecordId));
    // Selection reorders the keys: in place when no records pair with
    // them, else in a copy.
    if (codes != nullptr) scratch.assign(c.keys.begin(), c.keys.end());
    std::vector<uint64_t>& keys = codes != nullptr ? scratch : c.keys;
    uint64_t* const first = keys.data();
    uint64_t* const last = first + keys.size();
    uint64_t* const mid = std::partition(
        first, last, [&](uint64_t key) { return key < rep[s]; });
    const int64_t base = start[c.bucket];
    const int64_t rep_begin = base + (mid - first);
    const int64_t rep_end = base + count(c.bucket) - (last - mid);
    const int64_t* const r = ranks.data();
    uint64_t* const dst = rank_keys.data();
    int64_t k = c.first_rank;
    while (k < c.end_rank && r[k] < rep_begin) ++k;
    SelectRanks(first, mid, base, r + c.first_rank, k - c.first_rank,
                dst + c.first_rank);
    for (; k < c.end_rank && r[k] < rep_end; ++k) dst[k] = rep[s];
    SelectRanks(mid, last, rep_end, r + k, c.end_rank - k, dst + k);
  }
  std::vector<double> rank_cuts;
  rank_cuts.reserve(q - 1);
  for (int i = 1, k = 0; i < q; ++i) {
    while (ranks[k] != IntervalGrid::CutRank(n, i, q)) ++k;
    rank_cuts.push_back(FromOrderKey(rank_keys[k]));
  }
  out->grid =
      IntervalGrid::FromRankCuts(rank_cuts, FromOrderKey(lo), FromOrderKey(hi));
  const IntervalGrid& grid = out->grid;
  const int m = grid.num_intervals();

  // remap[p]: the final code of provisional code p, the number of
  // distinct values among the p lowest cuts (FromRankCuts collapses
  // repeats). A cut it drops lies at or above the maximum, so it is
  // never below a value.
  std::vector<int32_t> remap(q, 0);
  for (int p = 1; p < q; ++p) {
    const bool fresh = p == 1 || rank_cuts[p - 1] > rank_cuts[p - 2];
    remap[p] = std::min(remap[p - 1] + (fresh ? 1 : 0), m - 1);
  }
  if (codes != nullptr) {
    bool identity = true;
    for (int b = 0; b < nb; ++b) {
      if (count(b) > 0 && remap[pcode[b]] != pcode[b]) identity = false;
    }
    if (!identity || CodeColumn::WidthFor(m) != codes->width()) {
      codes->Remap(remap, m);
      if (stats != nullptr) stats->remapped = true;
    }
  }

  // Interior marks. A bucket without a rank lies inside one interval, and
  // values of different buckets differ, so an interval is interior once
  // it meets two buckets. Candidates are coded here, and their values
  // bound each interval's candidate range.
  std::vector<int32_t> buckets_in(m, 0);
  std::vector<int32_t> lone(m, -1);
  for (int b = 0; b < nb; ++b) {
    if (count(b) > 0 && slot[b] < 0) {
      const int j = remap[pcode[b]];
      ++buckets_in[j];
      lone[j] = b;
    }
  }
  std::vector<char> has(m, 0);
  std::vector<double> lo_of(m, kInf);
  std::vector<double> hi_of(m, -kInf);
  auto note = [&](double v) {
    const int j = grid.IntervalOf(v);
    has[j] = 1;
    lo_of[j] = std::min(lo_of[j], v);
    hi_of[j] = std::max(hi_of[j], v);
    return j;
  };
  // fix[b]: 1 when bucket b alone decides its interval's mark, 2 when its
  // values must be recoded in a 4th pass.
  std::vector<uint8_t> fix(nb, 0);
  bool fourth_pass = false;
  for (size_t s = 0; s < cands.size(); ++s) {
    const Candidates& c = cands[s];
    for (size_t i = 0; i < c.keys.size(); ++i) {
      const int j = note(FromOrderKey(c.keys[i]));
      if (codes != nullptr) {
        codes->VisitStorage([&](auto* dst) {
          using Code = std::remove_pointer_t<decltype(dst)>;
          dst[c.records[i]] = static_cast<Code>(j);
        });
      }
    }
    if (rep[s] != kNoKey) {
      // The representative's repeats kept their remapped provisional
      // code, which is theirs unless a cut of the bucket lies below it.
      const int j = note(FromOrderKey(rep[s]));
      if (codes != nullptr && j != remap[pcode[c.bucket]]) {
        fix[c.bucket] = 2;
        fourth_pass = true;
      }
    }
  }
  out->interior.assign(m, 0);
  for (int j = 0; j < m; ++j) {
    out->interior[j] = buckets_in[j] >= 2 || (buckets_in[j] == 1 && has[j]) ||
                       (has[j] && lo_of[j] < hi_of[j]);
    if (buckets_in[j] == 1 && !has[j] && count(lone[j]) > 1) {
      fix[lone[j]] = 1;
      fourth_pass = true;
    }
  }

  // Pass 4, rare: recode the flagged heavy buckets and find whether each
  // lone bucket holds two distinct values.
  if (fourth_pass) {
    std::vector<double> bucket_lo(nb, kInf);
    std::vector<double> bucket_hi(nb, -kInf);
    auto fix_pass = [&](auto* dst) {
      return ForEachChunk(
          column, chunk, [&](const double* v, int64_t begin, int64_t len) {
            for (int64_t i = 0; i < len; ++i) {
              const int b = bucket(v[i]);
              if (fix[b] == 0) continue;
              if (fix[b] == 2) {
                using Code = std::remove_pointer_t<decltype(dst)>;
                dst[begin + i] = static_cast<Code>(grid.IntervalOf(v[i]));
              } else {
                bucket_lo[b] = std::min(bucket_lo[b], v[i]);
                bucket_hi[b] = std::max(bucket_hi[b], v[i]);
              }
            }
          });
    };
    const bool fixed = codes != nullptr
                           ? codes->VisitStorage(fix_pass)
                           : fix_pass(static_cast<uint8_t*>(nullptr));
    if (!fixed) return false;
    for (int j = 0; j < m; ++j) {
      if (lone[j] >= 0 && fix[lone[j]] == 1) {
        out->interior[j] = bucket_lo[lone[j]] < bucket_hi[lone[j]];
      }
    }
  }

  if (stats != nullptr) {
    stats->passes = fourth_pass ? 4 : 3;
    stats->candidates = num_candidates;
    stats->buffer_bytes =
        chunk * static_cast<int64_t>(sizeof(uint16_t) + sizeof(uint32_t)) +
        counter_bytes + candidate_bytes +
        static_cast<int64_t>(scratch.capacity() * sizeof(uint64_t)) +
        nb * static_cast<int64_t>(sizeof(int64_t) + 2 * sizeof(int32_t) + 2);
  }
  return true;
}

}  // namespace

bool DiscretizeColumn(ColumnReader& column, int q, int64_t chunk,
                      CodeColumn* codes, AttrGridResult* out,
                      ColumnSetupStats* stats) {
  assert(q >= 1 && chunk >= 1);
  if (stats != nullptr) *stats = ColumnSetupStats();
  const int64_t n = column.size();
  if (n == 0) {
    out->grid = IntervalGrid();
    out->interior.assign(1, 0);
    if (codes != nullptr) codes->Resize(1, 0);
    return true;
  }
  // Pass 1: the key range.
  uint64_t lo = ~uint64_t{0};
  uint64_t hi = 0;
  if (!ForEachChunk(column, chunk,
                    [&](const double* v, int64_t /*begin*/, int64_t len) {
                      for (int64_t i = 0; i < len; ++i) {
                        const uint64_t key = OrderKey(v[i]);
                        lo = std::min(lo, key);
                        hi = std::max(hi, key);
                      }
                    })) {
    return false;
  }
  const double min_value = FromOrderKey(lo);
  const double span = FromOrderKey(hi) - min_value;
  const double scale = kMaxBuckets / span;
  if (span > 0 && std::isfinite(span) && std::isfinite(scale)) {
    return Discretize(column, q, chunk, codes, ValueBuckets{min_value, scale},
                      kMaxBuckets, lo, hi, out, stats);
  }
  const uint64_t key_lo = OrderKey(min_value + 0.0);
  const uint64_t key_span = OrderKey(FromOrderKey(hi) + 0.0) - key_lo;
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(key_span)) - kBucketBits);
  return Discretize(column, q, chunk, codes, KeyBuckets{key_lo, shift},
                    static_cast<int>(key_span >> shift) + 1, lo, hi, out,
                    stats);
}

std::vector<char> InteriorMarksFromSorted(const std::vector<double>& sorted,
                                          const IntervalGrid& grid) {
  std::vector<char> interior(grid.num_intervals(), 0);
  const std::vector<double>& cuts = grid.boundaries();
  size_t bi = 0;
  double first_in_interval = sorted.empty() ? 0.0 : sorted[0];
  size_t interval_start_bi = 0;
  for (double v : sorted) {
    while (bi < cuts.size() && v > cuts[bi]) ++bi;
    if (bi != interval_start_bi) {
      interval_start_bi = bi;
      first_in_interval = v;
    } else if (v != first_in_interval) {
      interior[bi] = 1;
    }
  }
  return interior;
}

void ExactAttrGridBuilder::Add(const double* values, int64_t n) {
  values_.insert(values_.end(), values, values + n);
}

AttrGridResult ExactAttrGridBuilder::Finish(int q,
                                            Discretization kind) const {
  AttrGridResult result;
  const int64_t n = static_cast<int64_t>(values_.size());
  if (kind == Discretization::kEqualDepth) {
    BorrowedColumn column(values_.data(), n);
    DiscretizeColumn(column, q, kSetupChunkRecords, nullptr, &result);
    return result;
  }
  // Equal width: an interval is interior iff its smallest value is below
  // its largest.
  result.grid = IntervalGrid::EqualWidth(values_, q);
  const int m = result.grid.num_intervals();
  std::vector<double> lo(m, kInf);
  std::vector<double> hi(m, -kInf);
  for (double v : values_) {
    const int i = result.grid.IntervalOf(v);
    lo[i] = std::min(lo[i], v);
    hi[i] = std::max(hi[i], v);
  }
  result.interior.assign(m, 0);
  for (int i = 0; i < m; ++i) result.interior[i] = lo[i] < hi[i];
  return result;
}

}  // namespace cmp
