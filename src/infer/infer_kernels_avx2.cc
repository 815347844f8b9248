// AVX2 tier of the batch traversal kernels (see infer_kernels.h).
// Compiled with -mavx2 and only that — never -mfma, so the linear-split
// a*x + b*y stays mul/mul/add and cannot be contracted, keeping lane
// arithmetic bit-identical to the scalar walker. The table is only ever
// selected after the runtime CPUID/XCR0 check in common/cpu_features.cc
// passes.
//
// Strategy: eight rows form one gang that descends a tree level per
// iteration. A scalar lane-service pass retires leaves (writing the
// output and refilling the lane from the range), steps categorical
// lanes, and loads each lane's feature value; the level itself is then
// vector code over the bind-time FusedNode records — one 16-byte load
// per lane fetches its whole {threshold, left, right} record, an unpack
// tree transposes the eight records to SoA, the ordered `<=` compare
// (quiet NaN compares false, routing right like scalar) builds a lane
// mask, and a blend picks each lane's child without a dependent second
// load. The next level's attribute words are gathered right after the
// blend, a full service pass before they are read, so the service
// classification never waits on a load.
//
// Four structural choices carry the speed:
//  - FusedNode records + the parallel attribute array: one line for the
//    split and one densely packed line (16 nodes) for the
//    classification. Real CMP trees are dominated by wide splits
//    (thresholds that don't round-trip through float), which the array
//    walk resolves through a separate side table — a second line per
//    visit. Bind time folds those into the record as an exact double
//    threshold with the side entry's attribute in the parallel array,
//    so the dominant node kind takes the same vector path as plain
//    numeric splits and the loaded cut needs no widening.
//  - Whole-record loads: one 16-byte movupd per lane brings threshold
//    and both children — half the load micro-ops of gathering the same
//    bytes 8 at a time — and next-level attributes are gathered
//    alongside, so nothing queues behind a compare.
//  - Mask-driven service: the pipelined attribute gather's sign bits
//    classify every lane a level ahead. The numeric majority runs a
//    branch-free tzcnt loop of feature loads; only the exceptional
//    minority (leaf/cat/lin) sees data-dependent branches. Without the
//    masks the per-lane kind test is a 2:1 coin flip the branch
//    predictor cannot learn — a mispredict most visits.
//  - kGroups gangs in flight at once: one gang alone is bound by the
//    latency of its level chain while a scalar walker overlaps its
//    independent rows for free in the out-of-order window; eight gangs'
//    independent record loads (64 rows in flight) push the level cost
//    toward L2 load throughput on trees that outgrow L1.
// Nodes stay in compile order (preorder): a cache-blocked reordering
// tied it on every benchmark workload (DESIGN.md §4k).
//
// Linkage: everything this file defines or instantiates, apart from
// Avx2InferKernelOpsOrNull, is TU-local — the shared walker has internal
// linkage, and builtins stand in for inline library functions — so no
// weak definition compiled with -mavx2 can be picked by the linker for a
// caller in another translation unit.
//
// Gather safety: all gathers read whole words of in-bounds arrays (ids
// are validated child pointers, and node counts are capped at INT32_MAX
// by the blob bind, so the 2*id+1 scaled index cannot overflow a signed
// 32-bit lane for any tree that fits in memory).

#include "infer/infer_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstdint>

namespace cmp {

namespace {

using infer_impl::ColumnRow;

constexpr int kLanes = 8;   // rows per gang (one __m256d pair)
constexpr int kGroups = 8;  // concurrent gangs whose gathers overlap
constexpr int kMaxLanes = kLanes * kGroups;

// Side-table index a kCat/kLin fused record carries in its threshold
// slot (see CompiledTree::FusedNode).
int32_t SideIndex(const CompiledTree::FusedNode& nd) {
  return static_cast<int32_t>(__builtin_bit_cast(int64_t, nd.threshold));
}

void DescendBlockAvx2(const TreeNodesView& t, const RowColumnsView& rows,
                      int64_t begin, int64_t end, int32_t* out) {
  const int64_t n = end - begin;
  if (n < kLanes) {
    for (int64_t i = begin; i < end; ++i) {
      out[i - begin] = infer_impl::DescendFrom(t, ColumnRow{&rows, i});
    }
    return;
  }
  // As many full gangs as the range can seed; the refill pool tops the
  // lanes up from whatever is left.
  const int groups =
      n >= kMaxLanes ? kGroups : static_cast<int>(n / kLanes);
  const int lanes = groups * kLanes;
  alignas(32) int32_t ids[kMaxLanes];
  alignas(32) int32_t attrs[kMaxLanes];  // pipelined: gathered last level
  int64_t rws[kMaxLanes];
  alignas(32) double x[kMaxLanes];
  alignas(32) double cut[kMaxLanes];
  bool done_lane[kMaxLanes] = {};
  // Per-gang bitmask of exceptional lanes (attr word < 0: leaf, cat or
  // lin), derived from the pipelined attribute gather while it is still
  // in a register. The service pass walks the two populations through
  // separate tzcnt loops: the numeric majority runs branch-free, and the
  // lane-kind test — a data-dependent 2:1 coin flip the predictor can't
  // learn — disappears from the common path.
  uint32_t exc_m[kGroups];
  int64_t next = begin;
  const int32_t root_attr = t.fused_attr[0];
  for (int l = 0; l < lanes; ++l) {
    ids[l] = 0;
    attrs[l] = root_attr;
    rws[l] = next++;
  }
  for (int g = 0; g < groups; ++g) {
    exc_m[g] = root_attr < 0 ? 0xffu : 0u;
  }
  // Maps the shuffle_ps packing of two 4x64 halves
  // ([q0,q1,q4,q5 | q2,q3,q6,q7]) back into lane order.
  const __m256i perm = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
  const double* fused_d = reinterpret_cast<const double*>(t.fused);
  // The masked gather form with an all-ones mask is the plain gather;
  // GCC's no-mask wrapper leaves its pass-through operand undefined and
  // trips -Werror=maybe-uninitialized.
  const __m256i onesi = _mm256_set1_epi64x(-1);
  bool dry = false;  // a lane found the range empty on refill
  while (true) {
    uint64_t side_mask = 0;  // lanes whose cut[] came from a side table
    for (int g = 0; g < groups && !dry; ++g) {
      const int base = g * kLanes;
      const uint32_t exc = exc_m[g];
      // Numeric majority (plain or bind-folded wide): just a feature
      // load per lane, no branches. The exact double threshold is
      // gathered in the vector step; start the record's line toward L1
      // now — that gather lands tens of cycles from here.
      for (uint32_t m = ~exc & 0xffu; m != 0; m &= m - 1) {
        const int l = base + __builtin_ctz(m);
        _mm_prefetch(reinterpret_cast<const char*>(t.fused + ids[l]),
                     _MM_HINT_T0);
        x[l] = rows.numeric[attrs[l]][rws[l]];
      }
      // Exceptional lanes: retire leaves (refilling from the range) and
      // resolve categorical/linear splits scalar. A lane chains until it
      // parks on a numeric node again (or the range runs dry).
      for (uint32_t m = exc; m != 0 && !dry; m &= m - 1) {
        const int l = base + __builtin_ctz(m);
        int32_t a = attrs[l];
        for (;;) {
          if (a >= 0) {
            _mm_prefetch(reinterpret_cast<const char*>(t.fused + ids[l]),
                         _MM_HINT_T0);
            x[l] = rows.numeric[a][rws[l]];
            break;
          }
          const CompiledTree::FusedNode& nd = t.fused[ids[l]];
          if (a == CompiledTree::kLeaf) {
            out[rws[l] - begin] = nd.right;  // leaf-table index
            if (next < end) {
              ids[l] = 0;
              a = root_attr;
              rws[l] = next++;
              continue;
            }
            done_lane[l] = true;
            dry = true;
            break;
          }
          if (a == CompiledTree::kLin) {
            const CompiledTree::LinSplit& s = t.lin_splits[SideIndex(nd)];
            x[l] = s.a * rows.numeric[s.x][rws[l]] +
                   s.b * rows.numeric[s.y][rws[l]];
            cut[l] = s.c;
            side_mask |= uint64_t{1} << l;
            break;
          }
          // Categorical: resolved fully here (same tests as the scalar
          // Step), reading only the fused record and the side tables.
          const CompiledTree::CatSplit& s = t.cat_splits[SideIndex(nd)];
          const int32_t v = rows.categorical[s.attr][rws[l]];
          const bool go_left =
              v >= 0 && v < s.card && t.cat_bits[s.offset + v] != 0;
          ids[l] = go_left ? nd.left : nd.right;
          a = t.fused_attr[ids[l]];
        }
      }
    }
    if (dry) break;
    // One level for every gang. Each gang's gathers depend only on its
    // own ids, so the hardware keeps all groups' fetches in flight.
    for (int g = 0; g < groups; ++g) {
      const int base = g * kLanes;
      // Each lane's whole 16-byte record arrives in ONE load — half the
      // load micro-ops a gather would spend fetching the same bytes
      // 8 at a time — and an unpack tree transposes the eight records
      // to SoA: cut vectors in lane order, child pairs in the packed
      // [q0,q1,q4,q5 | q2,q3,q6,q7] order the blend below expects. The
      // eight loads carry independent addresses, so they pipeline like
      // a gather without its setup overhead.
      const __m128d r0 = _mm_loadu_pd(fused_d + 2 * ids[base + 0]);
      const __m128d r1 = _mm_loadu_pd(fused_d + 2 * ids[base + 1]);
      const __m128d r2 = _mm_loadu_pd(fused_d + 2 * ids[base + 2]);
      const __m128d r3 = _mm_loadu_pd(fused_d + 2 * ids[base + 3]);
      const __m128d r4 = _mm_loadu_pd(fused_d + 2 * ids[base + 4]);
      const __m128d r5 = _mm_loadu_pd(fused_d + 2 * ids[base + 5]);
      const __m128d r6 = _mm_loadu_pd(fused_d + 2 * ids[base + 6]);
      const __m128d r7 = _mm_loadu_pd(fused_d + 2 * ids[base + 7]);
      __m256d cut_lo = _mm256_set_m128d(_mm_unpacklo_pd(r2, r3),
                                        _mm_unpacklo_pd(r0, r1));
      __m256d cut_hi = _mm256_set_m128d(_mm_unpacklo_pd(r6, r7),
                                        _mm_unpacklo_pd(r4, r5));
      const __m256i ch_lo = _mm256_castpd_si256(_mm256_set_m128d(
          _mm_unpackhi_pd(r2, r3), _mm_unpackhi_pd(r0, r1)));
      const __m256i ch_hi = _mm256_castpd_si256(_mm256_set_m128d(
          _mm_unpackhi_pd(r6, r7), _mm_unpackhi_pd(r4, r5)));
      // Linear lanes computed their cut in the service pass (rare);
      // merge those over the gathered values.
      const uint32_t side =
          static_cast<uint32_t>((side_mask >> base) & 0xffu);
      if (side != 0) {
        alignas(32) double cs[kLanes];
        _mm256_store_pd(cs, cut_lo);
        _mm256_store_pd(cs + 4, cut_hi);
        for (int l = 0; l < kLanes; ++l) {
          if (side & (1u << l)) cs[l] = cut[base + l];
        }
        cut_lo = _mm256_load_pd(cs);
        cut_hi = _mm256_load_pd(cs + 4);
      }
      // Ordered `<=` masks for lanes 0-3 and 4-7. Staying in the vector
      // domain (shuffle + permute instead of movemask + scalar shifts)
      // keeps the GPR round-trip off the level's critical path.
      const __m256d le_lo =
          _mm256_cmp_pd(_mm256_load_pd(x + base), cut_lo, _CMP_LE_OQ);
      const __m256d le_hi =
          _mm256_cmp_pd(_mm256_load_pd(x + base + 4), cut_hi, _CMP_LE_OQ);
      // Split the child pairs into left (even dwords) and right (odd
      // dwords) streams, and halve the 64-bit compare masks to 32-bit
      // lanes (each double mask is all-ones/all-zero, so its low float
      // half is too). All three land in the same packed lane order, so
      // one blend picks each lane's child and a single permute restores
      // lane order for the next level's ids.
      const __m256 cl = _mm256_castsi256_ps(ch_lo);
      const __m256 ch = _mm256_castsi256_ps(ch_hi);
      const __m256 lefts = _mm256_shuffle_ps(cl, ch, _MM_SHUFFLE(2, 0, 2, 0));
      const __m256 rights = _mm256_shuffle_ps(cl, ch, _MM_SHUFFLE(3, 1, 3, 1));
      const __m256 le_packed =
          _mm256_shuffle_ps(_mm256_castpd_ps(le_lo), _mm256_castpd_ps(le_hi),
                            _MM_SHUFFLE(2, 0, 2, 0));
      const __m256i chosen = _mm256_castps_si256(
          _mm256_blendv_ps(rights, lefts, le_packed));
      const __m256i nid = _mm256_permutevar8x32_epi32(chosen, perm);
      _mm256_store_si256(reinterpret_cast<__m256i*>(ids + base), nid);
      // Pipeline the next level's classification: this gather has a
      // whole service pass of slack before attrs[] is read again. While
      // the words are still in a register, take their sign bits as the
      // next service pass's exceptional-lane mask.
      const __m256i av = _mm256_mask_i32gather_epi32(
          _mm256_setzero_si256(), t.fused_attr, nid, onesi, 4);
      _mm256_store_si256(reinterpret_cast<__m256i*>(attrs + base), av);
      exc_m[g] = static_cast<uint32_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(av)));
    }
  }
  // Range dry: lanes still in flight (their ids unstepped since the last
  // child blend) finish scalar, exactly like the gang walker's drain.
  for (int l = 0; l < lanes; ++l) {
    if (done_lane[l]) continue;
    out[rws[l] - begin] =
        infer_impl::DescendFrom(t, ColumnRow{&rows, rws[l]}, ids[l]);
  }
}

constexpr InferKernelOps kAvx2Ops = {DescendBlockAvx2};

}  // namespace

const InferKernelOps* Avx2InferKernelOpsOrNull() { return &kAvx2Ops; }

}  // namespace cmp

#else  // !defined(__AVX2__)

namespace cmp {

const InferKernelOps* Avx2InferKernelOpsOrNull() { return nullptr; }

}  // namespace cmp

#endif  // defined(__AVX2__)
