#include "infer/infer_kernels.h"

namespace cmp {

namespace {

/// Scalar tier: gang descent. kLanes rows walk the tree interleaved, so
/// each lane's short chain of dependent loads overlaps the others' in
/// the memory pipeline instead of serializing behind one row's cache
/// misses. A lane that reaches a leaf immediately refills with the next
/// row (short descents never wait for deep ones) until the range runs
/// dry, and the last in-flight lanes drain one by one.
void DescendBlockScalar(const TreeNodesView& t, const RowColumnsView& rows,
                        int64_t begin, int64_t end, int32_t* out) {
  using infer_impl::ColumnRow;
  constexpr int kLanes = 8;
  if (end - begin < kLanes) {
    for (int64_t i = begin; i < end; ++i) {
      out[i - begin] = infer_impl::DescendFrom(t, ColumnRow{&rows, i});
    }
    return;
  }
  int32_t ids[kLanes];
  int64_t rws[kLanes];
  int64_t next = begin;
  for (int l = 0; l < kLanes; ++l) {
    ids[l] = 0;
    rws[l] = next++;
  }
  bool done_lane[kLanes] = {};
  int retired = 0;  // lanes that found the range dry on refill
  while (retired == 0) {
    for (int l = 0; l < kLanes; ++l) {
      ids[l] = infer_impl::Step(t, ColumnRow{&rows, rws[l]}, ids[l]);
    }
    for (int l = 0; l < kLanes; ++l) {
      if (t.attr[ids[l]] != CompiledTree::kLeaf) continue;
      out[rws[l] - begin] = t.children[2 * ids[l] + 1];
      if (next < end) {
        ids[l] = 0;
        rws[l] = next++;
      } else {
        done_lane[l] = true;
        ++retired;
      }
    }
  }
  for (int l = 0; l < kLanes; ++l) {
    if (done_lane[l]) continue;
    out[rws[l] - begin] =
        infer_impl::DescendFrom(t, ColumnRow{&rows, rws[l]}, ids[l]);
  }
}

constexpr InferKernelOps kScalarOps = {DescendBlockScalar};

}  // namespace

// A tier that was not compiled into this binary (OrNull returned null)
// silently degrades to scalar, so callers can ask for the detected ISA
// unconditionally.
const InferKernelOps& InferKernelOpsFor(KernelIsa isa) {
  if (isa == KernelIsa::kAvx2) {
    if (const InferKernelOps* ops = Avx2InferKernelOpsOrNull()) return *ops;
  }
  return kScalarOps;
}

const InferKernelOps& ActiveInferKernelOps() {
  return InferKernelOpsFor(ActiveKernelIsa());
}

}  // namespace cmp
