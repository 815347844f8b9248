#ifndef CMP_INFER_INFER_KERNELS_H_
#define CMP_INFER_INFER_KERNELS_H_

#include <cstdint>

#include "common/cpu_features.h"
#include "infer/compiled_tree.h"

namespace cmp {

/// Per-ISA batch tree-traversal kernels behind the runtime dispatch of
/// common/cpu_features.h: the AVX2 tier descends 8 rows per vector,
/// scalar is the gang walker (SSE2 has no gathers, and a measured SSE2
/// descent ran at half the gang walker's speed; DESIGN.md §4k). Every
/// tier reproduces CompiledTree::PredictRow bit for bit —
/// comparisons stay in double, vector compares use ordered `<=` (NaN
/// routes right), and linear splits are evaluated mul/mul/add with FP
/// contraction impossible (the AVX2 file is compiled with -mavx2 only,
/// never -mfma), so a vector lane computes the exact doubles the scalar
/// walker does.
struct InferKernelOps {
  /// Fills `out[i - begin]` with the leaf index row i of `rows` lands in,
  /// for i in [begin, end). Must be byte-identical to
  /// infer_impl::DescendFrom (infer/compiled_tree.h) on every row.
  void (*descend_block)(const TreeNodesView& tree, const RowColumnsView& rows,
                        int64_t begin, int64_t end, int32_t* out);
};

/// Ops for `isa`, falling back to scalar when the AVX2 tier was not
/// compiled into this binary. The fallback is resolved at link time, so
/// a scalar-only build never references vector symbols.
const InferKernelOps& InferKernelOpsFor(KernelIsa isa);

/// Ops for the active (auto-detected or pinned) tier.
const InferKernelOps& ActiveInferKernelOps();

/// The AVX2 table, or null when this binary was built without the ISA.
/// Exposed for the differential tests and benches that sweep every
/// runnable tier explicitly.
const InferKernelOps* Avx2InferKernelOpsOrNull();

}  // namespace cmp

#endif  // CMP_INFER_INFER_KERNELS_H_
