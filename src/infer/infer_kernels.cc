#include "infer/infer_kernels.h"

#include "infer/infer_kernels_impl.h"

namespace cmp {

namespace {
constexpr InferKernelOps kScalarOps = {infer_impl::DescendBlockScalar};
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
