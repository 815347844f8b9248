// Runtime kernel-tier dispatch (common/cpu_features.h): tier detection,
// parsing and selection, plus the whole-build check that training does
// not depend on the selected tier. Only batch tree descent dispatches on
// the tier; its per-tier equivalence suite is tests/test_infer_kernels.cc.
#include "common/cpu_features.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cmp/cmp.h"
#include "datagen/agrawal.h"
#include "tree/serialize.h"

namespace cmp {
namespace {

// Restores the tier that was active when the test started, so a failing
// assertion mid-test cannot leak a forced tier into later tests.
class IsaGuard {
 public:
  IsaGuard() : prev_(ActiveKernelIsa()) {}
  ~IsaGuard() { SetKernelIsa(prev_); }

 private:
  KernelIsa prev_;
};

std::vector<KernelIsa> RunnableIsas() {
  std::vector<KernelIsa> isas = {KernelIsa::kScalar};
  if (KernelIsaSupported(KernelIsa::kAvx2)) isas.push_back(KernelIsa::kAvx2);
  return isas;
}

// Whole-build identity: the serialized tree must not depend on the
// kernel tier or the thread count — the full cross product collapses
// onto the scalar 1-thread build's byte string.
TEST(KernelDispatch, TreeBytesInvariantAcrossTiersAndThreads) {
  IsaGuard guard;
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF7;  // linear splits stress the gini scan
  gen.num_records = 4000;
  gen.seed = 227;
  const Dataset train = GenerateAgrawal(gen);

  CmpOptions base = CmpBOptions();
  base.base.in_memory_threshold = 512;

  ASSERT_TRUE(SetKernelIsa(KernelIsa::kScalar));
  CmpOptions ref = base;
  ref.base.num_threads = 1;
  const std::string reference =
      SerializeTree(CmpBuilder(ref).Build(train).tree);
  ASSERT_FALSE(reference.empty());

  for (const KernelIsa isa : RunnableIsas()) {
    ASSERT_TRUE(SetKernelIsa(isa));
    for (const int threads : {1, 2, 4}) {
      CmpOptions o = base;
      o.base.num_threads = threads;
      o.scan_shards = threads;
      EXPECT_EQ(SerializeTree(CmpBuilder(o).Build(train).tree), reference)
          << KernelIsaName(isa) << " threads=" << threads;
    }
  }
}

TEST(KernelDispatch, ScalarAlwaysSupportedAndSelectable) {
  IsaGuard guard;
  EXPECT_TRUE(KernelIsaSupported(KernelIsa::kScalar));
  EXPECT_TRUE(SetKernelIsa(KernelIsa::kScalar));
  EXPECT_EQ(ActiveKernelIsa(), KernelIsa::kScalar);
  EXPECT_EQ(std::string(KernelIsaName(KernelIsa::kScalar)), "scalar");
}

TEST(KernelDispatch, DetectedTierIsSupportedAndOrdered) {
  const KernelIsa detected = DetectKernelIsa();
  EXPECT_TRUE(KernelIsaSupported(detected));
  // Every tier at or below the detected one must be runnable too.
  for (int t = 0; t <= static_cast<int>(detected); ++t) {
    EXPECT_TRUE(KernelIsaSupported(static_cast<KernelIsa>(t))) << t;
  }
}

TEST(KernelDispatch, ParseAcceptsTierNamesAndAuto) {
  KernelIsa isa;
  EXPECT_TRUE(ParseKernelIsa("scalar", &isa));
  EXPECT_EQ(isa, KernelIsa::kScalar);
  EXPECT_TRUE(ParseKernelIsa("avx2", &isa));
  EXPECT_EQ(isa, KernelIsa::kAvx2);
  EXPECT_TRUE(ParseKernelIsa("auto", &isa));
  EXPECT_EQ(isa, DetectKernelIsa());
  EXPECT_FALSE(ParseKernelIsa("sse2", &isa));  // tier removed
  EXPECT_FALSE(ParseKernelIsa("avx512", &isa));
  EXPECT_FALSE(ParseKernelIsa("", &isa));
  EXPECT_FALSE(ParseKernelIsa("Scalar", &isa));  // names are lowercase
}

TEST(KernelDispatch, SelectByNameReportsUnknownTiers) {
  IsaGuard guard;
  std::string error;
  EXPECT_TRUE(SelectKernelIsaByName("scalar", &error)) << error;
  EXPECT_EQ(ActiveKernelIsa(), KernelIsa::kScalar);
  EXPECT_FALSE(SelectKernelIsaByName("bogus", &error));
  EXPECT_NE(error.find("unknown kernel tier 'bogus'"), std::string::npos)
      << error;
  EXPECT_FALSE(SelectKernelIsaByName("sse2", &error));
  EXPECT_NE(error.find("auto|scalar|avx2"), std::string::npos) << error;
  EXPECT_EQ(ActiveKernelIsa(), KernelIsa::kScalar);
}

}  // namespace
}  // namespace cmp
