#include "cmp/cmp.h"

#include <memory>

#include "cmp/build_driver.h"
#include "cmp/record_store.h"
#include "cmp/variant_policy.h"
#include "common/thread_pool.h"
#include "io/block_source.h"

namespace cmp {

BuildResult CmpBuilder::Build(const Dataset& train) {
  BuildResult result;
  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = pool_;
  if (pool == nullptr) {
    owned = std::make_unique<ThreadPool>(options_.base.num_threads);
    pool = owned.get();
  }
  // The whole table as one zero-copy block: the block loop degenerates
  // to the classic in-memory scan.
  DatasetBlockSource source(train);
  InMemoryStore store(train);
  CmpBuild<InMemoryStore> build(store, source, options_, pool, &result);
  build.Run();
  return result;
}

BuildResult CmpBuilder::BuildStreamed(BlockSource& source) {
  BuildResult result;
  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = pool_;
  if (pool == nullptr) {
    owned = std::make_unique<ThreadPool>(options_.base.num_threads);
    pool = owned.get();
  }
  source.set_prefetch_pool(pool->num_threads() > 0 ? pool : nullptr);
  StreamStore store(source.schema(), source.num_records());
  CmpBuild<StreamStore> build(store, source, options_, pool, &result);
  build.Run();
  return result;
}

std::string CmpBuilder::name() const {
  return VariantPolicy::For(options_.variant).display_name;
}

CmpOptions CmpSOptions() {
  CmpOptions o;
  o.variant = CmpVariant::kS;
  return o;
}

CmpOptions CmpBOptions() {
  CmpOptions o;
  o.variant = CmpVariant::kB;
  return o;
}

CmpOptions CmpFullOptions() {
  CmpOptions o;
  o.variant = CmpVariant::kFull;
  return o;
}

}  // namespace cmp
