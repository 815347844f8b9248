#ifndef CMP_INFER_SCRATCH_H_
#define CMP_INFER_SCRATCH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/types.h"

namespace cmp {

/// Reusable per-block scoring scratch. Allocating these vectors inside
/// every block closure would cost several heap round trips per flushed
/// serving micro-batch, so a predictor owns a ScratchPool and a block
/// leases a warm set instead. The vectors only ever grow, so a steady-state block does no
/// allocation at all.
struct PredictScratch {
  std::vector<int32_t> leaves;  // leaf index per row x tree
  std::vector<ClassId> order;   // top-k sort order
  std::vector<double> acc;      // one row's per-class scores
};

/// Mutex-guarded free list of scratch sets. ThreadPool::ParallelFor
/// gives workers no stable identity, so "per-thread" buffers are
/// expressed as leases bracketing each block: Acquire at block start,
/// Release at block end. The pool holds at most one scratch per
/// concurrently running block and never shrinks.
class ScratchPool {
 public:
  std::unique_ptr<PredictScratch> Acquire() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        std::unique_ptr<PredictScratch> s = std::move(free_.back());
        free_.pop_back();
        return s;
      }
    }
    return std::make_unique<PredictScratch>();
  }

  void Release(std::unique_ptr<PredictScratch> s) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(s));
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<PredictScratch>> free_;
};

/// RAII lease of one scratch set from a pool.
class ScratchLease {
 public:
  explicit ScratchLease(ScratchPool* pool)
      : pool_(pool), scratch_(pool->Acquire()) {}
  ~ScratchLease() { pool_->Release(std::move(scratch_)); }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  PredictScratch& operator*() const { return *scratch_; }
  PredictScratch* operator->() const { return scratch_.get(); }

 private:
  ScratchPool* pool_;
  std::unique_ptr<PredictScratch> scratch_;
};

}  // namespace cmp

#endif  // CMP_INFER_SCRATCH_H_
