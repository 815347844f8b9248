#ifndef CMP_IO_BLOCK_SOURCE_H_
#define CMP_IO_BLOCK_SOURCE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/column_reader.h"
#include "common/dataset.h"
#include "io/stream.h"

namespace cmp {

class ThreadPool;

/// Non-owning columnar view of one contiguous block of records
/// [begin, begin + count). Column pointers stay valid until the source
/// yields the next block (or is Reset); record access is by LOCAL index
/// 0..count-1.
struct BlockView {
  int64_t begin = 0;
  int64_t count = 0;
  // Indexed by AttrId; only the matching-kind pointer is non-null.
  std::vector<const double*> numeric;
  std::vector<const int32_t*> categorical;
  const ClassId* labels = nullptr;
};

/// A resettable stream of columnar record blocks — the access pattern
/// every scan of an out-of-core tree builder makes. Implementations
/// either borrow blocks zero-copy from an in-memory Dataset or stage
/// them from a CMPT table file through reusable aligned buffers (with
/// async prefetch of block k+1 while block k is being consumed).
class BlockSource {
 public:
  virtual ~BlockSource() = default;

  virtual const Schema& schema() const = 0;
  virtual int64_t num_records() const = 0;

  /// Yields the next block of the current pass. Returns false at end of
  /// pass or on read failure (distinguish via failed()). The view's
  /// pointers are invalidated by the next call to NextBlock/Reset.
  virtual bool NextBlock(BlockView* view) = 0;

  /// Rewinds to the first record for another pass, clearing any error
  /// state left by a failed read.
  virtual void Reset() = 0;

  /// True when the last pass ended early because a read failed (as
  /// opposed to a clean end-of-pass).
  virtual bool failed() const { return false; }

  /// Real bytes pulled from backing storage so far (0 for in-memory
  /// sources).
  virtual int64_t bytes_read() const { return 0; }

  /// Opens numeric column `a` for the discretization setup's chunked
  /// passes (common/column_reader.h); null when the column cannot be
  /// opened. Each reader reads on its own, so columns may be set up
  /// concurrently.
  virtual std::unique_ptr<ColumnReader> OpenNumericColumn(AttrId a) = 0;

  /// Reads the whole label column in ascending record order.
  virtual bool ReadLabels(std::vector<ClassId>* out) = 0;

  /// Installs a pool for async prefetch; a null pool (or not calling
  /// this) keeps reads synchronous. No-op for in-memory sources.
  virtual void set_prefetch_pool(ThreadPool* pool) { (void)pool; }

  /// Bytes of staging buffers the source keeps resident (0 when
  /// zero-copy).
  virtual int64_t resident_bytes() const { return 0; }
};

/// Zero-copy block source over an in-memory Dataset: each view points
/// straight into the dataset's columns, sliced into `block_records`
/// pieces (one whole-table block when `block_records <= 0`).
class DatasetBlockSource : public BlockSource {
 public:
  explicit DatasetBlockSource(const Dataset& ds, int64_t block_records = 0);

  const Schema& schema() const override { return ds_.schema(); }
  int64_t num_records() const override { return ds_.num_records(); }
  bool NextBlock(BlockView* view) override;
  void Reset() override { position_ = 0; }
  /// Reads the dataset's column in place.
  std::unique_ptr<ColumnReader> OpenNumericColumn(AttrId a) override;
  bool ReadLabels(std::vector<ClassId>* out) override;

 private:
  const Dataset& ds_;
  int64_t block_records_ = 0;
  int64_t position_ = 0;
};

/// Streams a CMPT table file in bounded memory: two reusable aligned
/// ColumnBlocks are cycled so that, when a prefetch pool is installed,
/// block k+1 is read by a pool task while the consumer accumulates
/// block k — the classic double-buffered scan pipeline. Without a pool
/// the same code path degrades to synchronous reads. Peak staging
/// memory is 2 × block_records × schema.RecordBytes() (plus padding),
/// independent of the table size.
class TableBlockSource : public BlockSource {
 public:
  /// Opens `path`; returns null on open/validation failure.
  static std::unique_ptr<TableBlockSource> Open(const std::string& path,
                                                int64_t block_records = 65536);

  ~TableBlockSource() override;

  const Schema& schema() const override { return scanner_->schema(); }
  int64_t num_records() const override { return scanner_->num_records(); }
  bool NextBlock(BlockView* view) override;
  void Reset() override;
  bool failed() const override { return failed_; }
  int64_t bytes_read() const override;
  /// Stages the column one chunk at a time through a private scanner,
  /// rejecting a chunk that holds a NaN, and charges every chunk's bytes
  /// to bytes_read().
  std::unique_ptr<ColumnReader> OpenNumericColumn(AttrId a) override;
  bool ReadLabels(std::vector<ClassId>* out) override;
  void set_prefetch_pool(ThreadPool* pool) override;
  int64_t resident_bytes() const override;

 private:
  class NumericColumnReader;

  TableBlockSource() = default;

  // Issues an async (or, without a pool, synchronous) read of records
  // [start, ...) into slot `s`. Caller must hold no lock.
  void StartFetch(int s, int64_t start);
  // Blocks until slot `s`'s fetch completes; returns its success.
  bool AwaitFetch(int s);

  std::string path_;
  std::unique_ptr<TableScanner> scanner_;  // consumer-side column reads
  int64_t next_fetch_ = 0;   // first record of the next block to fetch
  int64_t delivered_ = 0;    // records handed out this pass
  int cur_ = 0;              // slot the consumer reads next
  bool failed_ = false;

  struct Slot {
    ColumnBlock block;
    std::unique_ptr<TableScanner> scanner;  // private stream per slot
    bool in_flight = false;
    bool ok = false;
  };
  Slot slots_[2];
  ThreadPool* pool_ = nullptr;  // borrowed; null => synchronous reads
  mutable std::mutex mu_;
  std::condition_variable fetch_done_;
  int64_t bytes_read_ = 0;  // guarded by mu_ (slot + side-column reads)
};

}  // namespace cmp

#endif  // CMP_IO_BLOCK_SOURCE_H_
