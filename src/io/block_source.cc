#include "io/block_source.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/thread_pool.h"

namespace cmp {

// ---------------------------------------------------------------------
// DatasetBlockSource

DatasetBlockSource::DatasetBlockSource(const Dataset& ds,
                                       int64_t block_records)
    : ds_(ds),
      block_records_(block_records > 0 ? block_records : ds.num_records()) {
  if (block_records_ <= 0) block_records_ = 1;  // empty dataset guard
}

bool DatasetBlockSource::NextBlock(BlockView* view) {
  const Schema& schema = ds_.schema();
  view->numeric.assign(schema.num_attrs(), nullptr);
  view->categorical.assign(schema.num_attrs(), nullptr);
  view->labels = nullptr;
  view->begin = position_;
  view->count = 0;
  if (position_ >= ds_.num_records()) return false;
  const int64_t count =
      std::min(block_records_, ds_.num_records() - position_);
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    if (schema.is_numeric(a)) {
      view->numeric[a] = ds_.numeric_column(a).data() + position_;
    } else {
      view->categorical[a] = ds_.categorical_column(a).data() + position_;
    }
  }
  view->labels = ds_.labels().data() + position_;
  view->count = count;
  position_ += count;
  return true;
}

std::unique_ptr<ColumnReader> DatasetBlockSource::OpenNumericColumn(
    AttrId a) {
  return std::make_unique<BorrowedColumn>(ds_.numeric_column(a).data(),
                                          ds_.num_records());
}

bool DatasetBlockSource::ReadLabels(std::vector<ClassId>* out) {
  const std::span<const ClassId> labels = ds_.labels();
  out->assign(labels.begin(), labels.end());
  return true;
}

// ---------------------------------------------------------------------
// TableBlockSource

std::unique_ptr<TableBlockSource> TableBlockSource::Open(
    const std::string& path, int64_t block_records) {
  auto scanner = TableScanner::Open(path, block_records);
  if (scanner == nullptr) return nullptr;
  std::unique_ptr<TableBlockSource> src(new TableBlockSource());
  src->path_ = path;
  src->scanner_ = std::move(scanner);
  for (Slot& slot : src->slots_) {
    slot.scanner = TableScanner::Open(path, block_records);
    if (slot.scanner == nullptr) return nullptr;
    slot.block.Configure(slot.scanner->schema(), block_records);
  }
  return src;
}

TableBlockSource::~TableBlockSource() {
  // A prefetch may still be in flight; it touches this object, so wait
  // for it before the members are destroyed.
  AwaitFetch(0);
  AwaitFetch(1);
}

void TableBlockSource::set_prefetch_pool(ThreadPool* pool) {
  AwaitFetch(0);
  AwaitFetch(1);
  pool_ = pool;
}

int64_t TableBlockSource::resident_bytes() const {
  return slots_[0].block.allocated_bytes() + slots_[1].block.allocated_bytes();
}

int64_t TableBlockSource::bytes_read() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_read_;
}

void TableBlockSource::StartFetch(int s, int64_t start) {
  Slot& slot = slots_[s];
  const int64_t n = scanner_->num_records();
  const int64_t count = std::min(scanner_->block_records(), n - start);
  if (start >= n || count <= 0) return;  // nothing left to fetch
  {
    std::lock_guard<std::mutex> lock(mu_);
    slot.in_flight = true;
  }
  auto read = [this, &slot, start, count] {
    const int64_t before = slot.scanner->bytes_read();
    const bool ok = slot.scanner->ReadBlock(start, count, &slot.block);
    std::lock_guard<std::mutex> lock(mu_);
    bytes_read_ += slot.scanner->bytes_read() - before;
    slot.ok = ok;
    slot.in_flight = false;
    fetch_done_.notify_all();
  };
  if (pool_ != nullptr && pool_->num_threads() > 0) {
    pool_->Submit(read);
  } else {
    read();
  }
}

bool TableBlockSource::AwaitFetch(int s) {
  std::unique_lock<std::mutex> lock(mu_);
  fetch_done_.wait(lock, [&] { return !slots_[s].in_flight; });
  return slots_[s].ok;
}

bool TableBlockSource::NextBlock(BlockView* view) {
  const Schema& schema = scanner_->schema();
  view->numeric.assign(schema.num_attrs(), nullptr);
  view->categorical.assign(schema.num_attrs(), nullptr);
  view->labels = nullptr;
  view->begin = delivered_;
  view->count = 0;
  if (delivered_ >= num_records()) return false;

  // First call of a pass: nothing staged yet, fetch synchronously-ish.
  if (next_fetch_ == delivered_) {
    StartFetch(cur_, next_fetch_);
    next_fetch_ += std::min(scanner_->block_records(),
                            num_records() - next_fetch_);
  }
  if (!AwaitFetch(cur_)) {
    failed_ = true;
    return false;
  }
  Slot& slot = slots_[cur_];
  // Kick the other slot at block k+1 before the consumer starts on
  // block k — with a pool this overlaps the read with accumulation.
  if (next_fetch_ < num_records()) {
    const int other = 1 - cur_;
    StartFetch(other, next_fetch_);
    next_fetch_ += std::min(scanner_->block_records(),
                            num_records() - next_fetch_);
  }

  view->begin = slot.block.begin();
  view->count = slot.block.count();
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    if (schema.is_numeric(a)) {
      view->numeric[a] = slot.block.numeric_col(a);
    } else {
      view->categorical[a] = slot.block.categorical_col(a);
    }
  }
  view->labels = slot.block.labels();
  delivered_ += view->count;
  cur_ = 1 - cur_;
  return true;
}

void TableBlockSource::Reset() {
  // Let any in-flight prefetch land before rewinding.
  AwaitFetch(0);
  AwaitFetch(1);
  delivered_ = 0;
  next_fetch_ = 0;
  cur_ = 0;
  failed_ = false;
  scanner_->Reset();
  slots_[0].scanner->Reset();
  slots_[1].scanner->Reset();
}

class TableBlockSource::NumericColumnReader final : public ColumnReader {
 public:
  NumericColumnReader(TableBlockSource* source,
                      std::unique_ptr<TableScanner> scanner, AttrId a)
      : source_(source), scanner_(std::move(scanner)), attr_(a) {}

  int64_t size() const override { return scanner_->num_records(); }

  bool Read(int64_t begin, int64_t count, const double** values) override {
    if (static_cast<int64_t>(buffer_.size()) < count) buffer_.resize(count);
    const int64_t before = scanner_->bytes_read();
    const bool ok =
        scanner_->ReadNumericChunk(attr_, begin, count, buffer_.data());
    std::lock_guard<std::mutex> lock(source_->mu_);
    source_->bytes_read_ += scanner_->bytes_read() - before;
    *values = buffer_.data();
    return ok;
  }

  int64_t buffer_bytes() const override {
    return static_cast<int64_t>(buffer_.capacity() * sizeof(double));
  }

 private:
  TableBlockSource* source_;
  std::unique_ptr<TableScanner> scanner_;
  AttrId attr_;
  std::vector<double> buffer_;
};

std::unique_ptr<ColumnReader> TableBlockSource::OpenNumericColumn(AttrId a) {
  // A private scanner per reader: columns may be set up concurrently, and
  // each needs its own stream position.
  auto scanner = TableScanner::Open(path_, scanner_->block_records());
  if (scanner == nullptr) return nullptr;
  return std::make_unique<NumericColumnReader>(this, std::move(scanner), a);
}

bool TableBlockSource::ReadLabels(std::vector<ClassId>* out) {
  auto scanner = TableScanner::Open(path_, scanner_->block_records());
  if (scanner == nullptr) return false;
  if (!scanner->ReadLabelColumn(out)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  bytes_read_ += scanner->bytes_read();
  return true;
}

}  // namespace cmp
