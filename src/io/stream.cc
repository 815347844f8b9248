#include "io/stream.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

#include "io/table_file.h"

namespace cmp {

namespace {

constexpr int64_t kAlign = 64;

int64_t AlignUp(int64_t bytes) { return (bytes + kAlign - 1) & ~(kAlign - 1); }

// Reads `n` doubles from the stream's position into `dst` and checks them
// with NoNaN one cache-sized chunk at a time, so the check reads values
// that are still in cache rather than a second pass over the column.
// Returns false on a short read or a NaN.
bool ReadNumbers(std::istream& is, double* dst, int64_t n) {
  constexpr int64_t kChunk = int64_t{1} << 15;  // 256 KB
  for (int64_t done = 0; done < n; done += kChunk) {
    const int64_t m = std::min(kChunk, n - done);
    is.read(reinterpret_cast<char*>(dst + done),
            m * static_cast<int64_t>(sizeof(double)));
    if (!is.good() || !NoNaN(dst + done, m)) return false;
  }
  return true;
}

}  // namespace

ColumnBlock::~ColumnBlock() { ::operator delete(storage_, std::align_val_t(kAlign)); }

ColumnBlock& ColumnBlock::operator=(ColumnBlock&& other) noexcept {
  if (this == &other) return *this;
  ::operator delete(storage_, std::align_val_t(kAlign));
  schema_ = other.schema_;
  capacity_ = other.capacity_;
  begin_ = other.begin_;
  count_ = other.count_;
  storage_ = std::exchange(other.storage_, nullptr);
  allocated_ = std::exchange(other.allocated_, 0);
  numeric_ = std::move(other.numeric_);
  categorical_ = std::move(other.categorical_);
  labels_ = std::exchange(other.labels_, nullptr);
  other.schema_ = nullptr;
  other.capacity_ = other.begin_ = other.count_ = 0;
  return *this;
}

void ColumnBlock::Configure(const Schema& schema, int64_t capacity) {
  // Lay out every column at a 64-byte boundary inside one allocation.
  int64_t bytes = 0;
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    bytes += AlignUp(capacity * static_cast<int64_t>(
                                    schema.is_numeric(a) ? sizeof(double)
                                                         : sizeof(int32_t)));
  }
  bytes += AlignUp(capacity * static_cast<int64_t>(sizeof(ClassId)));

  if (bytes > allocated_) {
    ::operator delete(storage_, std::align_val_t(kAlign));
    storage_ = ::operator new(bytes, std::align_val_t(kAlign));
    allocated_ = bytes;
  }
  schema_ = &schema;
  capacity_ = capacity;
  begin_ = 0;
  count_ = 0;
  numeric_.assign(schema.num_attrs(), nullptr);
  categorical_.assign(schema.num_attrs(), nullptr);
  char* p = static_cast<char*>(storage_);
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    if (schema.is_numeric(a)) {
      numeric_[a] = reinterpret_cast<double*>(p);
      p += AlignUp(capacity * static_cast<int64_t>(sizeof(double)));
    } else {
      categorical_[a] = reinterpret_cast<int32_t*>(p);
      p += AlignUp(capacity * static_cast<int64_t>(sizeof(int32_t)));
    }
  }
  labels_ = reinterpret_cast<ClassId*>(p);
}

std::unique_ptr<TableScanner> TableScanner::Open(const std::string& path,
                                                 int64_t block_records) {
  if (block_records <= 0) return nullptr;
  std::unique_ptr<TableScanner> scanner(new TableScanner());
  scanner->block_records_ = block_records;
  scanner->file_.open(path, std::ios::binary);
  // The header promises `n` records; ReadTableHeader rejects a file whose
  // payload cannot hold them (or trails garbage), so a truncated table
  // fails at Open instead of mid-pass.
  TableLayout layout;
  if (!scanner->file_.is_open() ||
      !ReadTableHeader(scanner->file_, &scanner->schema_,
                       &scanner->num_records_, &layout)) {
    return nullptr;
  }
  // Each padding run is read once, here, so a nonzero byte fails a
  // streamed run at open as it fails a whole-table load. These header
  // reads, like the header's own, are not counted in bytes_read().
  uint8_t gap[kTableColumnAlign];
  for (const auto& [at, len] : layout.padding) {
    scanner->file_.seekg(at);
    scanner->file_.read(reinterpret_cast<char*>(gap), len);
    if (!scanner->file_.good() || !IsZeroPadding(gap, len)) return nullptr;
  }
  scanner->column_offsets_ = std::move(layout.column_offsets);
  scanner->label_offset_ = layout.label_offset;
  return scanner;
}

bool TableScanner::ReadBlock(int64_t start, int64_t count,
                             ColumnBlock* block) {
  if (block->schema() != &schema_ || block->capacity() < count) {
    block->Configure(schema_, std::max(count, block_records_));
  }
  block->set_range(start, 0);
  if (start < 0 || count < 0 || start + count > num_records_) return false;

  // One seek + one bulk read per column, straight into the block's
  // aligned buffers.
  for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
    const int64_t width = static_cast<int64_t>(
        schema_.is_numeric(a) ? sizeof(double) : sizeof(int32_t));
    file_.seekg(column_offsets_[a] + start * width);
    char* dst = schema_.is_numeric(a)
                    ? reinterpret_cast<char*>(block->numeric_col(a))
                    : reinterpret_cast<char*>(block->categorical_col(a));
    file_.read(dst, count * width);
    if (!file_.good()) return false;
    bytes_read_ += count * width;
    const bool valid =
        schema_.is_numeric(a)
            ? NoNaN(block->numeric_col(a), count)
            : ValuesInRange(block->categorical_col(a), count,
                            schema_.attr(a).cardinality);
    if (!valid) return false;
  }
  file_.seekg(label_offset_ + start * static_cast<int64_t>(sizeof(ClassId)));
  file_.read(reinterpret_cast<char*>(block->labels()),
             count * static_cast<int64_t>(sizeof(ClassId)));
  if (!file_.good()) return false;
  bytes_read_ += count * static_cast<int64_t>(sizeof(ClassId));

  if (!ValuesInRange(block->labels(), count, schema_.num_classes())) {
    return false;
  }
  block->set_range(start, count);
  return true;
}

bool TableScanner::ReadNumericChunk(AttrId a, int64_t begin, int64_t count,
                                    double* out) {
  if (begin < 0 || count < 0 || begin + count > num_records_) return false;
  file_.seekg(column_offsets_[a] +
              begin * static_cast<int64_t>(sizeof(double)));
  if (!ReadNumbers(file_, out, count)) return false;
  bytes_read_ += count * static_cast<int64_t>(sizeof(double));
  return true;
}

bool TableScanner::ReadLabelColumn(std::vector<ClassId>* out) {
  out->resize(num_records_);
  file_.seekg(label_offset_);
  file_.read(reinterpret_cast<char*>(out->data()),
             num_records_ * static_cast<int64_t>(sizeof(ClassId)));
  if (!file_.good() && !(file_.eof() && num_records_ == 0)) return false;
  bytes_read_ += num_records_ * static_cast<int64_t>(sizeof(ClassId));
  return ValuesInRange(out->data(), num_records_, schema_.num_classes());
}

bool TableScanner::NextBlock(ColumnBlock* block) {
  if (position_ >= num_records_) {
    if (block->schema() != &schema_) block->Configure(schema_, block_records_);
    block->set_range(position_, 0);
    return false;
  }
  const int64_t count = std::min(block_records_, num_records_ - position_);
  if (!ReadBlock(position_, count, block)) return false;
  position_ += count;
  return true;
}

}  // namespace cmp
