#ifndef CMP_IO_STREAM_H_
#define CMP_IO_STREAM_H_

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/types.h"

namespace cmp {

/// Reusable columnar staging buffer for one block of records.
///
/// All columns live in a single cache-line-aligned allocation (numeric
/// columns first, then categorical columns, then labels, each column
/// padded to a 64-byte boundary), so a scanner can refill the same
/// memory block after block without reallocating, and SIMD-friendly
/// column pointers stay aligned regardless of the schema layout.
class ColumnBlock {
 public:
  ColumnBlock() = default;
  ~ColumnBlock();

  ColumnBlock(const ColumnBlock&) = delete;
  ColumnBlock& operator=(const ColumnBlock&) = delete;
  ColumnBlock(ColumnBlock&& other) noexcept { *this = std::move(other); }
  ColumnBlock& operator=(ColumnBlock&& other) noexcept;

  /// (Re)shapes the buffer for up to `capacity` records of `schema`.
  /// Reuses the existing allocation when it is already large enough.
  /// `schema` must outlive the block.
  void Configure(const Schema& schema, int64_t capacity);

  const Schema* schema() const { return schema_; }
  int64_t capacity() const { return capacity_; }

  /// Global id of the first record currently staged, and how many.
  int64_t begin() const { return begin_; }
  int64_t count() const { return count_; }
  void set_range(int64_t begin, int64_t count) {
    begin_ = begin;
    count_ = count;
  }

  /// Column pointers. Only the matching-kind accessor is valid per
  /// attribute (mirroring Dataset's layout).
  double* numeric_col(AttrId a) { return numeric_[a]; }
  const double* numeric_col(AttrId a) const { return numeric_[a]; }
  int32_t* categorical_col(AttrId a) { return categorical_[a]; }
  const int32_t* categorical_col(AttrId a) const { return categorical_[a]; }
  ClassId* labels() { return labels_; }
  const ClassId* labels() const { return labels_; }

  /// Record accessors (record ids are LOCAL to the block: 0..count-1).
  double numeric(AttrId a, int64_t i) const { return numeric_[a][i]; }
  int32_t categorical(AttrId a, int64_t i) const { return categorical_[a][i]; }
  ClassId label(int64_t i) const { return labels_[i]; }

  /// Bytes of the backing allocation (for memory accounting).
  int64_t allocated_bytes() const { return allocated_; }

 private:
  const Schema* schema_ = nullptr;
  int64_t capacity_ = 0;
  int64_t begin_ = 0;
  int64_t count_ = 0;
  void* storage_ = nullptr;
  int64_t allocated_ = 0;
  std::vector<double*> numeric_;      // indexed by AttrId, null when wrong kind
  std::vector<int32_t*> categorical_;
  ClassId* labels_ = nullptr;
};

/// Bounded-memory streaming reader over the binary table format
/// (table_file.h): records are surfaced in blocks of `block_records`
/// without ever loading a full column, so a table far larger than RAM
/// can be scanned exactly the way the paper's builders scan their
/// disk-resident training sets. Blocks are read straight into a
/// caller-provided ColumnBlock — one seek + one bulk read per column
/// per block, no per-record re-transposition. The same scanner supports
/// sequential passes (NextBlock/Reset) and random block access
/// (ReadBlock), and counts the real bytes it pulls from the file.
class TableScanner {
 public:
  /// Opens `path`; returns null on open/parse failure (ReadTableHeader in
  /// table_file.h), on a non-positive block size, on a file whose size
  /// does not match the record count and schema in its own header
  /// (truncated files and trailing bytes are rejected up front instead of
  /// failing mid-scan), and on a nonzero padding byte.
  static std::unique_ptr<TableScanner> Open(const std::string& path,
                                            int64_t block_records = 65536);

  const Schema& schema() const { return schema_; }
  int64_t num_records() const { return num_records_; }
  int64_t block_records() const { return block_records_; }
  /// Records delivered so far in the current pass.
  int64_t position() const { return position_; }
  /// Real bytes read from the file since Open (all passes).
  int64_t bytes_read() const { return bytes_read_; }

  /// Reads records [start, start + count) into `block`, configuring it
  /// for this scanner's schema if needed. Returns false on I/O failure,
  /// if any label or categorical code is out of range (ValuesInRange in
  /// table_file.h), or if a numeric value is NaN (NoNaN); `block` is then
  /// empty. Does not move the sequential cursor.
  bool ReadBlock(int64_t start, int64_t count, ColumnBlock* block);

  /// Reads the next sequential block (at most block_records records)
  /// into `block`. Returns false when the pass is complete or on read
  /// failure; `block` is then empty. The scanner can be Reset() for
  /// another pass.
  bool NextBlock(ColumnBlock* block);

  /// Reads values [begin, begin + count) of numeric column `a` into
  /// `out`, checking each cache-sized chunk for NaN as it lands (columns
  /// are stored contiguously so discretization passes can do this). `a`
  /// must be a numeric attribute. Does not move the sequential cursor.
  bool ReadNumericChunk(AttrId a, int64_t begin, int64_t count, double* out);

  /// Reads the whole label column; rejects out-of-range labels.
  bool ReadLabelColumn(std::vector<ClassId>* out);

  /// Rewinds to the first record and clears any sticky stream error/EOF
  /// state, so a pass that hit a read failure does not poison later
  /// passes.
  void Reset() {
    file_.clear();
    position_ = 0;
  }

 private:
  TableScanner() = default;

  Schema schema_;
  int64_t num_records_ = 0;
  int64_t block_records_ = 0;
  int64_t position_ = 0;
  int64_t bytes_read_ = 0;
  // Absolute file offset of each attribute column, plus the label column.
  std::vector<int64_t> column_offsets_;
  int64_t label_offset_ = 0;
  std::ifstream file_;
};

}  // namespace cmp

#endif  // CMP_IO_STREAM_H_
