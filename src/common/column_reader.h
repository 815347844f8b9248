#ifndef CMP_COMMON_COLUMN_READER_H_
#define CMP_COMMON_COLUMN_READER_H_

#include <cstdint>

namespace cmp {

/// One numeric column, read front to back in chunks, pass after pass:
/// the access pattern of the discretization setup (DiscretizeColumn in
/// hist/grid_builder.h). A resident column is read in place
/// (BorrowedColumn); a table file's column is staged one chunk at a time
/// (TableBlockSource::OpenNumericColumn in io/block_source.h).
class ColumnReader {
 public:
  virtual ~ColumnReader() = default;

  /// Number of values in the column.
  virtual int64_t size() const = 0;

  /// Points `*values` at values [begin, begin + count) of the column,
  /// valid until the next call. Returns false when the read fails or, for
  /// a file-backed column, when the chunk holds a NaN.
  virtual bool Read(int64_t begin, int64_t count, const double** values) = 0;

  /// Bytes of staging buffer the reader holds (0 when it reads in place).
  virtual int64_t buffer_bytes() const { return 0; }
};

/// A resident column, read in place.
class BorrowedColumn final : public ColumnReader {
 public:
  BorrowedColumn(const double* values, int64_t n) : values_(values), n_(n) {}

  int64_t size() const override { return n_; }
  bool Read(int64_t begin, int64_t /*count*/,
            const double** values) override {
    *values = values_ + begin;
    return true;
  }

 private:
  const double* values_;
  int64_t n_;
};

}  // namespace cmp

#endif  // CMP_COMMON_COLUMN_READER_H_
