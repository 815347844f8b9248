#ifndef CMP_IO_TABLE_FILE_H_
#define CMP_IO_TABLE_FILE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/dataset.h"

namespace cmp {

/// Binary on-disk format for training sets.
///
/// Layout (little-endian):
///   magic "CMPT" | version u32 | num_attrs u32 | num_classes u32 |
///   per attr: name (u32 len + bytes) | kind u8 | cardinality i32 |
///   per class: name (u32 len + bytes) |
///   num_records i64 |
///   per attr column (schema order): raw doubles or raw int32s |
///   labels: raw int32s
///
/// The contiguous column is the format's streaming unit: an out-of-core
/// scanner reads records [start, start+count) with one seek + one bulk
/// read per column (io/stream.h), and a discretization pass pulls one
/// whole attribute without touching the others — both depend on this
/// layout, so any format change must preserve column contiguity.
/// `LoadTableFile` reads the whole table. These are the files the
/// `out_of_core` example, `cmptool train --stream`, and the block
/// sources in io/block_source.h operate on.

/// The header is encoded through io/codec.h, and every attribute entry
/// must pass ValidAttrEntry (common/schema.h), the schema rule `.cmpb`
/// and `.cmps` apply too.

/// Where the columns of a table file sit, derived from its header alone
/// (schema + record count). TableScanner, and LoadTableFile through it,
/// locate columns and check the file size through it.
struct TableLayout {
  /// Absolute file offset of each attribute column, indexed by AttrId.
  std::vector<int64_t> column_offsets;
  /// Absolute file offset of the label column.
  int64_t label_offset = 0;
  /// Size of a well-formed file: the label column ends here.
  int64_t file_size = 0;
};

/// Computes the layout of a table with `schema` and `num_records`
/// records. Returns false when an offset would overflow int64_t, which a
/// hostile record count can make it do.
bool ComputeTableLayout(const Schema& schema, int64_t num_records,
                        TableLayout* out);

/// True when every value in values[0, n) lies in [0, limit). The readers
/// apply it to labels (limit = class count) and to categorical codes
/// (limit = cardinality) before any builder indexes a histogram with them.
bool ValuesInRange(const int32_t* values, int64_t n, int32_t limit);

/// True when no value in values[0, n) is NaN. Every reader (the table
/// scanner, CSV and ARFF) applies it to numeric columns: the formats have
/// no missing-value encoding, and the grids and split searches need a
/// total order. Infinities are ordinary values and pass.
bool NoNaN(const double* values, int64_t n);

/// Writes `ds` to `path`. Returns false (and leaves a partial file) on I/O
/// failure, including a failure to flush the last bytes.
bool SaveTableFile(const Dataset& ds, const std::string& path);

/// Reads a table previously written by SaveTableFile. Returns false on
/// open/parse failure; `out` is unspecified in that case.
///
/// Opens a TableScanner (io/stream.h), which validates before anything
/// allocates a column: the file size must equal the layout its header
/// implies, so a truncated file, trailing bytes or a hostile record
/// count fail without allocating the claimed size. Then the scanner's
/// whole-column reads check that every label lies in [0, num_classes),
/// every categorical code in [0, cardinality) and no numeric value is
/// NaN. Each column is read once, straight into the vector the Dataset
/// then adopts, so the load holds a single copy of the table.
bool LoadTableFile(const std::string& path, Dataset* out);

/// Decodes the header at the start of `is` and computes the table's
/// layout. Fails on a malformed header and on a stream whose size is not
/// exactly `layout->file_size`. Reads only the header bytes.
bool ReadTableHeader(std::istream& is, Schema* schema, int64_t* num_records,
                     TableLayout* layout);

/// The same from a path: the schema and record count of a well-formed
/// table file.
bool ReadTableHeader(const std::string& path, Schema* schema,
                     int64_t* num_records);

}  // namespace cmp

#endif  // CMP_IO_TABLE_FILE_H_
