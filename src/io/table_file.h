#ifndef CMP_IO_TABLE_FILE_H_
#define CMP_IO_TABLE_FILE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/dataset.h"

namespace cmp {

/// Binary on-disk format for training sets.
///
/// Layout (little-endian), version 2:
///   magic "CMPT" | version u32 | num_attrs u32 | num_classes u32 |
///   per attr: name (u32 len + bytes) | kind u8 | cardinality i32 |
///   per class: name (u32 len + bytes) |
///   num_records i64 | zero padding |
///   per attr column (schema order): raw doubles or raw int32s |
///     zero padding |
///   labels: raw int32s (the file ends with the last label)
///
/// The padding after the header and after each attribute column is the
/// fewest zero bytes that bring the next column to a 64-byte file
/// offset, so every column, the labels included, starts 64-byte
/// aligned. Version 1 is the same without padding; the readers accept
/// both, and SaveTableFile writes version 2 only. ComputeTableLayout is
/// the one place that knows where anything sits.
///
/// The contiguous column is the format's streaming unit: an out-of-core
/// scanner reads records [start, start+count) with one seek + one bulk
/// read per column (io/stream.h), and a discretization pass pulls one
/// whole attribute without touching the others — both depend on this
/// layout, so any format change must preserve column contiguity.
/// `LoadTableFile` maps the whole file instead, and the Dataset it
/// returns reads its columns in place (see there). These are the files
/// the `out_of_core` example, `cmptool train --stream`, and the block
/// sources in io/block_source.h operate on.

/// The header is encoded through io/codec.h, and every attribute entry
/// must pass ValidAttrEntry (common/schema.h), the schema rule `.cmpb`
/// and `.cmps` apply too.

/// The table format version SaveTableFile writes.
inline constexpr uint32_t kTableVersion = 2;

/// Every column of a version 2 table starts at a multiple of this file
/// offset.
inline constexpr int64_t kTableColumnAlign = 64;

/// Where the parts of a table file sit, derived from its header alone
/// (format version + schema + record count). SaveTableFile,
/// LoadTableFile and TableScanner all take their offsets from it.
struct TableLayout {
  /// Absolute file offset of the header's num_records field, the last
  /// header field.
  int64_t count_offset = 0;
  /// Absolute file offset of each attribute column, indexed by AttrId.
  std::vector<int64_t> column_offsets;
  /// Absolute file offset of the label column.
  int64_t label_offset = 0;
  /// Size of a well-formed file: the label column ends here.
  int64_t file_size = 0;
  /// The zero padding as {offset, bytes} runs, each shorter than
  /// kTableColumnAlign; empty for version 1.
  std::vector<std::pair<int64_t, int64_t>> padding;
};

/// Computes the layout of a table with `schema` and `num_records`
/// records in format `version` (1 or 2). Returns false when an offset
/// would overflow int64_t, which a hostile record count can make it do.
bool ComputeTableLayout(const Schema& schema, int64_t num_records,
                        TableLayout* out, uint32_t version = kTableVersion);

/// True when every value in values[0, n) lies in [0, limit). The readers
/// apply it to labels (limit = class count) and to categorical codes
/// (limit = cardinality) before any builder indexes a histogram with them.
bool ValuesInRange(const int32_t* values, int64_t n, int32_t limit);

/// True when no value in values[0, n) is NaN. Every reader (the table
/// scanner, CSV and ARFF) applies it to numeric columns: the formats have
/// no missing-value encoding, and the grids and split searches need a
/// total order. Infinities are ordinary values and pass.
bool NoNaN(const double* values, int64_t n);

/// True when bytes[0, n) are all zero: the check both readers apply to a
/// table's padding (TableLayout::padding).
bool IsZeroPadding(const uint8_t* bytes, int64_t n);

/// Writes `ds` to `path` in format version 2. Returns false (and leaves a
/// partial file) on I/O failure, including a failure to flush the last
/// bytes.
bool SaveTableFile(const Dataset& ds, const std::string& path);

/// Reads a table previously written by SaveTableFile (version 1 or 2).
/// Returns false on open/parse failure; `out` is unspecified in that
/// case.
///
/// Decodes the header from its first bytes and checks that the file size
/// equals the layout the header implies, so a truncated file, trailing
/// bytes or a hostile record count fail before anything is mapped or
/// allocated. Then maps the whole file read-only (MAP_POPULATE: the
/// page-cache pages are wired in at once, with no per-page first-touch
/// fault) and checks it in place: every label lies in [0, num_classes),
/// every categorical code in [0, cardinality), no numeric value is NaN
/// and every padding byte is zero. A file that cannot be mapped fails
/// like an unreadable one.
///
/// The Dataset's columns point into the mapping, and the Dataset owns
/// it: the last Dataset moved from it unmaps it when destroyed. A
/// version 1 column whose offset is misaligned for its type is copied
/// out of the mapping instead and never read through a misaligned
/// pointer. As with a `.cmpb` under cmpserve, the file must not be
/// truncated or rewritten in place while a process has it loaded: a
/// read of a page the file no longer backs raises SIGBUS. Replace a
/// table by writing a new file and renaming it over the old one.
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
