#include "io/table_file.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "io/codec.h"
#include "io/stream.h"

namespace cmp {

namespace {

constexpr FormatTag kTableTag = {{'C', 'M', 'P', 'T'}, 1, false};

// The first header read; a longer header doubles it until it fits.
constexpr int64_t kHeaderProbeBytes = 4096;

bool DecodeHeader(ByteReader* r, Schema* schema, int64_t* num_records) {
  if (!CheckFormatTag(r, kTableTag, nullptr)) return false;
  const uint32_t num_attrs = r->U32();
  const uint32_t num_classes = r->U32();
  if (num_attrs > kMaxSchemaAttrs || num_classes > kMaxSchemaClasses) {
    r->Fail();
  }
  // Grow the lists as entries arrive instead of sizing them from the
  // header, so a count the file cannot back fails at its end, not in the
  // allocator.
  std::vector<AttrInfo> attrs;
  for (uint32_t i = 0; r->ok() && i < num_attrs; ++i) {
    attrs.push_back(GetAttrEntry(r));
  }
  std::vector<std::string> class_names;
  for (uint32_t i = 0; r->ok() && i < num_classes; ++i) {
    class_names.push_back(r->Name());
  }
  *num_records = r->I64();
  if (!r->ok() || *num_records < 0) return false;
  *schema = Schema(std::move(attrs), std::move(class_names));
  return true;
}

}  // namespace

bool ComputeTableLayout(const Schema& schema, int64_t num_records,
                        TableLayout* out) {
  if (num_records < 0) return false;
  // Header: magic(4) + version(4) + counts(8) + per attr
  // (4 + name + 1 + 4) + per class (4 + name) + num_records(8).
  int64_t offset = 4 + 4 + 4 + 4;
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    offset += 4 + static_cast<int64_t>(schema.attr(a).name.size()) + 1 + 4;
  }
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    offset += 4 + static_cast<int64_t>(schema.class_name(c).size());
  }
  offset += 8;
  // Every column then holds num_records fixed-width values.
  if (num_records > (std::numeric_limits<int64_t>::max() - offset) /
                        schema.RecordBytes()) {
    return false;
  }
  out->column_offsets.resize(schema.num_attrs());
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    out->column_offsets[a] = offset;
    offset += num_records * static_cast<int64_t>(schema.is_numeric(a)
                                                     ? sizeof(double)
                                                     : sizeof(int32_t));
  }
  out->label_offset = offset;
  out->file_size = offset + num_records * static_cast<int64_t>(sizeof(ClassId));
  return true;
}

bool ValuesInRange(const int32_t* values, int64_t n, int32_t limit) {
  if (limit <= 0) return n == 0;
  // Branch-free over the whole column: one unsigned compare per value
  // catches negatives too.
  bool ok = true;
  for (int64_t i = 0; i < n; ++i) {
    ok &= static_cast<uint32_t>(values[i]) < static_cast<uint32_t>(limit);
  }
  return ok;
}

bool NoNaN(const double* values, int64_t n) {
  // On the bits: |v| is NaN iff it exceeds infinity's 0x7FF0...0, i.e.
  // iff adding 0x000F...F carries into the sign bit. Integer adds and ORs
  // vectorize, where a floating-point self-compare does not.
  constexpr uint64_t kAbs = ~(uint64_t{1} << 63);
  constexpr uint64_t kBelowCarry = (uint64_t{1} << 52) - 1;
  uint64_t any = 0;
  for (int64_t i = 0; i < n; ++i) {
    uint64_t bits;
    std::memcpy(&bits, &values[i], sizeof(bits));
    any |= (bits & kAbs) + kBelowCarry;
  }
  return (any >> 63) == 0;
}

bool SaveTableFile(const Dataset& ds, const std::string& path) {
  const Schema& schema = ds.schema();
  ByteWriter header;
  PutFormatTag(&header, kTableTag);
  header.U32(static_cast<uint32_t>(schema.num_attrs()));
  header.U32(static_cast<uint32_t>(schema.num_classes()));
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    PutAttrEntry(&header, schema.attr(a));
  }
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    header.Name(schema.class_name(c));
  }
  header.I64(ds.num_records());
  const std::vector<uint8_t> header_bytes = header.Take();

  std::vector<std::span<const std::byte>> parts = {
      std::as_bytes(std::span(header_bytes))};
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    parts.push_back(schema.is_numeric(a)
                        ? std::as_bytes(std::span(ds.numeric_column(a)))
                        : std::as_bytes(std::span(ds.categorical_column(a))));
  }
  parts.push_back(std::as_bytes(std::span(ds.labels())));
  return WriteWholeFile(path, parts, nullptr);
}

bool LoadTableFile(const std::string& path, Dataset* out) {
  std::unique_ptr<TableScanner> scanner = TableScanner::Open(path);
  if (scanner == nullptr) return false;
  const Schema& schema = scanner->schema();
  std::vector<std::vector<double>> ncols(schema.num_attrs());
  std::vector<std::vector<int32_t>> ccols(schema.num_attrs());
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    const bool read = schema.is_numeric(a)
                          ? scanner->ReadNumericColumn(a, &ncols[a])
                          : scanner->ReadCategoricalColumn(a, &ccols[a]);
    if (!read) return false;
  }
  std::vector<ClassId> labels;
  if (!scanner->ReadLabelColumn(&labels)) return false;
  *out = Dataset(schema, std::move(ncols), std::move(ccols),
                 std::move(labels));
  return true;
}

bool ReadTableHeader(std::istream& is, Schema* schema, int64_t* num_records,
                     TableLayout* layout) {
  is.seekg(0, std::ios::end);
  const int64_t file_size = static_cast<int64_t>(is.tellg());
  if (file_size < 0) return false;
  // Decode from a prefix of the file, doubling it only while the header
  // runs past its end.
  std::vector<uint8_t> prefix;
  for (int64_t want = std::min(kHeaderProbeBytes, file_size);;
       want = std::min(2 * want, file_size)) {
    prefix.resize(static_cast<size_t>(want));
    is.seekg(0);
    is.read(reinterpret_cast<char*>(prefix.data()), want);
    if (!is.good()) return false;
    ByteReader r(prefix);
    if (DecodeHeader(&r, schema, num_records)) break;
    if (!r.truncated() || want == file_size) return false;
  }
  // The header's record count is only trusted once the file size agrees
  // with it; nothing allocates a column before this check.
  return ComputeTableLayout(*schema, *num_records, layout) &&
         layout->file_size == file_size;
}

bool ReadTableHeader(const std::string& path, Schema* schema,
                     int64_t* num_records) {
  std::ifstream is(path, std::ios::binary);
  TableLayout layout;
  return is.is_open() && ReadTableHeader(is, schema, num_records, &layout);
}

}  // namespace cmp
