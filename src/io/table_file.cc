#include "io/table_file.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>
#include <vector>

namespace cmp {

namespace {

constexpr char kMagic[4] = {'C', 'M', 'P', 'T'};
constexpr uint32_t kVersion = 1;

void WriteU32(std::ofstream& os, uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteI32(std::ofstream& os, int32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteI64(std::ofstream& os, int64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteString(std::ofstream& os, const std::string& s) {
  WriteU32(os, static_cast<uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool ReadU32(std::ifstream& is, uint32_t* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(*v));
  return is.good();
}

bool ReadI32(std::ifstream& is, int32_t* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(*v));
  return is.good();
}

bool ReadI64(std::ifstream& is, int64_t* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(*v));
  return is.good();
}

bool ReadString(std::ifstream& is, std::string* s) {
  uint32_t len = 0;
  if (!ReadU32(is, &len)) return false;
  if (len > (1u << 20)) return false;  // implausible name length
  s->resize(len);
  is.read(s->data(), len);
  return is.good();
}

bool ReadHeaderInternal(std::ifstream& is, Schema* schema,
                        int64_t* num_records) {
  char magic[4];
  is.read(magic, 4);
  if (!is.good() || std::memcmp(magic, kMagic, 4) != 0) return false;
  uint32_t version = 0;
  if (!ReadU32(is, &version) || version != kVersion) return false;
  uint32_t num_attrs = 0;
  uint32_t num_classes = 0;
  if (!ReadU32(is, &num_attrs) || !ReadU32(is, &num_classes)) return false;
  // Grow the lists as entries arrive instead of sizing them from the
  // header, so a hostile count fails at end of file, not in the allocator.
  std::vector<AttrInfo> attrs;
  for (uint32_t i = 0; i < num_attrs; ++i) {
    AttrInfo a;
    if (!ReadString(is, &a.name)) return false;
    char kind = 0;
    is.read(&kind, 1);
    if (!is.good()) return false;
    a.kind = kind == 0 ? AttrKind::kNumeric : AttrKind::kCategorical;
    if (!ReadI32(is, &a.cardinality)) return false;
    attrs.push_back(std::move(a));
  }
  std::vector<std::string> class_names;
  for (uint32_t i = 0; i < num_classes; ++i) {
    std::string cn;
    if (!ReadString(is, &cn)) return false;
    class_names.push_back(std::move(cn));
  }
  if (!ReadI64(is, num_records) || *num_records < 0) return false;
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

bool SaveTableFile(const Dataset& ds, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os.is_open()) return false;
  os.write(kMagic, 4);
  WriteU32(os, kVersion);
  const Schema& schema = ds.schema();
  WriteU32(os, static_cast<uint32_t>(schema.num_attrs()));
  WriteU32(os, static_cast<uint32_t>(schema.num_classes()));
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    const AttrInfo& info = schema.attr(a);
    WriteString(os, info.name);
    const char kind = info.kind == AttrKind::kNumeric ? 0 : 1;
    os.write(&kind, 1);
    WriteI32(os, info.cardinality);
  }
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    WriteString(os, schema.class_name(c));
  }
  WriteI64(os, ds.num_records());
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    if (schema.is_numeric(a)) {
      const auto& col = ds.numeric_column(a);
      os.write(reinterpret_cast<const char*>(col.data()),
               static_cast<std::streamsize>(col.size() * sizeof(double)));
    } else {
      const auto& col = ds.categorical_column(a);
      os.write(reinterpret_cast<const char*>(col.data()),
               static_cast<std::streamsize>(col.size() * sizeof(int32_t)));
    }
  }
  const auto& labels = ds.labels();
  os.write(reinterpret_cast<const char*>(labels.data()),
           static_cast<std::streamsize>(labels.size() * sizeof(ClassId)));
  return os.good();
}

bool LoadTableFile(const std::string& path, Dataset* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) return false;
  Schema schema;
  int64_t n = 0;
  TableLayout layout;
  if (!ReadHeaderInternal(is, &schema, &n) ||
      !ComputeTableLayout(schema, n, &layout)) {
    return false;
  }
  // The header's record count is only trusted once the file size agrees
  // with it; nothing below allocates before this check.
  is.seekg(0, std::ios::end);
  if (static_cast<int64_t>(is.tellg()) != layout.file_size) return false;

  auto read_at = [&is](int64_t offset, void* dst, int64_t bytes) {
    is.seekg(offset);
    is.read(static_cast<char*>(dst), bytes);
    return is.good();
  };
  std::vector<std::vector<double>> ncols(schema.num_attrs());
  std::vector<std::vector<int32_t>> ccols(schema.num_attrs());
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    const int64_t offset = layout.column_offsets[a];
    if (schema.is_numeric(a)) {
      ncols[a].resize(n);
      is.seekg(offset);
      if (!ReadNumbers(is, ncols[a].data(), n)) return false;
    } else {
      ccols[a].resize(n);
      if (!read_at(offset, ccols[a].data(), n * sizeof(int32_t)) ||
          !ValuesInRange(ccols[a].data(), n, schema.attr(a).cardinality)) {
        return false;
      }
    }
  }
  std::vector<ClassId> labels(n);
  if (!read_at(layout.label_offset, labels.data(), n * sizeof(ClassId)) ||
      !ValuesInRange(labels.data(), n, schema.num_classes())) {
    return false;
  }
  *out = Dataset(std::move(schema), std::move(ncols), std::move(ccols),
                 std::move(labels));
  return true;
}

bool ReadTableHeader(const std::string& path, Schema* schema,
                     int64_t* num_records) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) return false;
  return ReadHeaderInternal(is, schema, num_records);
}

}  // namespace cmp
