#include "io/table_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "io/codec.h"

namespace cmp {

namespace {

constexpr FormatTag kTableTag = {{'C', 'M', 'P', 'T'}, kTableVersion, false};
// The unpadded layout, still read.
constexpr FormatTag kTableTagV1 = {{'C', 'M', 'P', 'T'}, 1, false};

// The first header read; a longer header doubles it until it fits.
constexpr int64_t kHeaderProbeBytes = 4096;

bool DecodeHeader(ByteReader* r, Schema* schema, int64_t* num_records,
                  uint32_t* version) {
  const ByteReader at_tag = *r;
  *version = kTableVersion;
  if (!CheckFormatTag(r, kTableTag, nullptr)) {
    *r = at_tag;
    *version = 1;
    if (!CheckFormatTag(r, kTableTagV1, nullptr)) return false;
  }
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

// Decodes the header of a `file_size`-byte table from a prefix of it,
// which `read(dst, bytes)` fills from offset 0, doubling the prefix only
// while the header runs past its end. Then computes the layout and
// checks the file size against it: the header's record count is only
// trusted once the size agrees, and nothing sized from it is allocated
// before.
template <typename ReadPrefix>
bool DecodeTableHeader(int64_t file_size, const ReadPrefix& read,
                       Schema* schema, int64_t* num_records,
                       TableLayout* layout) {
  if (file_size < 0) return false;
  std::vector<uint8_t> prefix;
  uint32_t version = 0;
  for (int64_t want = std::min(kHeaderProbeBytes, file_size);;
       want = std::min(2 * want, file_size)) {
    prefix.resize(static_cast<size_t>(want));
    if (!read(prefix.data(), want)) return false;
    ByteReader r(prefix);
    if (DecodeHeader(&r, schema, num_records, &version)) break;
    if (!r.truncated() || want == file_size) return false;
  }
  return ComputeTableLayout(*schema, *num_records, layout, version) &&
         layout->file_size == file_size;
}

// Reads `bytes` bytes at file offset `at` of `fd` into `dst`.
bool ReadAt(int fd, uint8_t* dst, int64_t bytes, int64_t at) {
  while (bytes > 0) {
    const ssize_t got = ::pread(fd, dst, static_cast<size_t>(bytes), at);
    if (got <= 0) return false;
    dst += got;
    bytes -= got;
    at += got;
  }
  return true;
}

// A table file mapped read-only, plus the copies of the columns a
// version 1 file stores misaligned for their type. Loaded Datasets hold
// it; it unmaps when the last one goes.
class MappedTable {
 public:
  MappedTable(const void* base, size_t size) : base_(base), size_(size) {}
  ~MappedTable() { ::munmap(const_cast<void*>(base_), size_); }
  MappedTable(const MappedTable&) = delete;
  MappedTable& operator=(const MappedTable&) = delete;

  const uint8_t* bytes() const { return static_cast<const uint8_t*>(base_); }

  // The `n` values of type T at file offset `at`: in place when the
  // offset is aligned for T (always, in version 2), else a copy.
  template <typename T>
  const T* Column(int64_t at, int64_t n) {
    const uint8_t* values = bytes() + at;
    if (reinterpret_cast<uintptr_t>(values) % alignof(T) == 0) {
      return reinterpret_cast<const T*>(values);
    }
    std::shared_ptr<T[]> copy(new T[static_cast<size_t>(n)]);
    std::memcpy(copy.get(), values, static_cast<size_t>(n) * sizeof(T));
    copies_.push_back(copy);
    return copy.get();
  }

 private:
  const void* base_;
  size_t size_;
  std::vector<std::shared_ptr<const void>> copies_;
};

// Closes a file descriptor on every return.
struct FdCloser {
  int fd;
  ~FdCloser() { ::close(fd); }
};

}  // namespace

bool ComputeTableLayout(const Schema& schema, int64_t num_records,
                        TableLayout* out, uint32_t version) {
  if (num_records < 0 || (version != 1 && version != kTableVersion)) {
    return false;
  }
  // Header: magic(4) + version(4) + counts(8) + per attr
  // (4 + name + 1 + 4) + per class (4 + name) + num_records(8).
  int64_t offset = 4 + 4 + 4 + 4;
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    offset += 4 + static_cast<int64_t>(schema.attr(a).name.size()) + 1 + 4;
  }
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    offset += 4 + static_cast<int64_t>(schema.class_name(c).size());
  }
  out->count_offset = offset;
  offset += 8;
  // Every column then holds num_records fixed-width values, each after
  // at most kTableColumnAlign - 1 padding bytes.
  const int64_t max_padding =
      (schema.num_attrs() + 1) * (kTableColumnAlign - 1);
  if (num_records > (std::numeric_limits<int64_t>::max() - offset -
                     max_padding) /
                        schema.RecordBytes()) {
    return false;
  }
  out->padding.clear();
  // Pads `offset` to the next column boundary (version 2 only).
  auto align = [&] {
    if (version == 1 || offset % kTableColumnAlign == 0) return;
    const int64_t next =
        (offset / kTableColumnAlign + 1) * kTableColumnAlign;
    out->padding.emplace_back(offset, next - offset);
    offset = next;
  };
  out->column_offsets.resize(schema.num_attrs());
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    align();
    out->column_offsets[a] = offset;
    offset += num_records * static_cast<int64_t>(schema.is_numeric(a)
                                                     ? sizeof(double)
                                                     : sizeof(int32_t));
  }
  align();
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

bool IsZeroPadding(const uint8_t* bytes, int64_t n) {
  uint8_t any = 0;
  for (int64_t i = 0; i < n; ++i) any |= bytes[i];
  return any == 0;
}

bool SaveTableFile(const Dataset& ds, const std::string& path) {
  const Schema& schema = ds.schema();
  TableLayout layout;
  if (!ComputeTableLayout(schema, ds.num_records(), &layout)) return false;
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
  assert(static_cast<int64_t>(header_bytes.size()) ==
         layout.count_offset + 8);

  // The header, then each column after the padding the layout puts
  // before it.
  static constexpr std::array<std::byte, kTableColumnAlign> kZeros{};
  std::vector<std::span<const std::byte>> parts = {
      std::as_bytes(std::span(header_bytes))};
  int64_t written = static_cast<int64_t>(header_bytes.size());
  auto add_column = [&](int64_t offset, std::span<const std::byte> column) {
    parts.push_back(std::span(kZeros).first(
        static_cast<size_t>(offset - written)));
    parts.push_back(column);
    written = offset + static_cast<int64_t>(column.size());
  };
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    add_column(layout.column_offsets[a],
               schema.is_numeric(a) ? std::as_bytes(ds.numeric_column(a))
                                    : std::as_bytes(ds.categorical_column(a)));
  }
  add_column(layout.label_offset, std::as_bytes(ds.labels()));
  return WriteWholeFile(path, parts, nullptr);
}

bool LoadTableFile(const std::string& path, Dataset* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const FdCloser closer{fd};
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) return false;
  Schema schema;
  int64_t n = 0;
  TableLayout layout;
  auto read = [fd](uint8_t* dst, int64_t bytes) {
    return ReadAt(fd, dst, bytes, 0);
  };
  if (!DecodeTableHeader(static_cast<int64_t>(st.st_size), read, &schema, &n,
                         &layout)) {
    return false;
  }
  const size_t size = static_cast<size_t>(layout.file_size);
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE | MAP_POPULATE,
                      fd, 0);
  if (base == MAP_FAILED) return false;
  auto table = std::make_shared<MappedTable>(base, size);

  const uint8_t* bytes = table->bytes();
  for (const auto& [at, len] : layout.padding) {
    if (!IsZeroPadding(bytes + at, len)) return false;
  }
  std::vector<const double*> numeric(schema.num_attrs(), nullptr);
  std::vector<const int32_t*> categorical(schema.num_attrs(), nullptr);
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    const int64_t at = layout.column_offsets[a];
    if (schema.is_numeric(a)) {
      numeric[a] = table->Column<double>(at, n);
      if (!NoNaN(numeric[a], n)) return false;
    } else {
      categorical[a] = table->Column<int32_t>(at, n);
      if (!ValuesInRange(categorical[a], n, schema.attr(a).cardinality)) {
        return false;
      }
    }
  }
  const ClassId* labels = table->Column<ClassId>(layout.label_offset, n);
  if (!ValuesInRange(labels, n, schema.num_classes())) return false;
  *out = Dataset(std::move(schema), n, numeric, categorical, labels,
                 std::move(table));
  return true;
}

bool ReadTableHeader(std::istream& is, Schema* schema, int64_t* num_records,
                     TableLayout* layout) {
  is.seekg(0, std::ios::end);
  const int64_t file_size = static_cast<int64_t>(is.tellg());
  auto read = [&is](uint8_t* dst, int64_t bytes) {
    is.seekg(0);
    is.read(reinterpret_cast<char*>(dst), bytes);
    return is.good();
  };
  return DecodeTableHeader(file_size, read, schema, num_records, layout);
}

bool ReadTableHeader(const std::string& path, Schema* schema,
                     int64_t* num_records) {
  std::ifstream is(path, std::ios::binary);
  TableLayout layout;
  return is.is_open() && ReadTableHeader(is, schema, num_records, &layout);
}

}  // namespace cmp
