#ifndef CMP_IO_CODEC_H_
#define CMP_IO_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/schema.h"

namespace cmp {

/// The one byte codec behind every binary format in the repository: the
/// `.cmpt` table header (io/table_file.h), the `.cmpb` model blob
/// (io/model_blob.h, infer/model_io.h) and the `.cmps` sketch sidecar
/// (io/sketch_sidecar.h). Fixed-width values are stored in host byte
/// order, which is little-endian on every supported target; `.cmpb` and
/// `.cmps` carry an endianness probe (FormatTag) so a reader of the other
/// byte order fails instead of misreading.

/// Appends encoded values to a growing byte image.
class ByteWriter {
 public:
  void Raw(const void* data, size_t size);
  void U8(uint8_t v) { bytes_.push_back(v); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void I32(int32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  /// LEB128: seven bits per byte, low bits first.
  void Var(uint64_t v);
  /// Zigzag-mapped LEB128, so small negative values stay short.
  void VarSigned(int64_t v);
  /// A u32 byte length, then the bytes.
  void Name(const std::string& s);
  /// Zero-fills up to `size` bytes (alignment padding).
  void PadTo(size_t size) { bytes_.resize(size, 0); }
  void Reserve(size_t size) { bytes_.reserve(size); }
  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Bounds-checked reader over a byte span with a sticky failure: after
/// the first read past the end, or a Fail(), every read returns zero (an
/// empty name) and ok() stays false. Decoders therefore read a whole
/// record and check ok() once, and must check a count against
/// remaining() before they size anything from it.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(std::span<const uint8_t> bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  /// Copies `size` bytes into `out`, or zero-fills it and fails.
  bool Raw(void* out, size_t size);
  uint8_t U8() { return Get<uint8_t>(); }
  uint32_t U32() { return Get<uint32_t>(); }
  int32_t I32() { return Get<int32_t>(); }
  uint64_t U64() { return Get<uint64_t>(); }
  int64_t I64() { return Get<int64_t>(); }
  double F64() { return Get<double>(); }
  uint64_t Var();
  int64_t VarSigned();
  /// A u32-length-prefixed name; fails when longer than kMaxNameBytes
  /// (common/schema.h).
  std::string Name();

  bool ok() const { return ok_; }
  /// True when a read ran past the end of the span, as opposed to a
  /// value failing validation: a caller holding only a prefix of a
  /// larger file can then retry with more of it.
  bool truncated() const { return truncated_; }
  size_t remaining() const { return size_ - offset_; }
  /// True when every byte was consumed without a failure.
  bool AtEnd() const { return ok_ && offset_ == size_; }
  void Fail() { ok_ = false; }

 private:
  template <typename T>
  T Get() {
    T v{};
    Raw(&v, sizeof(v));
    return v;
  }
  // True when `size` more bytes remain; otherwise fails as truncated.
  bool Need(size_t size);

  const uint8_t* data_;
  size_t size_;
  size_t offset_ = 0;
  bool ok_ = true;
  bool truncated_ = false;
};

/// The tag a binary format opens with: a 4-byte magic, a u32 version
/// and, when `endian_probe` is set, the u32 probe 0x01020304.
struct FormatTag {
  char magic[4];
  uint32_t version;
  bool endian_probe;
};

void PutFormatTag(ByteWriter* w, const FormatTag& tag);

/// Reads and checks a tag. On a mismatch fails the reader and, when
/// `error` is non-null, names the first bad field ("bad magic",
/// "unsupported version N", "endianness mismatch").
bool CheckFormatTag(ByteReader* r, const FormatTag& tag, std::string* error);

/// One attribute entry as `.cmpt` and `.cmpb` store it: name, kind byte
/// (0 numeric, 1 categorical), i32 cardinality.
void PutAttrEntry(ByteWriter* w, const AttrInfo& info);

/// Reads one attribute entry and applies ValidAttrEntry
/// (common/schema.h); the reader fails on an invalid entry.
AttrInfo GetAttrEntry(ByteReader* r);

/// Reads the whole file at `path` into `out`. Fails, with a message in
/// `error` when non-null, if the file cannot be read or is larger than
/// `max_bytes`.
bool ReadWholeFile(const std::string& path, uint64_t max_bytes,
                   std::vector<uint8_t>* out, std::string* error);

/// Writes `parts` back to back to `path` (truncating it), then flushes,
/// closes and checks the stream, so a full disk fails here and not after
/// the caller reported success. Fails with a message in `error` when
/// non-null.
bool WriteWholeFile(const std::string& path,
                    const std::vector<std::span<const std::byte>>& parts,
                    std::string* error);

}  // namespace cmp

#endif  // CMP_IO_CODEC_H_
