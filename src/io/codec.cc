#include "io/codec.h"

#include <cstring>
#include <fstream>

namespace cmp {

namespace {

constexpr uint32_t kEndianProbe = 0x01020304u;

bool Fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

void ByteWriter::Raw(const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + size);
}

void ByteWriter::Var(uint64_t v) {
  while (v >= 0x80) {
    bytes_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  bytes_.push_back(static_cast<uint8_t>(v));
}

void ByteWriter::VarSigned(int64_t v) {
  Var((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
}

void ByteWriter::Name(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  Raw(s.data(), s.size());
}

bool ByteReader::Need(size_t size) {
  if (ok_ && remaining() < size) {
    truncated_ = true;
    ok_ = false;
  }
  return ok_;
}

bool ByteReader::Raw(void* out, size_t size) {
  if (size == 0) return ok_;  // `out` may be an empty vector's null data()
  if (!Need(size)) {
    std::memset(out, 0, size);
    return false;
  }
  std::memcpy(out, data_ + offset_, size);
  offset_ += size;
  return true;
}

uint64_t ByteReader::Var() {
  uint64_t v = 0;
  for (int shift = 0; ok_; shift += 7) {
    if (shift > 63) {
      ok_ = false;
      break;
    }
    const uint8_t b = U8();
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
  }
  return ok_ ? v : 0;
}

int64_t ByteReader::VarSigned() {
  const uint64_t u = Var();
  return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

std::string ByteReader::Name() {
  const uint32_t len = U32();
  if (len > kMaxNameBytes) Fail();
  // Checked before the string is sized, so a length the span cannot back
  // allocates nothing.
  if (!Need(len)) return {};
  std::string s(reinterpret_cast<const char*>(data_ + offset_), len);
  offset_ += len;
  return s;
}

void PutFormatTag(ByteWriter* w, const FormatTag& tag) {
  w->Raw(tag.magic, sizeof(tag.magic));
  w->U32(tag.version);
  if (tag.endian_probe) w->U32(kEndianProbe);
}

bool CheckFormatTag(ByteReader* r, const FormatTag& tag, std::string* error) {
  char magic[sizeof(tag.magic)];
  const bool whole_magic = r->Raw(magic, sizeof(magic));
  if (!whole_magic || std::memcmp(magic, tag.magic, sizeof(magic)) != 0) {
    r->Fail();
    return Fail(error, whole_magic ? "bad magic" : "truncated header");
  }
  const uint32_t version = r->U32();
  if (!r->ok()) return Fail(error, "truncated header");
  if (version != tag.version) {
    r->Fail();
    return Fail(error, "unsupported version " + std::to_string(version));
  }
  if (!tag.endian_probe) return true;
  const uint32_t probe = r->U32();
  if (!r->ok()) return Fail(error, "truncated header");
  if (probe != kEndianProbe) {
    r->Fail();
    return Fail(error,
                "endianness mismatch (written on a machine of different "
                "byte order)");
  }
  return true;
}

void PutAttrEntry(ByteWriter* w, const AttrInfo& info) {
  w->Name(info.name);
  w->U8(info.kind == AttrKind::kNumeric ? 0 : 1);
  w->I32(info.cardinality);
}

AttrInfo GetAttrEntry(ByteReader* r) {
  AttrInfo info;
  info.name = r->Name();
  const uint8_t kind = r->U8();
  info.kind = kind == 0 ? AttrKind::kNumeric : AttrKind::kCategorical;
  info.cardinality = r->I32();
  if (r->ok() && !ValidAttrEntry(kind, info.cardinality)) r->Fail();
  return info;
}

bool ReadWholeFile(const std::string& path, uint64_t max_bytes,
                   std::vector<uint8_t>* out, std::string* error) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is.is_open()) return Fail(error, "cannot open " + path);
  const std::streamoff size = is.tellg();
  if (size < 0 || static_cast<uint64_t>(size) > max_bytes) {
    return Fail(error, "implausible size of " + path);
  }
  out->resize(static_cast<size_t>(size));
  is.seekg(0);
  is.read(reinterpret_cast<char*>(out->data()), size);
  if (is.gcount() != size) return Fail(error, "short read on " + path);
  return true;
}

bool WriteWholeFile(const std::string& path,
                    const std::vector<std::span<const std::byte>>& parts,
                    std::string* error) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os.is_open()) return Fail(error, "cannot write " + path);
  for (const std::span<const std::byte> part : parts) {
    os.write(reinterpret_cast<const char*>(part.data()),
             static_cast<std::streamsize>(part.size()));
  }
  // Buffered bytes reach the file only here: a write that fails on flush
  // sets failbit through close().
  os.close();
  if (os.fail()) return Fail(error, "short write on " + path);
  return true;
}

}  // namespace cmp
