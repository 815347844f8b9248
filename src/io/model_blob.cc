#include "io/model_blob.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>

namespace cmp {

namespace {

constexpr char kMagic[4] = {'C', 'M', 'P', 'B'};
constexpr uint32_t kEndianProbe = 0x01020304u;
// header: magic + 6 u32 fields + u64 total size
constexpr uint64_t kHeaderBytes = 4 + 6 * 4 + 8;
constexpr uint64_t kSectionEntryBytes = 4 + 4 + 8 + 8 + 8;
// Caps keep a hostile section table from driving huge allocations
// before any payload validation runs.
constexpr uint32_t kMaxSections = 1u << 20;
constexpr uint32_t kMaxTrees = 1u << 20;

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

bool Fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

ModelBlob::~ModelBlob() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

bool ModelBlob::Parse(std::string* error) {
  if (size_ < kHeaderBytes) return Fail(error, "blob shorter than header");
  const uint8_t* p = data_;
  if (std::memcmp(p, kMagic, 4) != 0) return Fail(error, "bad magic");
  p += 4;
  const uint32_t version = GetU32(p);
  p += 4;
  if (version != kModelBlobVersion) {
    return Fail(error, "unsupported blob version " + std::to_string(version));
  }
  const uint32_t endian = GetU32(p);
  p += 4;
  if (endian != kEndianProbe) {
    return Fail(error, "endianness mismatch (blob written on a machine of "
                       "different byte order)");
  }
  const uint32_t num_sections = GetU32(p);
  p += 4;
  num_trees_ = GetU32(p);
  p += 4;
  num_classes_ = GetU32(p);
  p += 4;
  p += 4;  // reserved
  const uint64_t total = GetU64(p);
  if (total != size_) return Fail(error, "blob size does not match header");
  if (num_sections > kMaxSections) return Fail(error, "section count absurd");
  if (num_trees_ == 0 || num_trees_ > kMaxTrees) {
    return Fail(error, "tree count out of range");
  }
  const uint64_t table_end =
      kHeaderBytes + uint64_t{num_sections} * kSectionEntryBytes;
  if (table_end > size_) return Fail(error, "section table truncated");

  sections_.resize(num_sections);
  const uint8_t* e = data_ + kHeaderBytes;
  for (BlobSection& s : sections_) {
    s.tree = GetU32(e);
    s.kind = GetU32(e + 4);
    s.offset = GetU64(e + 8);
    s.count = GetU64(e + 16);
    s.bytes = GetU64(e + 24);
    e += kSectionEntryBytes;
    if (s.offset % 8 != 0) return Fail(error, "misaligned section");
    if (s.offset < table_end || s.offset > size_ ||
        s.bytes > size_ - s.offset) {
      return Fail(error, "section out of bounds");
    }
    if (s.tree != kGlobalSection && s.tree >= num_trees_) {
      return Fail(error, "section for nonexistent tree");
    }
  }
  return true;
}

std::shared_ptr<const ModelBlob> ModelBlob::FromBytes(
    std::vector<uint8_t> bytes, std::string* error) {
  auto blob = std::shared_ptr<ModelBlob>(new ModelBlob());
  blob->owned_ = std::move(bytes);
  blob->data_ = blob->owned_.data();
  blob->size_ = blob->owned_.size();
  blob->mapped_ = false;
  if (!blob->Parse(error)) return nullptr;
  return blob;
}

std::shared_ptr<const ModelBlob> ModelBlob::Load(const std::string& path,
                                                 std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (error != nullptr) *error = "cannot open " + path;
    return nullptr;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode) || st.st_size < 0) {
    ::close(fd);
    if (error != nullptr) *error = "cannot stat " + path;
    return nullptr;
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);

  // mmap first: the kernel pages the node arrays in on first touch, so a
  // cold daemon start maps a multi-GB model in microseconds.
  if (size > 0) {
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      ::close(fd);
      auto blob = std::shared_ptr<ModelBlob>(new ModelBlob());
      blob->data_ = static_cast<const uint8_t*>(map);
      blob->size_ = size;
      blob->mapped_ = true;
      if (!blob->Parse(error)) return nullptr;  // dtor munmaps
      return blob;
    }
  }
  ::close(fd);

  // Fallback: one bulk read (e.g. filesystems without mmap support).
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) {
    if (error != nullptr) *error = "cannot open " + path;
    return nullptr;
  }
  std::vector<uint8_t> bytes(size);
  is.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(size));
  if (!is.good() && size > 0) {
    if (error != nullptr) *error = "short read on " + path;
    return nullptr;
  }
  return FromBytes(std::move(bytes), error);
}

const BlobSection* ModelBlob::Find(uint32_t tree, SectionKind kind) const {
  for (const BlobSection& s : sections_) {
    if (s.tree == tree && s.kind == static_cast<uint32_t>(kind)) return &s;
  }
  return nullptr;
}

void BlobWriter::Add(uint32_t tree, SectionKind kind, const void* data,
                     uint64_t count, uint64_t elem_bytes) {
  Pending p;
  p.section.tree = tree;
  p.section.kind = static_cast<uint32_t>(kind);
  p.section.count = count;
  p.section.bytes = count * elem_bytes;
  p.payload.resize(p.section.bytes);
  if (p.section.bytes > 0) {
    std::memcpy(p.payload.data(), data, p.section.bytes);
  }
  pending_.push_back(std::move(p));
}

std::vector<uint8_t> BlobWriter::Finish() {
  const uint64_t table_end =
      kHeaderBytes + pending_.size() * kSectionEntryBytes;
  uint64_t offset = table_end;
  for (Pending& p : pending_) {
    offset = (offset + 7) & ~uint64_t{7};
    p.section.offset = offset;
    offset += p.section.bytes;
  }
  const uint64_t total = (offset + 7) & ~uint64_t{7};

  std::vector<uint8_t> out;
  out.reserve(total);
  for (const char c : kMagic) out.push_back(static_cast<uint8_t>(c));
  PutU32(&out, kModelBlobVersion);
  PutU32(&out, kEndianProbe);
  PutU32(&out, static_cast<uint32_t>(pending_.size()));
  PutU32(&out, num_trees_);
  PutU32(&out, num_classes_);
  PutU32(&out, 0);  // reserved
  PutU64(&out, total);
  for (const Pending& p : pending_) {
    PutU32(&out, p.section.tree);
    PutU32(&out, p.section.kind);
    PutU64(&out, p.section.offset);
    PutU64(&out, p.section.count);
    PutU64(&out, p.section.bytes);
  }
  for (const Pending& p : pending_) {
    out.resize(p.section.offset, 0);  // alignment padding
    out.insert(out.end(), p.payload.begin(), p.payload.end());
  }
  out.resize(total, 0);
  return out;
}

}  // namespace cmp
