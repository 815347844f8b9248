#include "io/model_blob.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>

#include "io/codec.h"

namespace cmp {

namespace {

constexpr FormatTag kBlobTag = {{'C', 'M', 'P', 'B'}, kModelBlobVersion, true};
// header: magic + 6 u32 fields + u64 total size
constexpr uint64_t kHeaderBytes = 4 + 6 * 4 + 8;
constexpr uint64_t kSectionEntryBytes = 4 + 4 + 8 + 8 + 8;
// Caps keep a hostile section table from driving huge allocations
// before any payload validation runs.
constexpr uint32_t kMaxSections = 1u << 20;
constexpr uint32_t kMaxTrees = 1u << 20;
// The bulk-read fallback's ceiling on a blob file.
constexpr uint64_t kMaxBlobFileBytes = uint64_t{1} << 40;

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
  ByteReader r(data_, size_);
  if (!CheckFormatTag(&r, kBlobTag, error)) return false;
  const uint32_t num_sections = r.U32();
  num_trees_ = r.U32();
  num_classes_ = r.U32();
  r.U32();  // reserved
  const uint64_t total = r.U64();
  if (!r.ok()) return Fail(error, "blob shorter than header");
  if (total != size_) return Fail(error, "blob size does not match header");
  if (num_sections > kMaxSections) return Fail(error, "section count absurd");
  if (num_trees_ == 0 || num_trees_ > kMaxTrees) {
    return Fail(error, "tree count out of range");
  }
  const uint64_t table_end =
      kHeaderBytes + uint64_t{num_sections} * kSectionEntryBytes;
  if (table_end > size_) return Fail(error, "section table truncated");

  sections_.resize(num_sections);
  for (BlobSection& s : sections_) {
    s.tree = r.U32();
    s.kind = r.U32();
    s.offset = r.U64();
    s.count = r.U64();
    s.bytes = r.U64();
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
  std::vector<uint8_t> bytes;
  if (!ReadWholeFile(path, kMaxBlobFileBytes, &bytes, error)) return nullptr;
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

  ByteWriter out;
  out.Reserve(total);
  PutFormatTag(&out, kBlobTag);
  out.U32(static_cast<uint32_t>(pending_.size()));
  out.U32(num_trees_);
  out.U32(num_classes_);
  out.U32(0);  // reserved
  out.U64(total);
  for (const Pending& p : pending_) {
    out.U32(p.section.tree);
    out.U32(p.section.kind);
    out.U64(p.section.offset);
    out.U64(p.section.count);
    out.U64(p.section.bytes);
  }
  for (const Pending& p : pending_) {
    out.PadTo(p.section.offset);  // alignment padding
    out.Raw(p.payload.data(), p.payload.size());
  }
  out.PadTo(total);
  return out.Take();
}

}  // namespace cmp
