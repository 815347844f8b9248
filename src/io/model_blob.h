#ifndef CMP_IO_MODEL_BLOB_H_
#define CMP_IO_MODEL_BLOB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cmp {

/// The `.cmpb` compiled-model container: one relocatable, versioned,
/// endian-checked byte blob holding a schema section plus the flat
/// structure-of-arrays sections of one or more compiled trees.
///
/// Layout (all offsets from byte 0 of the blob):
///
///   header      magic "CMPB", u32 version, u32 endian probe
///               (0x01020304 as written), u32 section count,
///               u32 num_trees, u32 num_classes, u32 reserved,
///               u64 total byte size
///   section     num_sections entries of BlobSection (tree id, kind,
///   table       offset, element count, byte size)
///   payload     the sections' raw bytes, each 8-byte aligned,
///               zero-padded in between
///
/// The container is deliberately dumb: it knows sections and bounds, not
/// tree semantics. What each section *means* (element sizes, per-node
/// invariants) is validated by the compiled-model parser in
/// infer/model_io.h, so the same container can later carry other
/// flattened payloads (e.g. sketches) without another magic number.
///
/// A loaded ModelBlob is immutable and position-independent: every
/// section is reached through the table, never through stored pointers,
/// so the same bytes are valid whether they arrived by mmap, one bulk
/// read, or a network copy. Predictors keep the owning
/// shared_ptr<ModelBlob> alive for as long as they hold views into it —
/// that shared_ptr is what lets a serving process retire an old model
/// only after the last in-flight batch drains.
struct BlobSection {
  /// Tree the section belongs to, or kGlobalSection for blob-wide
  /// sections (the schema).
  uint32_t tree = 0;
  /// A SectionKind value. Unknown kinds are skipped by readers so the
  /// format can grow sections without a version bump.
  uint32_t kind = 0;
  /// Byte offset of the payload from the start of the blob (8-aligned).
  uint64_t offset = 0;
  /// Number of elements (element width is implied by `kind`).
  uint64_t count = 0;
  /// Payload size in bytes.
  uint64_t bytes = 0;
};

/// Section kinds used by compiled tree models.
enum class SectionKind : uint32_t {
  kSchema = 1,      // serialized Schema (attrs + class names)
  kNodeAttr = 2,    // int16_t per node
  kThreshold = 3,   // float per node
  kChildren = 4,    // int32_t, 2 per node
  kCatSplits = 5,   // CompiledTree::CatSplit
  kCatBits = 6,     // uint8_t membership bit pool
  kLinSplits = 7,   // CompiledTree::LinSplit
  kWideSplits = 8,  // CompiledTree::WideSplit
  kLeafClass = 9,   // ClassId per leaf
  kLeafProbs = 10,  // float, num_leaves x num_classes
  kNodeLayout = 11,  // u32 node order + u32 version (global): written by
                     // older versions (0 preorder, 1 cache-blocked),
                     // validated and ignored on read, never written now;
                     // the value stays reserved
};

inline constexpr uint32_t kGlobalSection = 0xffffffffu;
inline constexpr uint32_t kModelBlobVersion = 1;

class ModelBlob {
 public:
  ~ModelBlob();
  ModelBlob(const ModelBlob&) = delete;
  ModelBlob& operator=(const ModelBlob&) = delete;

  /// Wraps (and takes ownership of) in-memory blob bytes. Returns null
  /// and fills `error` if the header or section table is malformed.
  static std::shared_ptr<const ModelBlob> FromBytes(
      std::vector<uint8_t> bytes, std::string* error);

  /// Loads a blob from disk: mmaps the file read-only when possible
  /// (zero-copy, pages fault in on first descent) and falls back to one
  /// bulk read. Returns null and fills `error` on I/O or format errors.
  static std::shared_ptr<const ModelBlob> Load(const std::string& path,
                                               std::string* error);

  const uint8_t* data() const { return data_; }
  uint64_t size() const { return size_; }
  /// True when the bytes are an mmap'd file rather than owned memory.
  bool mapped() const { return mapped_; }

  uint32_t num_trees() const { return num_trees_; }
  uint32_t num_classes() const { return num_classes_; }
  const std::vector<BlobSection>& sections() const { return sections_; }

  /// Finds the section of `kind` for `tree` (kGlobalSection for
  /// blob-wide sections); null when absent.
  const BlobSection* Find(uint32_t tree, SectionKind kind) const;

  /// Typed pointer to a section's payload. The section must come from
  /// this blob's table (offsets are bounds-checked at construction).
  template <typename T>
  const T* SectionData(const BlobSection& s) const {
    return reinterpret_cast<const T*>(data_ + s.offset);
  }

 private:
  ModelBlob() = default;
  /// Parses + bounds-checks the header and section table against
  /// [data_, data_ + size_). On failure the blob must be discarded.
  bool Parse(std::string* error);

  const uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
  bool mapped_ = false;
  std::vector<uint8_t> owned_;  // backing store when !mapped_

  uint32_t num_trees_ = 0;
  uint32_t num_classes_ = 0;
  std::vector<BlobSection> sections_;
};

/// Incrementally builds a `.cmpb` byte image: add sections in any order,
/// then Finish() lays them out 8-byte aligned behind the header + table.
/// Section payloads are copied at Add time, so callers may reuse their
/// scratch buffers.
class BlobWriter {
 public:
  BlobWriter(uint32_t num_trees, uint32_t num_classes)
      : num_trees_(num_trees), num_classes_(num_classes) {}

  void Add(uint32_t tree, SectionKind kind, const void* data, uint64_t count,
           uint64_t elem_bytes);

  /// Assembles the final blob image. The writer is spent afterwards.
  std::vector<uint8_t> Finish();

 private:
  struct Pending {
    BlobSection section;
    std::vector<uint8_t> payload;
  };
  uint32_t num_trees_;
  uint32_t num_classes_;
  std::vector<Pending> pending_;
};

}  // namespace cmp

#endif  // CMP_IO_MODEL_BLOB_H_
