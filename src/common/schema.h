#ifndef CMP_COMMON_SCHEMA_H_
#define CMP_COMMON_SCHEMA_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace cmp {

/// Kind of a training-set attribute. Ordered (numeric) attributes support
/// range splits `a <= c`; categorical attributes support subset splits.
enum class AttrKind {
  kNumeric,
  kCategorical,
};

/// Description of one attribute (the class label is *not* an attribute).
struct AttrInfo {
  std::string name;
  AttrKind kind = AttrKind::kNumeric;
  /// For categorical attributes: number of distinct values (values are
  /// dense integers in [0, cardinality)). Ignored for numeric attributes.
  int32_t cardinality = 0;
};

/// Caps every schema decoder (the `.cmpt` header, the `.cmpb` schema
/// section, the `.cmps` signature and the text tree parser) applies to
/// what it reads, so a hostile count or length fails the decode instead
/// of reaching the allocator.
inline constexpr int64_t kMaxSchemaAttrs = int64_t{1} << 20;
inline constexpr int64_t kMaxSchemaClasses = int64_t{1} << 20;
inline constexpr size_t kMaxNameBytes = size_t{1} << 16;
inline constexpr int64_t kMaxCardinality = int64_t{1} << 24;

/// The one validity rule for a decoded attribute entry. `kind` is the
/// stored kind code (0 numeric, 1 categorical; anything else is
/// invalid). A numeric attribute's cardinality must be 0, as every
/// writer writes it; a categorical one's must lie in [0,
/// kMaxCardinality].
bool ValidAttrEntry(int64_t kind, int64_t cardinality);

/// Schema of a training set: the attribute descriptions plus the names of
/// the class labels. Class labels are dense integers in [0, num_classes).
class Schema {
 public:
  Schema() = default;
  Schema(std::vector<AttrInfo> attrs, std::vector<std::string> class_names);

  int32_t num_attrs() const { return static_cast<int32_t>(attrs_.size()); }
  int32_t num_classes() const {
    return static_cast<int32_t>(class_names_.size());
  }

  const AttrInfo& attr(AttrId a) const { return attrs_[a]; }
  const std::vector<AttrInfo>& attrs() const { return attrs_; }
  const std::string& class_name(ClassId c) const { return class_names_[c]; }
  const std::vector<std::string>& class_names() const { return class_names_; }

  bool is_numeric(AttrId a) const {
    return attrs_[a].kind == AttrKind::kNumeric;
  }

  /// Returns the ids of all numeric attributes, in schema order.
  std::vector<AttrId> NumericAttrs() const;
  /// Returns the ids of all categorical attributes, in schema order.
  std::vector<AttrId> CategoricalAttrs() const;

  /// Looks up an attribute id by name; returns kInvalidAttr if absent.
  AttrId FindAttr(const std::string& name) const;

  /// Approximate on-disk size of one record in bytes (8 bytes per numeric
  /// attribute, 4 per categorical, 4 for the label). Used by the I/O cost
  /// model.
  int64_t RecordBytes() const;

  bool operator==(const Schema& other) const;

 private:
  std::vector<AttrInfo> attrs_;
  std::vector<std::string> class_names_;
};

}  // namespace cmp

#endif  // CMP_COMMON_SCHEMA_H_
