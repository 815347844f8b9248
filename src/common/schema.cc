#include "common/schema.h"

#include <utility>

namespace cmp {

Schema::Schema(std::vector<AttrInfo> attrs, std::vector<std::string> class_names)
    : attrs_(std::move(attrs)), class_names_(std::move(class_names)) {}

bool ValidAttrEntry(int64_t kind, int64_t cardinality) {
  if (kind == 0) return cardinality == 0;
  return kind == 1 && cardinality >= 0 && cardinality <= kMaxCardinality;
}

std::vector<AttrId> Schema::NumericAttrs() const {
  std::vector<AttrId> out;
  for (AttrId a = 0; a < num_attrs(); ++a) {
    if (attrs_[a].kind == AttrKind::kNumeric) out.push_back(a);
  }
  return out;
}

std::vector<AttrId> Schema::CategoricalAttrs() const {
  std::vector<AttrId> out;
  for (AttrId a = 0; a < num_attrs(); ++a) {
    if (attrs_[a].kind == AttrKind::kCategorical) out.push_back(a);
  }
  return out;
}

AttrId Schema::FindAttr(const std::string& name) const {
  for (AttrId a = 0; a < num_attrs(); ++a) {
    if (attrs_[a].name == name) return a;
  }
  return kInvalidAttr;
}

int64_t Schema::RecordBytes() const {
  int64_t bytes = 4;  // class label
  for (const AttrInfo& info : attrs_) {
    bytes += info.kind == AttrKind::kNumeric ? 8 : 4;
  }
  return bytes;
}

bool Schema::operator==(const Schema& other) const {
  if (class_names_ != other.class_names_) return false;
  if (attrs_.size() != other.attrs_.size()) return false;
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i].name != other.attrs_[i].name ||
        attrs_[i].kind != other.attrs_[i].kind ||
        attrs_[i].cardinality != other.attrs_[i].cardinality) {
      return false;
    }
  }
  return true;
}

}  // namespace cmp
