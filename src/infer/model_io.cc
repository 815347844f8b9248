#include "infer/model_io.h"

#include <cstring>
#include <span>

#include "io/codec.h"

namespace cmp {

namespace {

// Node orders an older writer may name in a kNodeLayout section: 0 is
// preorder, 1 breadth-first cache-blocked.
constexpr uint32_t kKnownNodeLayouts = 2;

// The schema section: u32 attribute count, the attribute entries, u32
// class count, the class names (io/codec.h).
std::vector<uint8_t> EncodeSchema(const Schema& schema) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(schema.num_attrs()));
  for (const AttrInfo& info : schema.attrs()) PutAttrEntry(&w, info);
  w.U32(static_cast<uint32_t>(schema.num_classes()));
  for (const std::string& name : schema.class_names()) w.Name(name);
  return w.Take();
}

bool DecodeSchema(const uint8_t* data, uint64_t bytes, Schema* out) {
  ByteReader r(data, bytes);
  const uint32_t num_attrs = r.U32();
  if (num_attrs > kMaxSchemaAttrs) return false;
  std::vector<AttrInfo> attrs;
  for (uint32_t i = 0; r.ok() && i < num_attrs; ++i) {
    attrs.push_back(GetAttrEntry(&r));
  }
  const uint32_t num_classes = r.U32();
  if (num_classes > kMaxSchemaClasses) return false;
  std::vector<std::string> class_names;
  for (uint32_t i = 0; r.ok() && i < num_classes; ++i) {
    class_names.push_back(r.Name());
  }
  if (!r.AtEnd()) return false;  // malformed, truncated or trailing bytes
  *out = Schema(std::move(attrs), std::move(class_names));
  return true;
}

bool PackFail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

std::vector<uint8_t> PackModelBlob(
    const std::vector<const DecisionTree*>& trees, std::string* error) {
  if (trees.empty()) {
    PackFail(error, "no trees to pack");
    return {};
  }
  for (const DecisionTree* t : trees) {
    if (t == nullptr || t->empty()) {
      PackFail(error, "cannot pack an empty tree");
      return {};
    }
    if (!(t->schema() == trees.front()->schema())) {
      PackFail(error, "trees disagree on schema");
      return {};
    }
  }
  const Schema& schema = trees.front()->schema();
  const uint32_t num_classes =
      static_cast<uint32_t>(std::max<int32_t>(schema.num_classes(), 1));

  BlobWriter writer(static_cast<uint32_t>(trees.size()), num_classes);
  const std::vector<uint8_t> schema_bytes = EncodeSchema(schema);
  writer.Add(kGlobalSection, SectionKind::kSchema, schema_bytes.data(),
             schema_bytes.size(), 1);
  for (uint32_t i = 0; i < trees.size(); ++i) {
    const CompiledTreeArrays a = CompileTreeToArrays(*trees[i]);
    writer.Add(i, SectionKind::kNodeAttr, a.attr.data(), a.attr.size(),
               sizeof(int16_t));
    writer.Add(i, SectionKind::kThreshold, a.threshold.data(),
               a.threshold.size(), sizeof(float));
    writer.Add(i, SectionKind::kChildren, a.children.data(),
               a.children.size(), sizeof(int32_t));
    writer.Add(i, SectionKind::kCatSplits, a.cat_splits.data(),
               a.cat_splits.size(), sizeof(CompiledTree::CatSplit));
    writer.Add(i, SectionKind::kCatBits, a.cat_bits.data(), a.cat_bits.size(),
               1);
    writer.Add(i, SectionKind::kLinSplits, a.lin_splits.data(),
               a.lin_splits.size(), sizeof(CompiledTree::LinSplit));
    writer.Add(i, SectionKind::kWideSplits, a.wide_splits.data(),
               a.wide_splits.size(), sizeof(CompiledTree::WideSplit));
    writer.Add(i, SectionKind::kLeafClass, a.leaf_class.data(),
               a.leaf_class.size(), sizeof(ClassId));
    writer.Add(i, SectionKind::kLeafProbs, a.leaf_probs.data(),
               a.leaf_probs.size(), sizeof(float));
  }
  return writer.Finish();
}

CompiledModel CompileModel(const std::vector<const DecisionTree*>& trees,
                           std::string* error) {
  CompiledModel out;
  std::vector<uint8_t> bytes = PackModelBlob(trees, error);
  if (bytes.empty()) return out;
  std::shared_ptr<const ModelBlob> blob =
      ModelBlob::FromBytes(std::move(bytes), error);
  if (blob == nullptr) return out;
  ModelFromBlob(std::move(blob), &out, error);
  return out;
}

bool SaveModelBlob(const std::vector<const DecisionTree*>& trees,
                   const std::string& path, std::string* error) {
  const std::vector<uint8_t> bytes = PackModelBlob(trees, error);
  if (bytes.empty()) return false;
  return WriteWholeFile(path, {std::as_bytes(std::span(bytes))}, error);
}

bool ModelFromBlob(std::shared_ptr<const ModelBlob> blob, CompiledModel* out,
                   std::string* error) {
  *out = CompiledModel();
  if (blob == nullptr) return PackFail(error, "null blob");
  const BlobSection* schema_section =
      blob->Find(kGlobalSection, SectionKind::kSchema);
  if (schema_section == nullptr) {
    return PackFail(error, "blob has no schema section");
  }
  Schema schema;
  if (!DecodeSchema(blob->SectionData<uint8_t>(*schema_section),
                    schema_section->bytes, &schema)) {
    return PackFail(error, "malformed schema section");
  }
  const uint32_t expect_classes =
      static_cast<uint32_t>(std::max<int32_t>(schema.num_classes(), 1));
  if (blob->num_classes() != expect_classes) {
    return PackFail(error, "header class count disagrees with schema");
  }
  auto shared_schema = std::make_shared<const Schema>(std::move(schema));

  // Older writers named their node order in a u32 value + u32 version
  // section. Descent only needs strictly forward children, which
  // FromBlob checks, so any known order loads; the section is still
  // outside input and must be well formed.
  if (const BlobSection* layout_section =
          blob->Find(kGlobalSection, SectionKind::kNodeLayout)) {
    if (layout_section->bytes < 2 * sizeof(uint32_t)) {
      return PackFail(error, "malformed node-layout section");
    }
    uint32_t layout = 0;
    std::memcpy(&layout, blob->SectionData<uint8_t>(*layout_section),
                sizeof(layout));
    if (layout >= kKnownNodeLayouts) {
      return PackFail(error, "unknown node layout");
    }
  }

  CompiledModel model;
  model.schema = shared_schema;
  model.blob = blob;
  // Trees join as they bind, so a hostile tree count fails at the first
  // tree the blob lacks instead of sizing the list.
  for (uint32_t i = 0; i < blob->num_trees(); ++i) {
    CompiledTree tree;
    if (!CompiledTree::FromBlob(blob, shared_schema, i, &tree, error)) {
      return false;
    }
    model.trees.push_back(std::move(tree));
  }
  *out = std::move(model);
  return true;
}

bool LoadCompiledModel(const std::string& path, CompiledModel* out,
                       std::string* error) {
  *out = CompiledModel();
  std::shared_ptr<const ModelBlob> blob = ModelBlob::Load(path, error);
  if (blob == nullptr) return false;
  return ModelFromBlob(std::move(blob), out, error);
}

}  // namespace cmp
