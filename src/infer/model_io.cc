#include "infer/model_io.h"

#include <cstring>
#include <fstream>

namespace cmp {

namespace {

// Caps for the schema decoder: a corrupt length prefix must fail the
// parse, not drive a multi-GB allocation.
constexpr uint32_t kMaxSchemaAttrs = 1u << 20;
constexpr uint32_t kMaxSchemaClasses = 1u << 20;
constexpr uint32_t kMaxNameBytes = 1u << 16;

// Node orders an older writer may name in a kNodeLayout section: 0 is
// preorder, 1 breadth-first cache-blocked.
constexpr uint32_t kKnownNodeLayouts = 2;

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

void PutI32(std::vector<uint8_t>* out, int32_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

/// Bounds-checked cursor over the schema section's bytes.
struct Reader {
  const uint8_t* p;
  uint64_t left;

  bool U32(uint32_t* v) {
    if (left < sizeof(*v)) return false;
    std::memcpy(v, p, sizeof(*v));
    p += sizeof(*v);
    left -= sizeof(*v);
    return true;
  }
  bool I32(int32_t* v) {
    if (left < sizeof(*v)) return false;
    std::memcpy(v, p, sizeof(*v));
    p += sizeof(*v);
    left -= sizeof(*v);
    return true;
  }
  bool U8(uint8_t* v) {
    if (left < 1) return false;
    *v = *p++;
    --left;
    return true;
  }
  bool Str(std::string* s) {
    uint32_t len = 0;
    if (!U32(&len) || len > kMaxNameBytes || left < len) return false;
    s->assign(reinterpret_cast<const char*>(p), len);
    p += len;
    left -= len;
    return true;
  }
};

std::vector<uint8_t> EncodeSchema(const Schema& schema) {
  std::vector<uint8_t> out;
  PutU32(&out, static_cast<uint32_t>(schema.num_attrs()));
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    const AttrInfo& info = schema.attr(a);
    PutString(&out, info.name);
    out.push_back(info.kind == AttrKind::kNumeric ? 0 : 1);
    PutI32(&out, info.cardinality);
  }
  PutU32(&out, static_cast<uint32_t>(schema.num_classes()));
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    PutString(&out, schema.class_name(c));
  }
  return out;
}

bool DecodeSchema(const uint8_t* data, uint64_t bytes, Schema* out) {
  Reader r{data, bytes};
  uint32_t num_attrs = 0;
  if (!r.U32(&num_attrs) || num_attrs > kMaxSchemaAttrs) return false;
  std::vector<AttrInfo> attrs(num_attrs);
  for (AttrInfo& info : attrs) {
    uint8_t kind = 0;
    if (!r.Str(&info.name) || !r.U8(&kind) || kind > 1 ||
        !r.I32(&info.cardinality)) {
      return false;
    }
    info.kind = kind == 0 ? AttrKind::kNumeric : AttrKind::kCategorical;
    if (info.kind == AttrKind::kCategorical && info.cardinality < 0) {
      return false;
    }
  }
  uint32_t num_classes = 0;
  if (!r.U32(&num_classes) || num_classes > kMaxSchemaClasses) return false;
  std::vector<std::string> class_names(num_classes);
  for (std::string& name : class_names) {
    if (!r.Str(&name)) return false;
  }
  if (r.left != 0) return false;  // trailing garbage
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
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os.is_open()) return PackFail(error, "cannot write " + path);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  if (!os.good()) return PackFail(error, "short write on " + path);
  return true;
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
  model.trees.resize(blob->num_trees());
  for (uint32_t i = 0; i < blob->num_trees(); ++i) {
    if (!CompiledTree::FromBlob(blob, shared_schema, i, &model.trees[i],
                                error)) {
      return false;
    }
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
