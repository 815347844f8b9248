#include "io/sketch_sidecar.h"

#include <span>
#include <utility>

#include "io/codec.h"

namespace cmp {
namespace {

constexpr FormatTag kSidecarTag = {{'C', 'M', 'P', 'S'}, 1, true};
constexpr uint64_t kMaxSidecarBytes = 1ull << 32;

void WriteSketch(ByteWriter* w, const QuantileSketch& sketch) {
  w->Var(static_cast<uint64_t>(sketch.capacity()));
  w->Var(static_cast<uint64_t>(sketch.count()));
  w->Var(static_cast<uint64_t>(sketch.rank_error_bound()));
  if (sketch.count() > 0) {
    w->F64(sketch.min_value());
    w->F64(sketch.max_value());
  }
  const std::vector<std::vector<double>>& levels = sketch.levels();
  // Trailing empty levels carry no information; trimming them keeps the
  // image canonical (byte-identical for equal sketch states).
  size_t num_levels = levels.size();
  while (num_levels > 0 && levels[num_levels - 1].empty()) --num_levels;
  w->Var(num_levels);
  for (size_t h = 0; h < num_levels; ++h) {
    w->Var(levels[h].size());
    for (double v : levels[h]) w->F64(v);
  }
}

bool ReadSketch(ByteReader* r, QuantileSketch* sketch) {
  const uint64_t capacity = r->Var();
  const uint64_t count = r->Var();
  const uint64_t error_bound = r->Var();
  if (!r->ok() || capacity < 8 || capacity > (1u << 24) ||
      count > (uint64_t{1} << 62) || error_bound > (uint64_t{1} << 62)) {
    r->Fail();
    return false;
  }
  double min_value = 0.0;
  double max_value = 0.0;
  if (count > 0) {
    min_value = r->F64();
    max_value = r->F64();
  }
  const uint64_t num_levels = r->Var();
  if (!r->ok() || num_levels > 63) {
    r->Fail();
    return false;
  }
  std::vector<std::vector<double>> levels(num_levels);
  for (uint64_t h = 0; h < num_levels; ++h) {
    const uint64_t size = r->Var();
    // Every stored value is 8 bytes, so a count beyond remaining()/8 is
    // corruption, not an allocation request.
    if (!r->ok() || size > r->remaining() / sizeof(double)) {
      r->Fail();
      return false;
    }
    levels[h].resize(size);
    r->Raw(levels[h].data(), size * sizeof(double));
  }
  if (!r->ok() ||
      !QuantileSketch::FromState(static_cast<int>(capacity),
                                 static_cast<int64_t>(count), min_value,
                                 max_value, static_cast<int64_t>(error_bound),
                                 std::move(levels), sketch)) {
    r->Fail();
    return false;
  }
  return true;
}

}  // namespace

void SketchSidecar::SetSchema(const Schema& schema) {
  num_classes = schema.num_classes();
  attr_is_numeric.assign(schema.num_attrs(), 0);
  attr_cardinality.assign(schema.num_attrs(), 0);
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    if (schema.is_numeric(a)) {
      attr_is_numeric[a] = 1;
    } else {
      attr_cardinality[a] = schema.attr(a).cardinality;
    }
  }
}

bool SketchSidecar::MatchesSchema(const Schema& schema) const {
  if (num_classes != schema.num_classes()) return false;
  if (static_cast<int>(attr_is_numeric.size()) != schema.num_attrs()) {
    return false;
  }
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    const bool numeric = attr_is_numeric[a] != 0;
    if (numeric != schema.is_numeric(a)) return false;
    if (!numeric && attr_cardinality[a] != schema.attr(a).cardinality) {
      return false;
    }
  }
  return true;
}

std::vector<uint8_t> SerializeSketchSidecar(const SketchSidecar& sidecar) {
  ByteWriter w;
  PutFormatTag(&w, kSidecarTag);
  w.Var(static_cast<uint64_t>(sidecar.sketch_capacity));
  w.Var(static_cast<uint64_t>(sidecar.intervals));
  w.Var(static_cast<uint64_t>(sidecar.records_seen));
  w.Var(static_cast<uint64_t>(sidecar.num_classes));
  w.Var(sidecar.attr_is_numeric.size());
  for (size_t a = 0; a < sidecar.attr_is_numeric.size(); ++a) {
    w.Var(sidecar.attr_is_numeric[a]);
    w.VarSigned(sidecar.attr_cardinality[a]);
  }
  w.Var(sidecar.leaves.size());
  for (const LeafSketchState& leaf : sidecar.leaves) {
    w.VarSigned(leaf.node);
    w.Var(leaf.class_counts.size());
    for (int64_t c : leaf.class_counts) w.VarSigned(c);
    w.Var(leaf.sketches.size());
    for (const QuantileSketch& s : leaf.sketches) WriteSketch(&w, s);
    w.Var(leaf.cat_counts.size());
    for (const std::vector<int64_t>& table : leaf.cat_counts) {
      w.Var(table.size());
      for (int64_t c : table) w.VarSigned(c);
    }
  }
  return w.Take();
}

bool ParseSketchSidecar(const std::vector<uint8_t>& bytes,
                        SketchSidecar* sidecar, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = "sketch sidecar: " + msg;
    return false;
  };
  ByteReader r(bytes);
  std::string tag_error;
  if (!CheckFormatTag(&r, kSidecarTag, &tag_error)) return fail(tag_error);
  SketchSidecar out;
  out.sketch_capacity = static_cast<int>(r.Var());
  out.intervals = static_cast<int>(r.Var());
  out.records_seen = static_cast<int64_t>(r.Var());
  out.num_classes = static_cast<int>(r.Var());
  if (!r.ok() || out.sketch_capacity < 8 || out.intervals < 1 ||
      out.records_seen < 0 || out.num_classes < 1 ||
      out.num_classes > kMaxSchemaClasses) {
    return fail("corrupt header fields");
  }
  // Every list below grows as its entries decode, and each count is
  // checked against the bytes left (every entry takes at least one), so
  // a hostile count fails at the end of the input, not in the allocator.
  const uint64_t num_attrs = r.Var();
  if (!r.ok() || num_attrs > kMaxSchemaAttrs || num_attrs > r.remaining()) {
    return fail("corrupt attribute table");
  }
  // Categorical cardinalities in AttrId order: each leaf's count tables.
  std::vector<int64_t> table_rows;
  for (uint64_t a = 0; a < num_attrs; ++a) {
    const uint64_t numeric = r.Var();
    const int64_t cardinality = r.VarSigned();
    // The flag stores 1 for numeric; the schema rule's kind code is 0.
    const int64_t kind = numeric == 1 ? 0 : numeric == 0 ? 1 : 2;
    if (!r.ok() || !ValidAttrEntry(kind, cardinality)) {
      return fail("corrupt attribute entry");
    }
    out.attr_is_numeric.push_back(static_cast<uint8_t>(numeric));
    out.attr_cardinality.push_back(static_cast<int32_t>(cardinality));
    if (numeric == 0) table_rows.push_back(cardinality);
  }
  const uint64_t num_numeric = num_attrs - table_rows.size();
  const uint64_t num_leaves = r.Var();
  if (!r.ok() || num_leaves > r.remaining()) {
    return fail("corrupt leaf count");
  }
  for (uint64_t l = 0; l < num_leaves; ++l) {
    LeafSketchState leaf;
    leaf.node = static_cast<NodeId>(r.VarSigned());
    const uint64_t nc = r.Var();
    if (!r.ok() || leaf.node < 0 ||
        nc != static_cast<uint64_t>(out.num_classes) || nc > r.remaining()) {
      return fail("corrupt leaf header");
    }
    for (uint64_t c = 0; c < nc; ++c) {
      leaf.class_counts.push_back(r.VarSigned());
      if (leaf.class_counts.back() < 0) return fail("negative class count");
    }
    const uint64_t num_sketches = r.Var();
    if (!r.ok() || num_sketches != nc * num_numeric ||
        num_sketches > r.remaining()) {
      return fail("sketch count does not match schema");
    }
    for (uint64_t i = 0; i < num_sketches; ++i) {
      QuantileSketch sketch;
      if (!ReadSketch(&r, &sketch)) return fail("corrupt sketch state");
      leaf.sketches.push_back(std::move(sketch));
    }
    const uint64_t num_tables = r.Var();
    if (!r.ok() || num_tables != table_rows.size()) {
      return fail("table count does not match schema");
    }
    for (const int64_t rows : table_rows) {
      // Refit adds fresh counts into these tables cell by cell, so each
      // must be exactly cardinality x num_classes.
      const uint64_t cells = r.Var();
      if (!r.ok() || cells != static_cast<uint64_t>(rows) * nc ||
          cells > r.remaining()) {
        return fail("corrupt categorical table");
      }
      std::vector<int64_t>& table = leaf.cat_counts.emplace_back();
      for (uint64_t i = 0; i < cells; ++i) {
        table.push_back(r.VarSigned());
        if (table.back() < 0) return fail("negative categorical count");
      }
    }
    out.leaves.push_back(std::move(leaf));
  }
  if (!r.AtEnd()) return fail("trailing or truncated bytes");
  *sidecar = std::move(out);
  return true;
}

bool SaveSketchSidecar(const SketchSidecar& sidecar, const std::string& path,
                       std::string* error) {
  const std::vector<uint8_t> bytes = SerializeSketchSidecar(sidecar);
  return WriteWholeFile(path, {std::as_bytes(std::span(bytes))}, error);
}

bool LoadSketchSidecar(const std::string& path, SketchSidecar* sidecar,
                       std::string* error) {
  std::vector<uint8_t> bytes;
  return ReadWholeFile(path, kMaxSidecarBytes, &bytes, error) &&
         ParseSketchSidecar(bytes, sidecar, error);
}

}  // namespace cmp
