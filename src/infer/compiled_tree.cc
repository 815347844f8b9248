#include "infer/compiled_tree.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "infer/infer_kernels.h"
#include "infer/model_io.h"

namespace cmp {

namespace {

/// True if `t` survives a round trip through float, so the inline
/// float-threshold compare `x <= (double)(float)t` partitions doubles
/// exactly where `x <= t` does.
bool FloatRoundTrips(double t) {
  if (!std::isfinite(t) || std::abs(t) > std::numeric_limits<float>::max()) {
    return false;
  }
  return static_cast<double>(static_cast<float>(t)) == t;
}

/// Row types of the per-row lookups, for infer_impl::DescendFrom.
struct DatasetRow {
  const Dataset* ds;
  RecordId r;
  double Numeric(int32_t a) const { return ds->numeric(a, r); }
  int32_t Categorical(int32_t a) const { return ds->categorical(a, r); }
};

struct RawRow {
  const double* numeric;
  const int32_t* categorical;
  double Numeric(int32_t a) const { return numeric[a]; }
  int32_t Categorical(int32_t a) const { return categorical[a]; }
};

bool BindFail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

/// Locates the `kind` section of tree `tree_index`, checking its byte
/// size is exactly count * elem_bytes. A missing section is returned as
/// an empty section (count 0) when `required` is false.
bool FindTyped(const ModelBlob& blob, uint32_t tree_index, SectionKind kind,
               uint64_t elem_bytes, bool required, const BlobSection** out,
               std::string* error) {
  const BlobSection* s = blob.Find(tree_index, kind);
  if (s == nullptr) {
    *out = nullptr;
    if (required) return BindFail(error, "missing required tree section");
    return true;
  }
  if (s->bytes != s->count * elem_bytes) {
    return BindFail(error, "section size does not match element count");
  }
  *out = s;
  return true;
}

}  // namespace

CompiledTreeArrays CompileTreeToArrays(const DecisionTree& tree) {
  CompiledTreeArrays out;
  out.num_classes = std::max<int32_t>(tree.schema().num_classes(), 1);
  if (tree.empty()) return out;

  // Emit nodes in depth-first preorder (left child adjacent to parent);
  // only reachable nodes are visited, so MakeLeaf garbage is dropped.
  struct Frame {
    NodeId src;
    int32_t parent;  // compiled id whose child slot to patch, -1 for root
    bool is_left;
  };
  std::vector<Frame> stack = {{0, -1, false}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const int32_t id = static_cast<int32_t>(out.attr.size());
    if (f.parent >= 0) {
      out.children[2 * f.parent + (f.is_left ? 0 : 1)] = id;
    }
    out.attr.push_back(CompiledTree::kLeaf);
    out.threshold.push_back(0.0f);
    out.children.push_back(kInvalidNode);
    out.children.push_back(kInvalidNode);

    const TreeNode& n = tree.node(f.src);
    if (n.is_leaf) {
      const int32_t leaf_index = static_cast<int32_t>(out.leaf_class.size());
      ClassId cls = n.leaf_class;
      if (cls < 0 || cls >= out.num_classes) cls = 0;
      out.leaf_class.push_back(cls);
      out.children[2 * id] = cls;
      out.children[2 * id + 1] = leaf_index;

      // Normalize the training class counts into probabilities; a leaf
      // with no recorded counts keeps full confidence in its class.
      double total = 0.0;
      for (size_t c = 0;
           c < n.class_counts.size() &&
           c < static_cast<size_t>(out.num_classes);
           ++c) {
        total += static_cast<double>(n.class_counts[c]);
      }
      for (int32_t c = 0; c < out.num_classes; ++c) {
        float p;
        if (total > 0.0) {
          const int64_t cnt =
              c < static_cast<int32_t>(n.class_counts.size())
                  ? n.class_counts[c]
                  : 0;
          p = static_cast<float>(static_cast<double>(cnt) / total);
        } else {
          p = c == cls ? 1.0f : 0.0f;
        }
        out.leaf_probs.push_back(p);
      }
      continue;
    }

    const Split& s = n.split;
    switch (s.kind) {
      case Split::Kind::kNumeric:
        if (s.attr <= std::numeric_limits<int16_t>::max() &&
            FloatRoundTrips(s.threshold)) {
          out.attr[id] = static_cast<int16_t>(s.attr);
          out.threshold[id] = static_cast<float>(s.threshold);
        } else {
          const int32_t idx = static_cast<int32_t>(out.wide_splits.size());
          out.wide_splits.push_back(
              CompiledTree::WideSplit{s.attr, 0, s.threshold});
          out.attr[id] = CompiledTree::kWide;
          out.threshold[id] = std::bit_cast<float>(idx);
        }
        break;
      case Split::Kind::kCategorical: {
        const int32_t idx = static_cast<int32_t>(out.cat_splits.size());
        CompiledTree::CatSplit cs;
        cs.attr = s.attr;
        cs.offset = static_cast<int32_t>(out.cat_bits.size());
        cs.card = static_cast<int32_t>(s.left_subset.size());
        out.cat_splits.push_back(cs);
        out.cat_bits.insert(out.cat_bits.end(), s.left_subset.begin(),
                            s.left_subset.end());
        out.attr[id] = CompiledTree::kCat;
        out.threshold[id] = std::bit_cast<float>(idx);
        break;
      }
      case Split::Kind::kLinear: {
        const int32_t idx = static_cast<int32_t>(out.lin_splits.size());
        out.lin_splits.push_back(
            CompiledTree::LinSplit{s.attr, s.attr2, s.a, s.b, s.c});
        out.attr[id] = CompiledTree::kLin;
        out.threshold[id] = std::bit_cast<float>(idx);
        break;
      }
    }
    assert(n.left != kInvalidNode && n.right != kInvalidNode);
    // Right first so the left child is emitted next (preorder adjacency).
    stack.push_back(Frame{n.right, id, false});
    stack.push_back(Frame{n.left, id, true});
  }
  return out;
}

CompiledTree CompiledTree::Compile(const DecisionTree& tree) {
  if (tree.empty()) {
    CompiledTree out;
    out.schema_ = std::make_shared<const Schema>(tree.schema());
    out.num_classes_ = std::max<int32_t>(tree.schema().num_classes(), 1);
    return out;
  }
  // Pack a single-tree blob and bind a view onto it, so the in-memory
  // model and `cmptool compile`'s file are the same bytes.
  std::string error;
  CompiledModel model = CompileModel({&tree}, &error);
  assert(!model.empty() && error.empty());
  return model.trees.empty() ? CompiledTree() : model.trees[0];
}

bool CompiledTree::FromBlob(std::shared_ptr<const ModelBlob> blob,
                            std::shared_ptr<const Schema> schema,
                            uint32_t tree_index, CompiledTree* out,
                            std::string* error) {
  *out = CompiledTree();
  if (blob == nullptr || schema == nullptr) {
    return BindFail(error, "null blob or schema");
  }
  const ModelBlob& b = *blob;
  const int32_t num_classes = static_cast<int32_t>(b.num_classes());
  const int32_t num_attrs = schema->num_attrs();
  if (num_classes < 1) return BindFail(error, "blob class count < 1");

  const BlobSection* attr = nullptr;
  const BlobSection* threshold = nullptr;
  const BlobSection* children = nullptr;
  const BlobSection* cats = nullptr;
  const BlobSection* cat_bits = nullptr;
  const BlobSection* lins = nullptr;
  const BlobSection* wides = nullptr;
  const BlobSection* leaf_class = nullptr;
  const BlobSection* leaf_probs = nullptr;
  if (!FindTyped(b, tree_index, SectionKind::kNodeAttr, sizeof(int16_t), true,
                 &attr, error) ||
      !FindTyped(b, tree_index, SectionKind::kThreshold, sizeof(float), true,
                 &threshold, error) ||
      !FindTyped(b, tree_index, SectionKind::kChildren, sizeof(int32_t), true,
                 &children, error) ||
      !FindTyped(b, tree_index, SectionKind::kCatSplits, sizeof(CatSplit),
                 false, &cats, error) ||
      !FindTyped(b, tree_index, SectionKind::kCatBits, 1, false, &cat_bits,
                 error) ||
      !FindTyped(b, tree_index, SectionKind::kLinSplits, sizeof(LinSplit),
                 false, &lins, error) ||
      !FindTyped(b, tree_index, SectionKind::kWideSplits, sizeof(WideSplit),
                 false, &wides, error) ||
      !FindTyped(b, tree_index, SectionKind::kLeafClass, sizeof(ClassId), true,
                 &leaf_class, error) ||
      !FindTyped(b, tree_index, SectionKind::kLeafProbs, sizeof(float), true,
                 &leaf_probs, error)) {
    return false;
  }

  const uint64_t n = attr->count;
  if (n == 0 || n > static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
    return BindFail(error, "node count out of range");
  }
  if (threshold->count != n || children->count != 2 * n) {
    return BindFail(error, "node section counts disagree");
  }
  const uint64_t num_leaves = leaf_class->count;
  if (num_leaves == 0 || num_leaves > n) {
    return BindFail(error, "leaf count out of range");
  }
  if (leaf_probs->count !=
      num_leaves * static_cast<uint64_t>(num_classes)) {
    return BindFail(error, "leaf probability table has wrong shape");
  }

  CompiledTree t;
  t.schema_ = std::move(schema);
  t.storage_ = blob;
  t.num_classes_ = num_classes;
  t.num_nodes_ = static_cast<int32_t>(n);
  t.num_leaves_ = static_cast<int32_t>(num_leaves);
  NodesView& v = t.nodes_;
  v.attr = b.SectionData<int16_t>(*attr);
  v.threshold = b.SectionData<float>(*threshold);
  v.children = b.SectionData<int32_t>(*children);
  v.cat_splits = cats != nullptr ? b.SectionData<CatSplit>(*cats) : nullptr;
  t.num_cat_ = cats != nullptr ? static_cast<int32_t>(cats->count) : 0;
  v.cat_bits = cat_bits != nullptr ? b.SectionData<uint8_t>(*cat_bits)
                                   : nullptr;
  t.num_cat_bits_ = cat_bits != nullptr
                        ? static_cast<int64_t>(cat_bits->count)
                        : 0;
  v.lin_splits = lins != nullptr ? b.SectionData<LinSplit>(*lins) : nullptr;
  t.num_lin_ = lins != nullptr ? static_cast<int32_t>(lins->count) : 0;
  v.wide_splits =
      wides != nullptr ? b.SectionData<WideSplit>(*wides) : nullptr;
  t.num_wide_ = wides != nullptr ? static_cast<int32_t>(wides->count) : 0;
  t.leaf_class_ = b.SectionData<ClassId>(*leaf_class);
  t.leaf_probs_ = b.SectionData<float>(*leaf_probs);

  // Node-level validation: after this loop, descent on any row value is
  // guaranteed in-bounds and terminating (internal children point
  // strictly forward, so `id` increases every step).
  const int32_t nn = t.num_nodes_;
  for (int32_t i = 0; i < nn; ++i) {
    const int16_t a = v.attr[i];
    const int32_t left = v.children[2 * i];
    const int32_t right = v.children[2 * i + 1];
    if (a == kLeaf) {
      if (left < 0 || left >= num_classes) {
        return BindFail(error, "leaf class out of range");
      }
      if (right < 0 || right >= t.num_leaves_) {
        return BindFail(error, "leaf index out of range");
      }
      if (t.leaf_class_[right] != left) {
        return BindFail(error, "leaf class table disagrees with node");
      }
      continue;
    }
    if (left <= i || left >= nn || right <= i || right >= nn) {
      return BindFail(error, "child pointer not strictly forward");
    }
    if (a >= 0) {
      if (a >= num_attrs || !t.schema_->is_numeric(a)) {
        return BindFail(error, "numeric split on invalid attribute");
      }
    } else if (a == kWide) {
      const int32_t idx = infer_impl::SideIndex(v.threshold[i]);
      if (idx < 0 || idx >= t.num_wide_) {
        return BindFail(error, "wide-split index out of range");
      }
      const WideSplit& w = v.wide_splits[idx];
      if (w.attr < 0 || w.attr >= num_attrs ||
          !t.schema_->is_numeric(w.attr)) {
        return BindFail(error, "wide split on invalid attribute");
      }
    } else if (a == kLin) {
      const int32_t idx = infer_impl::SideIndex(v.threshold[i]);
      if (idx < 0 || idx >= t.num_lin_) {
        return BindFail(error, "linear-split index out of range");
      }
      const LinSplit& l = v.lin_splits[idx];
      if (l.x < 0 || l.x >= num_attrs || !t.schema_->is_numeric(l.x) ||
          l.y < 0 || l.y >= num_attrs || !t.schema_->is_numeric(l.y)) {
        return BindFail(error, "linear split on invalid attribute");
      }
    } else if (a == kCat) {
      const int32_t idx = infer_impl::SideIndex(v.threshold[i]);
      if (idx < 0 || idx >= t.num_cat_) {
        return BindFail(error, "categorical-split index out of range");
      }
      const CatSplit& c = v.cat_splits[idx];
      if (c.attr < 0 || c.attr >= num_attrs ||
          t.schema_->is_numeric(c.attr)) {
        return BindFail(error, "categorical split on invalid attribute");
      }
      if (c.card < 0 || c.offset < 0 ||
          static_cast<int64_t>(c.offset) + c.card > t.num_cat_bits_) {
        return BindFail(error, "categorical bit range out of bounds");
      }
    } else {
      return BindFail(error, "unknown node kind");
    }
  }

  // Fuse each node's hot fields into one 16-byte record plus a parallel
  // attribute word for the vector kernels: one cache line per visited
  // node instead of three, with wide splits resolved to their exact
  // double threshold and inline float thresholds pre-widened (the
  // identical static_cast the scalar walker performs per visit), so
  // descent over fused records is byte-identical to descent over the
  // arrays.
  {
    auto fused = std::make_shared<std::vector<FusedNode>>(
        static_cast<size_t>(nn));
    auto fattr = std::make_shared<std::vector<int32_t>>(
        static_cast<size_t>(nn));
    for (int32_t i = 0; i < nn; ++i) {
      FusedNode& f = (*fused)[i];
      const int16_t a = v.attr[i];
      f.left = v.children[2 * i];
      f.right = v.children[2 * i + 1];
      if (a >= 0) {
        (*fattr)[i] = a;
        f.threshold = static_cast<double>(v.threshold[i]);
      } else if (a == kWide) {
        const WideSplit& w =
            v.wide_splits[infer_impl::SideIndex(v.threshold[i])];
        (*fattr)[i] = w.attr;
        f.threshold = w.threshold;
      } else if (a == kLeaf) {
        (*fattr)[i] = a;
      } else {  // kCat / kLin: side-table index rides the threshold slot
        (*fattr)[i] = a;
        f.threshold = std::bit_cast<double>(
            static_cast<int64_t>(infer_impl::SideIndex(v.threshold[i])));
      }
    }
    v.fused = fused->data();
    v.fused_attr = fattr->data();
    t.fused_store_ = std::move(fused);
    t.fused_attr_store_ = std::move(fattr);
  }

  *out = std::move(t);
  return true;
}

int32_t CompiledTree::LeafIndexOf(const Dataset& ds, RecordId r) const {
  return infer_impl::DescendFrom(nodes_, DatasetRow{&ds, r});
}

int32_t CompiledTree::LeafIndexOfRow(const double* numeric,
                                     const int32_t* categorical) const {
  return infer_impl::DescendFrom(nodes_, RawRow{numeric, categorical});
}

void CompiledTree::LeafIndicesOfColumns(const RowColumnsView& rows,
                                        int64_t begin, int64_t end,
                                        int32_t* out,
                                        const InferKernelOps* ops) const {
  if (end <= begin) return;
  const InferKernelOps& k = ops != nullptr ? *ops : ActiveInferKernelOps();
  k.descend_block(nodes_, rows, begin, end, out);
}

}  // namespace cmp
