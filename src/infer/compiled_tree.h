#ifndef CMP_INFER_COMPILED_TREE_H_
#define CMP_INFER_COMPILED_TREE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/dataset.h"
#include "common/schema.h"
#include "common/types.h"
#include "io/model_blob.h"
#include "tree/tree.h"

namespace cmp {

struct InferKernelOps;

/// Column-major (structure-of-arrays) view of a row block for the batch
/// kernels: one pointer per schema attribute, each column indexed by row.
/// Only the slot matching an attribute's kind is ever dereferenced, so
/// mismatched-kind entries may be null, and `categorical` itself may be
/// null for an all-numeric schema.
struct RowColumnsView {
  const double* const* numeric = nullptr;
  const int32_t* const* categorical = nullptr;
};

/// An immutable, cache-friendly compilation of a DecisionTree for batch
/// scoring.
///
/// The training-side DecisionTree is an array of fat TreeNode structs,
/// each dragging a Split (with its own heap-allocated categorical subset)
/// and a heap-allocated class_counts vector through cache on every
/// descent. CompiledTree re-lays the same tree out as structure-of-arrays:
/// three contiguous hot arrays (`int16 attr`, `float threshold`,
/// `int32 left/right`) drive the descent loop, and everything rare —
/// categorical subsets, linear-combination splits, thresholds that do not
/// round-trip through float — lives in small side tables reached through a
/// sentinel in `attr`. Nodes are written in depth-first preorder; the
/// only ordering invariant descent relies on is that children point
/// strictly forward, which FromBlob validates, so blobs whose nodes were
/// written in another order load and score the same.
///
/// Storage: a CompiledTree is a *view*. All of its arrays live inside one
/// relocatable `.cmpb` blob (io/model_blob.h) which the tree keeps alive
/// through a shared_ptr — whether that blob was packed in memory by
/// Compile(), read in one gulp, or mmap'd straight off disk, the view
/// code is identical and the bytes are identical. Copying a CompiledTree
/// copies pointers and bumps the blob refcount, which is what lets a
/// serving process hand out a model version to in-flight batches and
/// retire the bytes only when the last batch drains.
///
/// Predictions are bit-exact with DecisionTree::Classify: numeric
/// comparisons stay in double (an inline float threshold is only used
/// when widening it back to double reproduces the trained threshold
/// exactly; otherwise the split is routed to the wide side table), and
/// linear-split coefficients are kept in double.
///
/// Per-node encoding, for node i (children interleaved so one indexed
/// load `children[2i + went_right]` replaces a branchy select — descent
/// direction becomes a data dependency, not a branch to mispredict):
///   attr[i] >= 0      numeric split on attribute attr[i]:
///                     value <= (double)threshold[i] routes left
///   attr[i] == kLeaf  leaf: children[2i] is the ClassId, children[2i+1]
///                     the leaf index into the probability table
///   attr[i] == kCat   categorical split: threshold[i] bit-casts to an
///                     index into cat_splits()
///   attr[i] == kLin   linear split a*x + b*y <= c: threshold[i]
///                     bit-casts to an index into lin_splits()
///   attr[i] == kWide  numeric split whose double threshold (or >int16
///                     attribute id) does not fit inline: threshold[i]
///                     bit-casts to an index into wide_splits()
class CompiledTree {
 public:
  static constexpr int16_t kLeaf = -1;
  static constexpr int16_t kCat = -2;
  static constexpr int16_t kLin = -3;
  static constexpr int16_t kWide = -4;

  /// One node's hot fields fused into a single 16-byte record, plus a
  /// parallel int32 attribute array (TreeNodesView::fused_attr), so a
  /// descent step touches one line for the split and one densely-packed
  /// line for the classification — where the blob sections would spread
  /// it over three or four (attr, threshold, children and — for most
  /// real trees — a wide side-table entry). Derived at bind time, never
  /// serialized. Two deliberate resolutions happen here:
  ///   - kWide nodes are folded into plain numeric form: the parallel
  ///     attr holds the side entry's attribute and `threshold` its
  ///     exact double cut, so the (typically dominant) wide population
  ///     costs the kernels nothing extra.
  ///   - inline float thresholds are pre-widened to double — the same
  ///     static_cast the scalar walker performs per visit — so compares
  ///     against `threshold` are byte-identical to the array walk.
  /// kCat/kLin keep their sentinel in the parallel attr and smuggle
  /// their side-table index through the (otherwise unused) threshold
  /// slot as a bit-cast int64. The vector tier both services lanes and
  /// gathers from these arrays; the scalar walker stays on the blob
  /// sections (it is the reference).
  struct FusedNode {
    double threshold = 0.0;
    int32_t left = 0;
    int32_t right = 0;
  };

  /// Categorical side entry: attribute plus a [offset, offset+card) slice
  /// of the shared membership-bit pool; bit v set routes value v left.
  struct CatSplit {
    int32_t attr = 0;
    int32_t offset = 0;
    int32_t card = 0;
  };

  /// Linear side entry: a*x + b*y <= c routes left (coefficients in
  /// double to match Split::RoutesLeft bit for bit).
  struct LinSplit {
    int32_t x = 0;
    int32_t y = 0;
    double a = 0.0;
    double b = 0.0;
    double c = 0.0;
  };

  /// Numeric side entry for thresholds float cannot represent.
  /// `reserved` names the bytes the compiler would otherwise insert as
  /// alignment padding: these structs are memcpy'd into the blob, and
  /// unnamed padding has indeterminate content — the same model would
  /// pack to different bytes run to run, breaking the byte-identical
  /// blob contract (PackModelBlob == SaveModelBlob == compile-from-text).
  struct WideSplit {
    int32_t attr = 0;
    int32_t reserved = 0;
    double threshold = 0.0;
  };

  /// The hot arrays of one tree as plain pointers into its blob (plus
  /// the bind-time fused records): what the scalar walker and the
  /// per-ISA batch kernels (infer/infer_kernels.h) traverse. Aliased as
  /// cmp::TreeNodesView below.
  struct NodesView {
    const int16_t* attr = nullptr;
    const float* threshold = nullptr;
    const int32_t* children = nullptr;
    const CatSplit* cat_splits = nullptr;
    const uint8_t* cat_bits = nullptr;
    const LinSplit* lin_splits = nullptr;
    const WideSplit* wide_splits = nullptr;
    const FusedNode* fused = nullptr;
    const int32_t* fused_attr = nullptr;
  };

  CompiledTree() = default;

  /// Compiles `tree` into the flat layout, packed into an in-memory
  /// `.cmpb` blob (byte-identical to what SaveModelBlob writes for the
  /// same tree). Unreachable nodes are dropped; leaf class counts are
  /// normalized into per-class probabilities (a leaf with no recorded
  /// counts gets probability 1 on its predicted class). An empty input
  /// tree yields an empty() CompiledTree.
  static CompiledTree Compile(const DecisionTree& tree);

  /// Binds a view onto tree `tree_index` of a parsed blob, validating
  /// the section table and every node against the blob's own bounds
  /// (children in range and strictly forward — descent on a hostile
  /// blob cannot loop or index out of bounds; side-table and leaf
  /// indices in range; attribute ids valid for `schema`). On failure
  /// returns false, fills `error`, and leaves `out` empty.
  static bool FromBlob(std::shared_ptr<const ModelBlob> blob,
                       std::shared_ptr<const Schema> schema,
                       uint32_t tree_index, CompiledTree* out,
                       std::string* error);

  bool empty() const { return num_nodes_ == 0; }
  int num_nodes() const { return num_nodes_; }
  int num_leaves() const { return num_leaves_; }
  int32_t num_classes() const { return num_classes_; }
  /// Valid only for a non-empty tree.
  const Schema& schema() const { return *schema_; }
  std::shared_ptr<const Schema> shared_schema() const { return schema_; }
  /// The blob whose memory this view points into (null only for a
  /// default-constructed or empty tree).
  const std::shared_ptr<const ModelBlob>& storage() const { return storage_; }

  /// Index (into the leaf tables) of the leaf record `r` of `ds` lands in.
  int32_t LeafIndexOf(const Dataset& ds, RecordId r) const;

  /// Batch descent over a column-major row block: fills
  /// `out[0 .. end-begin)` with the leaf index rows [begin, end) of
  /// `rows` land in, using the requested kernel tier (`ops` null means
  /// the active tier). Predictions are byte-identical to PredictRow
  /// under every tier; passing `ops` explicitly is for tests and benches
  /// that pin a tier regardless of the global dispatch.
  void LeafIndicesOfColumns(const RowColumnsView& rows, int64_t begin,
                            int64_t end, int32_t* out,
                            const InferKernelOps* ops = nullptr) const;

  /// Same descent over a raw dense row: both arrays are indexed by AttrId
  /// and sized schema().num_attrs(); only the slot matching each
  /// attribute's kind is ever read. `categorical` may be null for an
  /// all-numeric schema.
  int32_t LeafIndexOfRow(const double* numeric,
                         const int32_t* categorical) const;

  /// Predicted class for record `r` of `ds`; identical to
  /// DecisionTree::Classify on the source tree.
  ClassId Predict(const Dataset& ds, RecordId r) const {
    return leaf_class(LeafIndexOf(ds, r));
  }

  ClassId PredictRow(const double* numeric, const int32_t* categorical) const {
    return leaf_class(LeafIndexOfRow(numeric, categorical));
  }

  /// Majority class of leaf `leaf_index`.
  ClassId leaf_class(int32_t leaf_index) const {
    return leaf_class_[leaf_index];
  }

  /// `num_classes()` training-frequency probabilities for leaf
  /// `leaf_index`; non-negative, summing to 1.
  const float* leaf_probs(int32_t leaf_index) const {
    return leaf_probs_ +
           static_cast<size_t>(leaf_index) * static_cast<size_t>(num_classes_);
  }

  std::span<const CatSplit> cat_splits() const {
    return {nodes_.cat_splits, static_cast<size_t>(num_cat_)};
  }
  std::span<const LinSplit> lin_splits() const {
    return {nodes_.lin_splits, static_cast<size_t>(num_lin_)};
  }
  std::span<const WideSplit> wide_splits() const {
    return {nodes_.wide_splits, static_cast<size_t>(num_wide_)};
  }

  /// This tree's node arrays as plain pointers, the form the walker
  /// and the batch kernels take.
  const NodesView& nodes_view() const { return nodes_; }

 private:
  // Cold identity; the schema is shared with every other tree bound to
  // the same blob.
  std::shared_ptr<const Schema> schema_;
  std::shared_ptr<const ModelBlob> storage_;
  int32_t num_classes_ = 0;
  int32_t num_nodes_ = 0;
  int32_t num_leaves_ = 0;

  // Node views into the blob (preorder, root at 0) and the fused
  // records. Children are interleaved: children[2i] left,
  // children[2i+1] right — for leaves, the class id and the leaf-table
  // index respectively.
  NodesView nodes_;

  // Side-table sizes, for the spans and the bind-time validation.
  int32_t num_cat_ = 0;
  int64_t num_cat_bits_ = 0;
  int32_t num_lin_ = 0;
  int32_t num_wide_ = 0;

  // Leaf payload views, indexed by leaf index.
  const ClassId* leaf_class_ = nullptr;
  const float* leaf_probs_ = nullptr;  // num_leaves x num_classes, row-major

  // Owners of the bind-time fused node records and their parallel
  // attribute array (see FusedNode) that nodes_ points into; shared so
  // tree copies stay cheap. Null only for an empty (default-constructed)
  // tree.
  std::shared_ptr<const std::vector<FusedNode>> fused_store_;
  std::shared_ptr<const std::vector<int32_t>> fused_attr_store_;
};

/// The per-ISA kernels take this POD view rather than a CompiledTree: a
/// translation unit compiled with -mavx2 must never inline CompiledTree
/// methods (they would pick up AVX2 codegen and get called from
/// non-AVX2 hosts via the baseline build).
using TreeNodesView = CompiledTree::NodesView;

namespace infer_impl {

// The one scalar descent walker, generic over its row type (a Row
// provides `double Numeric(int32_t attr)` and
// `int32_t Categorical(int32_t attr)`). CompiledTree's per-row lookups,
// the scalar tier and the AVX2 tier's fallbacks all call it, which is
// what keeps every tier byte-identical to PredictRow.
//
// Everything here has internal linkage, in every translation unit that
// includes this header: infer_kernels_avx2.cc is compiled with -mavx2,
// and an inline function or template it instantiated with external
// linkage would be a weak definition the linker may keep for every
// caller, putting AVX code on the scalar path of a host without AVX2.
// For the same reason the walker uses builtins, not library templates.
namespace {

/// Side-table index smuggled through a kCat/kLin/kWide node's float
/// threshold slot.
inline int32_t SideIndex(float threshold) {
  return __builtin_bit_cast(int32_t, threshold);
}

/// Row `r` of a column-major block.
struct ColumnRow {
  const RowColumnsView* rows;
  int64_t r;
  double Numeric(int32_t a) const { return rows->numeric[a][r]; }
  int32_t Categorical(int32_t a) const { return rows->categorical[a][r]; }
};

/// One descent step from node `id`; leaves hold still, so lanes that
/// finish early are harmless no-ops until a whole gang is done. The
/// child select is arithmetic (`2*id + went_right`), never a branch:
/// only the split-kind dispatch branches, and that is near-perfectly
/// predicted on trees dominated by one split kind. NaN feature values
/// fail `<=` and route right, matching Split::RoutesLeft.
template <typename Row>
int32_t Step(const TreeNodesView& t, const Row& row, int32_t id) {
  const int16_t a = t.attr[id];
  double x, cut;
  if (a >= 0) {
    x = row.Numeric(a);
    cut = static_cast<double>(t.threshold[id]);
  } else if (a == CompiledTree::kLeaf) {
    return id;
  } else if (a == CompiledTree::kWide) {
    const CompiledTree::WideSplit& s =
        t.wide_splits[SideIndex(t.threshold[id])];
    x = row.Numeric(s.attr);
    cut = s.threshold;
  } else if (a == CompiledTree::kLin) {
    const CompiledTree::LinSplit& s =
        t.lin_splits[SideIndex(t.threshold[id])];
    x = s.a * row.Numeric(s.x) + s.b * row.Numeric(s.y);
    cut = s.c;
  } else {
    const CompiledTree::CatSplit& s =
        t.cat_splits[SideIndex(t.threshold[id])];
    const int32_t v = row.Categorical(s.attr);
    const bool in_left = v >= 0 && v < s.card && t.cat_bits[s.offset + v];
    return t.children[2 * id + static_cast<int32_t>(!in_left)];
  }
  return t.children[2 * id + static_cast<int32_t>(!(x <= cut))];
}

/// Full descent of `row` from node `id` (the root by default; the batch
/// tiers hand over their in-flight lanes here when the range runs dry).
/// Returns the leaf index.
template <typename Row>
int32_t DescendFrom(const TreeNodesView& t, const Row& row, int32_t id = 0) {
  while (t.attr[id] != CompiledTree::kLeaf) id = Step(t, row, id);
  return t.children[2 * id + 1];
}

}  // namespace
}  // namespace infer_impl

// The blob stores these structs raw; pin their layout so a blob written
// by any build of this library parses in any other.
static_assert(std::is_trivially_copyable_v<CompiledTree::CatSplit> &&
              sizeof(CompiledTree::CatSplit) == 12);
static_assert(std::is_trivially_copyable_v<CompiledTree::LinSplit> &&
              sizeof(CompiledTree::LinSplit) == 32);
static_assert(std::is_trivially_copyable_v<CompiledTree::WideSplit> &&
              sizeof(CompiledTree::WideSplit) == 16);
// Never serialized, but the vector kernels gather the threshold double
// and the {left,right} pair as the record's 8-byte halves, so the
// layout is load-bearing anyway.
static_assert(std::is_trivially_copyable_v<CompiledTree::FusedNode> &&
              sizeof(CompiledTree::FusedNode) == 16);

/// The mutable staging form of one compiled tree: plain vectors filled by
/// the compiler pass, then packed verbatim into blob sections. Exists so
/// the packer (infer/model_io.h) and Compile() share one compilation and
/// one byte layout.
struct CompiledTreeArrays {
  int32_t num_classes = 0;
  std::vector<int16_t> attr;
  std::vector<float> threshold;
  std::vector<int32_t> children;
  std::vector<CompiledTree::CatSplit> cat_splits;
  std::vector<uint8_t> cat_bits;
  std::vector<CompiledTree::LinSplit> lin_splits;
  std::vector<CompiledTree::WideSplit> wide_splits;
  std::vector<ClassId> leaf_class;
  std::vector<float> leaf_probs;
};

/// Flattens `tree` (non-empty) into preorder structure-of-arrays form;
/// the semantics (side tables, float-threshold gating, leaf-prob
/// normalization) are documented on CompiledTree.
CompiledTreeArrays CompileTreeToArrays(const DecisionTree& tree);

}  // namespace cmp

#endif  // CMP_INFER_COMPILED_TREE_H_
